package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("int32[] m_data age; %{ value *= 2; // c\n %} /* block */ 3.5 \"s\\n\"")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"int32", "[", "]", "m_data", "age", ";", "%{", "value", "*=", "2", ";", "%}", "3.5", "s\n", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q (all: %v)", i, texts[i], want[i], texts)
		}
	}
	if kinds[len(kinds)-1] != TEOF {
		t.Error("missing EOF")
	}
}

func TestLexErrors(t *testing.T) {
	for name, src := range map[string]string{
		"unterminated-string":  `"abc`,
		"unterminated-comment": "/* abc",
		"bad-escape":           `"\q"`,
		"bad-char":             "#",
		"bad-number":           "1.2.3",
	} {
		if _, err := Lex(src); err == nil {
			t.Errorf("%s: expected lex error", name)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestParseMulSum(t *testing.T) {
	f, err := Parse(readTestdata(t, "mulsum.p2g"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Fields) != 2 || len(f.Kernels) != 4 {
		t.Fatalf("%d fields, %d kernels", len(f.Fields), len(f.Kernels))
	}
	if f.Fields[0].Name != "m_data" || !f.Fields[0].Aged || f.Fields[0].Rank != 1 || f.Fields[0].Kind != field.Int32 {
		t.Errorf("field decl %+v", f.Fields[0])
	}
	mul2 := f.Kernels[1]
	if mul2.Name != "mul2" || mul2.AgeVar != "a" || len(mul2.Indexes) != 1 || mul2.Indexes[0] != "x" {
		t.Errorf("mul2 header %+v", mul2)
	}
	if len(mul2.Fetches) != 1 || mul2.Fetches[0].Ref.Field != "m_data" || mul2.Fetches[0].Ref.Whole {
		t.Errorf("mul2 fetch %+v", mul2.Fetches)
	}
	plus5 := f.Kernels[2]
	if plus5.Stores[0].Ref.Age.Var != "a" || plus5.Stores[0].Ref.Age.Offset != 1 {
		t.Errorf("plus5 store age %+v", plus5.Stores[0].Ref.Age)
	}
	print := f.Kernels[3]
	if !print.Fetches[0].Ref.Whole {
		t.Error("print fetch should be whole-field")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no-rank":        "int32 m;",
		"bad-top":        "= 3;",
		"kernel-stmt":    "k:\n 3;",
		"second-age":     "int32[] f age;\nk:\n age a;\n age b;",
		"bad-index":      "int32[] f age;\nk:\n age a;\n fetch v = f(a)[+];",
		"bad-age":        "int32[] f age;\nk:\n fetch v = f(+)[0];",
		"unterminated":   "k:\n %{ int i = 0;",
		"missing-semi":   "int32[] f age",
		"bad-cout":       "k:\n %{ cout; %}",
		"bad-age-offset": "int32[] f age;\nk:\n age a;\n fetch v = f(a+b)[0];",
		"decl-in-post":   "k:\n %{ int x = 3; for (int i = 0; i < x; int x = 1) { i += 1; } %}",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error for %q", name, src)
		}
	}
}

// TestCompileMulSumGolden compiles the figure 5 source and checks the exact
// §V output sequence — the same golden values as the Go-native program.
func TestCompileMulSumGolden(t *testing.T) {
	prog, err := Compile("mulsum", readTestdata(t, "mulsum.p2g"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rep, err := runtime.Run(prog, runtime.Options{Workers: 1, MaxAge: 1, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	want := "10 11 12 13 14 \n20 22 24 26 28 \n25 27 29 31 33 \n50 54 58 62 66 \n"
	if out.String() != want {
		t.Errorf("output %q, want %q", out.String(), want)
	}
	if rep.Kernel("mul2").Instances != 10 || rep.Kernel("print").Instances != 2 {
		t.Errorf("instance counts: %v", rep.Kernels)
	}
}

func TestCompileMulSumParallelMatches(t *testing.T) {
	prog, err := Compile("mulsum", readTestdata(t, "mulsum.p2g"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := runtime.NewNode(prog, runtime.Options{Workers: 8, MaxAge: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	s, err := n.Snapshot("m_data", 12)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference: m(a+1) = m(a)*2+5.
	vals := []int32{10, 11, 12, 13, 14}
	for a := 0; a < 12; a++ {
		for i, v := range vals {
			vals[i] = v*2 + 5
		}
	}
	if !s.Equal(field.ArrayFromInt32(vals)) {
		t.Errorf("m_data(12) = %v, want %v", s, vals)
	}
}

// TestCompileKMeans runs the kernel-language K-means and checks it behaves
// like Lloyd's algorithm: memberships are valid, centroids move, and the
// computation is deterministic.
func TestCompileKMeans(t *testing.T) {
	prog, err := Compile("kmeans", readTestdata(t, "kmeans.p2g"))
	if err != nil {
		t.Fatal(err)
	}
	const iters = 5
	opts := runtime.Options{
		Workers: 4,
		KernelMaxAge: map[string]int{
			"assign": iters - 1,
			"refine": iters - 1,
			"print":  iters,
		},
	}
	var out strings.Builder
	opts.Output = &out
	node, err := runtime.NewNode(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	if got := rep.Kernel("assign").Instances; got != 60*iters {
		t.Errorf("assign instances = %d, want %d", got, 60*iters)
	}
	if got := rep.Kernel("refine").Instances; got != 4*iters {
		t.Errorf("refine instances = %d, want %d", got, 4*iters)
	}
	if got := rep.Kernel("print").Instances; got != iters+1 {
		t.Errorf("print instances = %d, want %d", got, iters+1)
	}
	// Memberships are cluster indices in range.
	ms, err := node.Snapshot("membership", iters-1)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Extent(0) != 60 {
		t.Fatalf("membership extent %d", ms.Extent(0))
	}
	for i := 0; i < 60; i++ {
		if m := ms.At(i).Int64(); m < 0 || m >= 4 {
			t.Fatalf("membership[%d] = %d out of range", i, m)
		}
	}
	if !strings.Contains(out.String(), "iteration 0 sum") || !strings.Contains(out.String(), "iteration 5 sum") {
		t.Errorf("print output %q", out.String())
	}

	// Determinism across worker counts.
	node2, err := runtime.NewNode(prog, runtime.Options{Workers: 1, KernelMaxAge: opts.KernelMaxAge})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node2.Run(); err != nil {
		t.Fatal(err)
	}
	c1, _ := node.Snapshot("centroids", iters)
	c2, _ := node2.Snapshot("centroids", iters)
	if !c1.Equal(c2) {
		t.Error("kernel-language K-means is nondeterministic across workers")
	}
}

// TestCompileErrors pins the diagnostics: the lowering is the only checker of
// a code block, so what it reports, and where, is the compiler's interface.
func TestCompileErrors(t *testing.T) {
	const aged = "int32[] f age;\nk:\n age a;\n index x;\n local int32 v;\n fetch v = f(a)[x];\n"
	cases := []struct{ name, src, want string }{
		{"dup-field", "int32[] f age;\nint32[] f age;\nk:\n age a;", `2:1: duplicate field "f"`},
		{"wrong-age-var", "int32[] f age;\nk:\n age a;\n index x;\n local int32 v;\n fetch v = f(b)[x];",
			`6:14: age expression uses "b" but kernel k declares age variable "a"`},
		{"unknown-index", "int32[] f age;\nk:\n age a;\n local int32 v;\n fetch v = f(a)[x];",
			`5:17: index "x" is not an index variable of kernel k`},
		{"undefined-var", "int32[] f age;\nk:\n %{ x = 3; %}", `3:5: undefined variable "x"`},
		{"read-undefined", "int32[] f age;\nk:\n %{ int y = zzz; %}", `3:13: undefined variable "zzz"`},
		{"assign-to-age", aged + " %{ a = 3; %}", `7:5: "a" is read-only`},
		{"put-non-array", "int32[] f age;\nk:\n local int32 v;\n %{ put(v, 1, 0); %}", `4:5: put: "v" is not an array local`},
		{"get-non-array", "int32[] f age;\nk:\n local int32 v;\n %{ int z = get(v, 0); %}", `4:13: get: "v" is not an array local`},
		{"unknown-func", "int32[] f age;\nk:\n %{ int z = frob(1); %}", `3:13: unknown function "frob"`},
		{"redeclared", "int32[] f age;\nk:\n %{ int i = 0; int i = 1; %}", `3:16: variable "i" redeclared in the same scope`},
		{"array-expr", "int32[] f age;\nk:\n local int32[] arr;\n %{ int z = arr + 1; %}",
			`4:13: array "arr" must be accessed with get()/put()/extent()`},
		{"timer-compound", "timer t1;\nint32[] f age;\nk:\n %{ t1 += 3; %}", `4:5: timers only support plain assignment`},
		{"timer-bad-rhs", "timer t1;\nint32[] f age;\nk:\n %{ t1 = 5; %}", "4:5: timers can only be assigned `now`"},
		{"expired-non-timer", "int32[] f age;\nk:\n %{ int z = 0; if (expired(z, 10)) { z = 1; } %}",
			`3:20: expired: "z" is not a declared timer`},
		{"inc-age", aged + " %{ ++a; %}", `7:5: cannot modify "a"`},
		{"assign-endl", "int32[] f age;\nk:\n %{ endl = 3; %}", `3:5: undefined variable "endl"`},
		{"read-timer", "timer t1;\nint32[] f age;\nk:\n %{ int z = t1; %}", `4:13: undefined variable "t1"`},
		{"sqrt-arity", "int32[] f age;\nk:\n %{ float z = sqrt(1.0, 2.0); %}", `3:15: sqrt expects 1 argument(s), got 2`},
		{"extent-arity", "int32[] f age;\nk:\n local int32[] arr;\n %{ int z = extent(arr); %}", `4:13: extent expects 2 argument(s), got 1`},
		{"put-arity", "int32[] f age;\nk:\n local int32[] arr;\n %{ put(arr, 1); %}", `4:5: put expects (array, value, index...)`},
		{"get-arity", "int32[] f age;\nk:\n local int32[] arr;\n %{ int z = get(arr); %}", `4:13: get expects (array, index...)`},
		{"reset-non-timer", "int32[] f age;\nk:\n %{ int z = 0; reset(z); %}", `3:16: reset: "z" is not a declared timer`},
		// Two errors in one statement: the target is resolved before the
		// right-hand side is lowered.
		{"target-before-value", aged + " %{ a = zzz; %}", `7:5: "a" is read-only`},
		// Core validation runs before any body is lowered, so a fetch the
		// lowering could not type is reported as the structural error it is.
		{"validation-before-bodies", "int32[] f age;\nk:\n age a;\n local int32 v;\n fetch v = f(a);\n %{ v = zzz; %}",
			`p2g: kernel "k": fetch v = f(a);: whole-field fetch into rank-0 local (field rank 1)`},
	}
	for _, tc := range cases {
		_, err := Compile(tc.name, tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Compile = %v, want %s", tc.name, err, tc.want)
		}
		if _, derr := Disassemble(tc.name, tc.src); derr == nil || derr.Error() != tc.want {
			t.Errorf("%s: Disassemble = %v, want %s", tc.name, derr, tc.want)
		}
	}
}

// TestBlockLanguageSemantics exercises the block language: arithmetic,
// precedence, logic, loops, break/continue, floats, builtins.
func TestBlockLanguageSemantics(t *testing.T) {
	src := `
int32[] out;
calc:
  local int32[] r;
  %{
    int i = 2 + 3 * 4;          // 14
    put(r, i, 0);
    put(r, (2 + 3) * 4, 1);     // 20
    int acc = 0;
    for (int k = 0; k < 10; ++k) {
      if (k % 2 == 0) { continue; }
      if (k > 7) { break; }
      acc += k;                 // 1+3+5+7 = 16
    }
    put(r, acc, 2);
    float f = 7.0 / 2.0;
    put(r, f * 2.0, 3);         // 7 (converted to int32)
    put(r, min(3, 9) + max(3, 9), 4);   // 12
    put(r, abs(-5), 5);         // 5
    put(r, sqrt(49.0), 6);      // 7
    int w = 0;
    while (w < 4) { w++; }
    put(r, w, 7);               // 4
    bool b = 1 < 2 && !(3 < 2) || 0 > 1;
    if (b) { put(r, 1, 8); } else { put(r, 0, 8); }
    put(r, 17 % 5, 9);          // 2
    put(r, pow(2.0, 10.0), 10); // 1024
    put(r, floor(3.9), 11);     // 3
  %}
  store out(0) = r;
`
	prog, err := Compile("calc", src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := runtime.NewNode(prog, runtime.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	s, _ := n.Snapshot("out", 0)
	want := []int32{14, 20, 16, 7, 12, 5, 7, 4, 1, 2, 1024, 3}
	got := s.Int32s()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("r[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRuntimeBlockErrors(t *testing.T) {
	cases := map[string]string{
		"div-zero": "int32[] f;\nk:\n local int32[] r;\n %{ int z = 0; put(r, 1 / z, 0); %}\n store f(0) = r;",
		"mod-zero": "int32[] f;\nk:\n local int32[] r;\n %{ int z = 0; put(r, 1 % z, 0); %}\n store f(0) = r;",
		"neg-sqrt": "int32[] f;\nk:\n local int32[] r;\n %{ put(r, sqrt(-1.0), 0); %}\n store f(0) = r;",
	}
	for name, src := range cases {
		prog, err := Compile(name, src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if _, err := runtime.Run(prog, runtime.Options{Workers: 1}); err == nil {
			t.Errorf("%s: expected runtime error", name)
		}
	}
}

func TestSourceKernelWithStop(t *testing.T) {
	src := `
int32[] data age;
reader:
  age a;
  local int32[] vals;
  %{
    if (a >= 3) {
      stop;
    } else {
      put(vals, a * 10, 0);
    }
  %}
  store data(a) = vals;
`
	prog, err := Compile("reader", src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runtime.Run(prog, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("reader").Instances; got != 4 {
		t.Errorf("reader instances = %d, want 4 (ages 0..3, last stops)", got)
	}
}

func TestDeadlineExpressions(t *testing.T) {
	src := `
timer t1;
int32[] out;
k:
  local int32[] r;
  %{
    t1 = now;
    if (expired(t1, 60000)) { put(r, 1, 0); } else { put(r, 0, 0); }
    reset(t1);
    int ms = now();
    if (ms > 0) { put(r, 1, 1); }
  %}
  store out(0) = r;
`
	prog, err := Compile("deadline", src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := runtime.NewNode(prog, runtime.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	s, _ := n.Snapshot("out", 0)
	if s.At(0).Int32() != 0 {
		t.Error("freshly reset timer should not be expired")
	}
	if s.At(1).Int32() != 1 {
		t.Error("now() should be positive")
	}
}

func TestStringConcatAndCout(t *testing.T) {
	src := `
int32[] f;
k:
  local int32[] r;
  %{
    cout << "x=" << 1 + 2 << endl;
    put(r, 1, 0);
  %}
  store f(0) = r;
`
	prog, err := Compile("cout", src)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := runtime.Run(prog, runtime.Options{Workers: 1, Output: &out}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "x=3\n" {
		t.Errorf("cout output %q", out.String())
	}
}

// TestCompileDCTStats runs the in-language DCT pipeline: slab fetches, cos()
// math and source-kernel termination, checked against the same DCT computed
// in Go.
func TestCompileDCTStats(t *testing.T) {
	prog, err := Compile("dctstats", readTestdata(t, "dctstats.p2g"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	node, err := runtime.NewNode(prog, runtime.Options{Workers: 4, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("read").Instances; got != 4 {
		t.Errorf("read instances = %d, want 4 (3 frames + EOF)", got)
	}
	if got := rep.Kernel("dct").Instances; got != 12 {
		t.Errorf("dct instances = %d, want 12 (4 blocks x 3 frames)", got)
	}
	if got := rep.Kernel("stats").Instances; got != 4 {
		t.Errorf("stats instances = %d", got)
	}
	// Reference: recompute frame 0 block 0 in Go with the same LCG and
	// compare the stored DC coefficient.
	seed := int64(9901)
	var blk [64]float64
	for p := 0; p < 64; p++ {
		seed = (seed*1103515245 + 12345) % 2147483648
		blk[p] = float64(seed % 256)
	}
	var sum float64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			sum += blk[x*8+y] - 128
		}
	}
	wantDC := int32(0.25 * 0.70710678118 * 0.70710678118 * sum / 16)
	dc, err := node.Snapshot("dc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.At(0).Int32(); got != wantDC {
		t.Errorf("dc(0)[0] = %d, want %d", got, wantDC)
	}
	for a := 0; a <= 3; a++ {
		if !strings.Contains(out.String(), "frame "+string(rune('0'+a))) {
			t.Errorf("missing stats output for frame %d in %q", a, out.String())
		}
	}
}

// TestSlabParsing checks the `[b][]` syntax lowers to a slab fetch.
func TestSlabParsing(t *testing.T) {
	f, err := Parse("float64[][] m age;\nk:\n age a;\n index b;\n local float64[] row;\n fetch row = m(a)[b][];")
	if err != nil {
		t.Fatal(err)
	}
	ref := f.Kernels[0].Fetches[0].Ref
	if len(ref.Index) != 2 || ref.Index[0].Var != "b" || !ref.Index[1].All {
		t.Fatalf("parsed ref %+v", ref)
	}
}

// TestCompileWavefront runs the kernel-language intra-prediction program and
// compares it with the Go-native workload's sequential reference.
func TestCompileWavefront(t *testing.T) {
	prog, err := Compile("wavefront", readTestdata(t, "wavefront.p2g"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := runtime.NewNode(prog, runtime.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	const n = 10
	if got := rep.Kernel("predict").Instances; got != 3*n*n {
		t.Errorf("predict instances = %d, want %d", got, 3*n*n)
	}
	for a := 0; a < 3; a++ {
		in, _ := node.Snapshot("input", a)
		frame := make([][]int32, n)
		for x := range frame {
			frame[x] = make([]int32, n)
			for y := range frame[x] {
				frame[x][y] = in.At(x, y).Int32()
			}
		}
		want := workloads.WavefrontSequential(frame)
		pred, _ := node.Snapshot("pred", a)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if got := pred.At(x+1, y+1).Int32(); got != want[x][y] {
					t.Fatalf("frame %d block (%d,%d) = %d, want %d", a, x, y, got, want[x][y])
				}
			}
		}
	}
}

// TestIndexOffsetParsing checks `[x+1]` and `[x-1]` index coordinates.
func TestIndexOffsetParsing(t *testing.T) {
	f, err := Parse("int32[][] m age;\nk:\n age a;\n index x, y;\n local int32 v;\n fetch v = m(a)[x][y];\n store m(a)[x+1][y-1] = v;")
	if err != nil {
		t.Fatal(err)
	}
	st := f.Kernels[0].Stores[0].Ref
	if st.Index[0].Off != 1 || st.Index[1].Off != -1 {
		t.Fatalf("offsets %+v", st.Index)
	}
	if _, err := Parse("int32[] m age;\nk:\n age a;\n index x;\n local int32 v;\n fetch v = m(a)[x+q];"); err == nil {
		t.Error("non-integer offset should fail to parse")
	}
}
