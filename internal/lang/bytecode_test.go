package lang

// Tests pinning the bytecode VM against the tree-walking oracle
// (oracle_test.go): the two must agree bit-for-bit on field contents, cout
// output and error surfaces for every program the lowerer accepts.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/runtime"
)

// everySource returns every kernel-language source in the tree by path:
// testdata/*.p2g and the benchmark's K-means template with its parameters
// filled in.
func everySource(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.p2g"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	paths = append(paths, filepath.Join("..", "..", "bench", "kmeans.p2g.tmpl"))
	out := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = strings.NewReplacer("@N@", "2000", "@K@", "100", "@SEED@", "1").Replace(string(data))
	}
	return out
}

// TestEveryKernelLowers asserts that every kernel of every kernel-language
// source in the tree compiles to a non-empty listing: there is no other way
// for a body to run.
func TestEveryKernelLowers(t *testing.T) {
	kernels := 0
	for path, src := range everySource(t) {
		listings, err := Disassemble(path, src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, l := range listings {
			kernels++
			if l.Instructions == 0 || l.Text == "" {
				t.Errorf("%s: kernel %s has no listing", path, l.Kernel)
			}
		}
	}
	if kernels < 20 {
		t.Errorf("%d kernels listed, want the 16 of testdata and the 4 of the template", kernels)
	}
}

// chunkWriter records every Write separately: a cout statement is one
// Printf, hence one Write, which is the unit instances interleave at.
type chunkWriter struct{ chunks []string }

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, string(p))
	return len(p), nil
}

// compileFor compiles src for engine "vm", or for "oracle": the same program
// with the oracle's bodies.
func compileFor(t *testing.T, name, src, engine string) *core.Program {
	t.Helper()
	file, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	compile := CompileFile
	if engine == "oracle" {
		compile = oracleProgram
	}
	prog, err := compile(name, file)
	if err != nil {
		t.Fatalf("%s %s: compile: %v", name, engine, err)
	}
	return prog
}

// equivRun compiles src for the VM or the oracle, runs it and returns the
// node (for snapshots) plus the captured cout output, one string per cout
// statement executed.
func equivRun(t *testing.T, name, src, engine string, opts runtime.Options) (*runtime.Node, []string) {
	t.Helper()
	prog := compileFor(t, name, src, engine)
	var out chunkWriter
	opts.Output = &out
	node, err := runtime.NewNode(prog, opts)
	if err != nil {
		t.Fatalf("%s %s: node: %v", name, engine, err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatalf("%s %s: run: %v", name, engine, err)
	}
	if len(rep.Stalled) > 0 {
		t.Fatalf("%s %s: stalled: %v", name, engine, rep.Stalled)
	}
	return node, out.chunks
}

// bodyState runs kernel k of src once, directly on a fresh Ctx, and renders
// everything the body leaves behind. The kernel must not fetch (nothing binds
// its inputs here).
func bodyState(t *testing.T, name, src, engine string) string {
	t.Helper()
	return bodyStateOf(compileFor(t, name, src, engine).Kernel("k"))
}

// bodyStateOf runs one kernel body on a fresh Ctx and renders the error or
// panic it ended with, its cout output, and for every local whether it is
// bound and what it holds.
func bodyStateOf(kd *core.KernelDecl) string {
	var out strings.Builder
	ctx := core.NewCtx(kd, 0, nil, nil, &out)
	var b strings.Builder
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(&b, "panic: %v\n", r)
			}
		}()
		fmt.Fprintf(&b, "error: %v\n", kd.Body(ctx))
	}()
	fmt.Fprintf(&b, "cout: %q\n", out.String())
	for _, l := range kd.Locals {
		fmt.Fprintf(&b, "local %s: bound=%v value=%v\n", l.Name, ctx.Bound(l.Name), ctx.Get(l.Name))
	}
	return b.String()
}

// hazardPrograms exercise what register-resident locals, array views and
// branch-context conditions could get wrong; every one is a single run-once
// kernel k that stores r to out, so bodyState applies too.
var hazardPrograms = map[string]string{
	// A local assigned on one branch only must be bound on that path alone.
	"one-branch-local": `int32[] out;
k:
  local int32[] r;
  local int32 taken;
  local int32 skipped;
  local float64 both;
  %{
    int x = 3;
    if (x > 2) { taken = x; both = 1.5; } else { skipped = x; both = 2.5; }
    put(r, taken, 0);
  %}
  store out(0) = r;`,
	// A put that grows the array inside a loop invalidates the view: the
	// writes and reads that follow must reach the backing the grow moved the
	// elements to (r doubles its capacity, g is re-laid out whenever its inner
	// dimension grows).
	"grow-then-get": `int32[] out;
k:
  local int32[] r;
  local float64[][] g;
  %{
    int s = 0;
    for (int i = 0; i < 40; ++i) {
      put(r, i * i, i);
      put(r, i + 1000, 0);
      s += get(r, 0) + get(r, i) + get(r, i / 2);
      put(g, i + 0.5, i / 3, i % 5);
      put(g, i, 0, 0);
      s += get(g, i / 3, i % 5) + get(g, 0, 0) + get(g, i / 3, 0);
    }
    put(r, s, 40);
    put(r, extent(g, 0) * 100 + extent(g, 1), 41);
  %}
  store out(0) = r;`,
	// The right operand of && and || must not run when the left decides:
	// these gets would panic.
	"short-circuit-guards": `int32[] out;
k:
  local int32[] r;
  %{
    put(r, 5, 0);
    int n = 0;
    for (int i = 0; i < 4; ++i) {
      if (i < 1 && get(r, i) == 5) { n += 1; }
      if (i >= 1 || get(r, i) == 5) { n += 10; }
      if (!(i >= 1 || get(r, i) != 5)) { n += 100; }
      bool b = i < 1 && get(r, i) > 0;
      bool c = i >= 1 || get(r, i) > 9;
      n += b * 1000 + c * 10000;
      while (i < 1 && get(r, i) < 8) { put(r, get(r, i) + 1, i); }
    }
    put(r, n, 1);
  %}
  store out(0) = r;`,
	"break-continue": `int32[] out;
k:
  local int32[] r;
  %{
    int s = 0;
    for (int i = 0; i < 10; ++i) {
      if (i == 2) { continue; }
      if (i == 7) { break; }
      s += i;
    }
    int j = 0;
    while (j < 10) {
      j += 1;
      if (j % 2 == 0) { continue; }
      if (j > 7) { break; }
      s += j * 100;
    }
    for (;;) { s += 1; if (s > 3000) { break; } }
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (b > a) { break; }
        if (b == 1) { continue; }
        s += 7;
      }
      if (a == 2) { continue; }
      s += 10000;
    }
    put(r, s, 0);
    put(r, j, 1);
  %}
  store out(0) = r;`,
	// extent() is evaluated again on every test while the body grows r.
	"extent-in-loop-cond": `int32[] out;
k:
  local int32[] r;
  %{
    put(r, 1, 0);
    for (int i = 0; i < extent(r, 0); ++i) {
      if (extent(r, 0) < 12) { put(r, i + 2, extent(r, 0)); }
    }
  %}
  store out(0) = r;`,
	// Locals read and assigned in a loop live in registers; the stores see
	// the last values.
	"locals-in-loop": `int32[] out;
k:
  local int32[] r;
  local int32 m;
  local float64 acc;
  local string tag;
  %{
    for (int i = 0; i < 6; ++i) {
      if (acc < 4.0 || i == 5) { m = m + i; }
      acc += 1.25;
      tag = tag + i;
    }
    put(r, m, 0);
    put(r, acc * 4, 1);
    cout << tag << endl;
  %}
  store out(0) = r;`,
}

// anyPrograms are the first programs in the tree to declare `any`: an any[]
// field written with put, element-fetched into an any scalar and
// whole-fetched into any[] and int32[] locals. Everything they touch is
// boxed. "any-ints" keeps to integers (and one unset element, which reads as
// 0) so its results have a closed form; "any-mixed" adds float and string
// elements and is held to the oracle alone. An any value prints as its Go
// payload and compares equal to every other, so both programs observe them
// through arithmetic (`v + 0`) and typed locals.
var anyPrograms = map[string]string{
	"any-ints": `any[] f age;
int32[] out age;
w:
  age a;
  local any[] r;
  %{
    put(r, a + 1, 0);
    put(r, 99, 1);
    put(r, a * 10, 3);
    put(r, 7, 1);
  %}
  store f(a) = r;
el:
  age a;
  index x;
  local any v;
  local int32 o;
  fetch v = f(a)[x];
  %{
    o = v * 2 + x;
    cout << "el " << a << " " << x << " " << v + 0 << endl;
  %}
  store out(a)[x] = o;
whole:
  age a;
  local any[] r;
  local int32[] t;
  fetch r = f(a);
  fetch t = f(a);
  %{
    any q = get(r, 0);
    int n = get(r, 3);
    put(r, n + q, 5);
    cout << "whole " << a << " " << extent(r, 0) << " " << get(r, 5) + get(r, 2) << " " << get(t, 1) + get(t, 3) << endl;
  %}
`,
	"any-mixed": `any[] f age;
w:
  age a;
  local any[] r;
  %{
    put(r, a + 1, 0);
    put(r, 2.5, 1);
    put(r, "s", 2);
    put(r, a * 3, 4);
    any z = get(r, 1);
    z += 1;
    z++;
    any neg = -get(r, 0);
    bool both = get(r, 0) && get(r, 3);
    if (get(r, 4) || neg) { z -= 3; }
    cout << z + 0 << " " << get(r, 2) + "t" << " " << min(get(r, 0), get(r, 4)) + 0 << " " << max(neg, get(r, 4)) + 0 << " " << abs(neg) << " " << neg + 0 << " " << both << " " << !get(r, 3) << endl;
  %}
  store f(a) = r;
el:
  age a;
  index x;
  local any v;
  local float64 d;
  fetch v = f(a)[x];
  %{
    d = v;
    v += 1;
    cout << "el " << a << " " << x << " " << v << " " << d << endl;
  %}
`,
}

// TestBytecodeOracleEquivalence is the randomized stress gate: every
// testdata program, every hazard program and the any programs run on the VM
// and on the oracle with randomized worker counts, and fields must match
// bit-for-bit at every age while cout output matches statement for statement.
func TestBytecodeOracleEquivalence(t *testing.T) {
	type equivCase struct {
		name, src string
		opts      runtime.Options
		ages      int               // snapshot ages 0..ages inclusive
		body      bool              // also compare bodyState
		workers   []int             // worker counts to run at; nil draws three
		wantOut   []string          // sorted cout statements, when closed-form
		want      map[string]string // "field(age)" -> snapshot, when closed-form
	}
	cases := []equivCase{
		{name: "mulsum", opts: runtime.Options{MaxAge: 6}, ages: 6},
		{name: "kmeans", opts: runtime.Options{KernelMaxAge: map[string]int{"assign": 4, "refine": 4, "print": 5}}, ages: 5},
		{name: "wavefront", ages: 2},
		{name: "dctstats", ages: 2},
		{name: "any-ints", src: anyPrograms["any-ints"], opts: runtime.Options{MaxAge: 1}, ages: 1, workers: []int{1, 3},
			// f(a) = {a+1, 7, unset, 10a}; out(a)[x] = 2 f(a)[x] + x.
			wantOut: []string{
				"el 0 0 1\n", "el 0 1 7\n", "el 0 2 0\n", "el 0 3 0\n",
				"el 1 0 2\n", "el 1 1 7\n", "el 1 2 0\n", "el 1 3 10\n",
				"whole 0 6 1 7\n", "whole 1 6 12 17\n",
			},
			want: map[string]string{"out(0)": "{2, 15, 2, 3}", "out(1)": "{4, 15, 2, 23}"}},
		{name: "any-mixed", src: anyPrograms["any-mixed"], opts: runtime.Options{MaxAge: 1}, ages: 1, workers: []int{1, 3}},
	}
	var hazards []string
	for name := range hazardPrograms {
		hazards = append(hazards, name)
	}
	sort.Strings(hazards) // the worker counts below come from one seeded stream
	for _, name := range hazards {
		cases = append(cases, equivCase{name: name, src: hazardPrograms[name], body: true})
	}
	// Arrays fetched whole alias the field generation; a put into one must
	// copy first, or the source field and the other consumer see the write.
	cases = append(cases, equivCase{name: "write-to-fetched-array", src: `int32[] src;
int32[] a;
int32[] b;
init:
  local int32[] v;
  %{ for (int i = 0; i < 8; ++i) { put(v, i, i); } %}
  store src(0) = v;
ka:
  local int32[] x;
  fetch x = src(0);
  %{ put(x, 100, 0); put(x, get(x, 1) + get(x, 0), 1); %}
  store a(0) = x;
kb:
  local int32[] y;
  fetch y = src(0);
  %{ put(y, get(y, 0) + 200, 7); %}
  store b(0) = y;`})
	// A slab fetched into a local the body never touches and stored straight
	// through: the slices forced below would hand every instance the last
	// one's slab if the kernel ran in lockstep (see slabPassThrough).
	cases = append(cases, equivCase{name: "slab-pass-through", src: slabPassThrough,
		want: map[string]string{"out(0)": "{{0, 3}, {10, 13}, {20, 23}, {30, 33}, {40, 43}, {50, 53}, {60, 63}, {70, 73}}"}})
	rng := rand.New(rand.NewSource(0x9901))
	var lanes laneStats
	defer func() {
		if lanes.completed == 0 {
			t.Errorf("no slice body ran to completion: %+v", lanes)
		}
	}()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src
			if src == "" {
				src = readTestdata(t, tc.name+".p2g")
			}
			file, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			checkLanes(t, file, &lanes)
			if tc.body {
				if vm, or := bodyState(t, tc.name, src, "vm"), bodyState(t, tc.name, src, "oracle"); vm != or {
					t.Fatalf("state after the body diverged:\nvm:\n%s\noracle:\n%s", vm, or)
				}
			}
			fields := compileFor(t, tc.name, src, "vm").Fields
			workers := tc.workers
			if workers == nil {
				workers = []int{1 + rng.Intn(8), 1 + rng.Intn(8), 1 + rng.Intn(8)}
			}
			for i, w := range workers {
				opts := tc.opts
				opts.Workers = w
				orNode, orOut := equivRun(t, tc.name, src, "oracle", opts)
				// The VM's first run sizes its slices itself; the others are
				// forced to lengths that put every multi-instance kernel-age
				// through its slice body, if it has one.
				if g := []int{0, 7, 64}[i%3]; g > 0 {
					opts.Granularity = map[string]int{}
					for _, kd := range file.Kernels {
						opts.Granularity[kd.Name] = g
					}
				}
				vmNode, vmOut := equivRun(t, tc.name, src, "vm", opts)
				// The interleaving of instances is scheduler-dependent — even
				// with one worker, which may run the next age's source instance
				// before or after the analyzer readies this age's consumers —
				// the set of statements they print is not.
				sort.Strings(vmOut)
				sort.Strings(orOut)
				if fmt.Sprintf("%q", vmOut) != fmt.Sprintf("%q", orOut) {
					t.Fatalf("workers=%d output diverged:\nvm:     %q\noracle: %q", w, vmOut, orOut)
				}
				if tc.wantOut != nil && fmt.Sprintf("%q", vmOut) != fmt.Sprintf("%q", tc.wantOut) {
					t.Fatalf("workers=%d output:\ngot:  %q\nwant: %q", w, vmOut, tc.wantOut)
				}
				for _, fd := range fields {
					for age := 0; age <= tc.ages; age++ {
						vs, err := vmNode.Snapshot(fd.Name, age)
						if err != nil {
							t.Fatal(err)
						}
						ors, err := orNode.Snapshot(fd.Name, age)
						if err != nil {
							t.Fatal(err)
						}
						if !vs.Equal(ors) {
							t.Fatalf("workers=%d field %s(%d) diverged:\nvm:     %v\noracle: %v", w, fd.Name, age, vs, ors)
						}
						if want, ok := tc.want[fmt.Sprintf("%s(%d)", fd.Name, age)]; ok && vs.String() != want {
							t.Fatalf("workers=%d field %s(%d) = %v, want %s", w, fd.Name, age, vs, want)
						}
					}
				}
			}
		})
	}
}

// TestBytecodeRuntimeErrorParity runs programs whose kernels fail at run
// time — with an error or a panic — and checks that the VM and the oracle
// surface the identical error string and leave the identical Ctx behind: the locals
// assigned before the failure are bound to the values they had, the others
// are not.
func TestBytecodeRuntimeErrorParity(t *testing.T) {
	cases := map[string]string{
		"int-div-zero": `int32[] out;
k:
  local int32[] r;
  %{
    int a = 7; int b = 0;
    put(r, a / b, 0);
  %}
  store out(0) = r;`,
		"int-mod-zero": `int32[] out;
k:
  local int32[] r;
  %{
    int a = 7; int b = 0;
    put(r, a % b, 0);
  %}
  store out(0) = r;`,
		"float-div-zero": `int32[] out;
k:
  local int32[] r;
  %{
    float a = 7.5; float b = 0.0;
    put(r, a / b, 0);
  %}
  store out(0) = r;`,
		"float-mod": `int32[] out;
k:
  local int32[] r;
  %{
    float a = 7.5; float b = 2.0;
    put(r, a % b, 0);
  %}
  store out(0) = r;`,
		"string-sub": `int32[] out;
k:
  local int32[] r;
  %{
    string s = "ab";
    s = s - "b";
    put(r, 1, 0);
  %}
  store out(0) = r;`,
		"sqrt-negative": `int32[] out;
k:
  local int32[] r;
  %{
    float a = 0.0 - 4.0;
    put(r, sqrt(a), 0);
  %}
  store out(0) = r;`,
		// The failure comes in the fourth iteration, after m, acc and part of
		// r were assigned; never is assigned after it.
		"error-mid-loop": `int32[] out;
k:
  local int32[] r;
  local int32 m;
  local float64 acc;
  local int32 never;
  %{
    for (int i = 0; i < 6; ++i) {
      m = i * 2;
      acc += 1.5;
      put(r, 12 / (3 - i), i);
    }
    never = 1;
  %}
  store out(0) = r;`,
		"panic-mid-loop": `int32[] out;
k:
  local int32[] r;
  local int32 m;
  local float64 acc;
  local int32 never;
  %{
    put(r, 1, 0); put(r, 2, 1); put(r, 3, 2);
    for (int i = 0; i < 6; ++i) {
      acc = acc + get(r, i);
      m = i;
    }
    never = 1;
  %}
  store out(0) = r;`,
		"const-index-out-of-range": `int32[] out;
k:
  local int32[] r;
  local float64[][] g;
  local int32 m;
  %{
    put(r, 1, 0);
    put(g, 1.5, 2, 1);
    m = get(g, 2, 1);
    m = get(g, 1, 2);
  %}
  store out(0) = r;`,
		"rank-mismatch-get": `int32[] out;
k:
  local int32[] r;
  local int32[][] g;
  local int32 m;
  %{
    put(g, 4, 0, 0);
    m = 1;
    m = get(g, 0);
  %}
  store out(0) = r;`,
		"rank-mismatch-put": `int32[] out;
k:
  local int32[] r;
  local int32[][] g;
  local int32 m;
  %{
    put(g, 4, 0, 0);
    m = 1;
    put(g, 5, 0);
    m = 2;
  %}
  store out(0) = r;`,
		"negative-index-get": `int32[] out;
k:
  local int32[] r;
  local int32 m;
  %{
    put(r, 4, 0);
    int n = 0 - 1;
    m = 1;
    m = get(r, n);
  %}
  store out(0) = r;`,
		"negative-index-put": `int32[] out;
k:
  local int32[] r;
  local float64[][] g;
  %{
    put(g, 4, 0, 0);
    int n = 0 - 1;
    put(g, 5, 0, n);
  %}
  store out(0) = r;`,
		// The guard is false, so the right operand runs and panics.
		"short-circuit-runs-right": `int32[] out;
k:
  local int32[] r;
  local int32 m;
  %{
    put(r, 4, 0);
    for (int i = 0; i < 3; ++i) {
      m = i;
      if (i < 0 || get(r, i) == 4) { m = m + 10; }
    }
  %}
  store out(0) = r;`,
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			errFor := func(engine string) string {
				_, err := runtime.Run(compileFor(t, name, src, engine), runtime.Options{Workers: 1})
				if err == nil {
					t.Fatalf("%s: expected runtime error", engine)
				}
				return err.Error()
			}
			if vm, or := errFor("vm"), errFor("oracle"); vm != or {
				t.Errorf("error surfaces diverged:\nvm:     %s\noracle: %s", vm, or)
			}
			if vm, or := bodyState(t, name, src, "vm"), bodyState(t, name, src, "oracle"); vm != or {
				t.Errorf("state after the failure diverged:\nvm:\n%s\noracle:\n%s", vm, or)
			}
		})
	}
}

// TestArithEdgeCases pins the boxed scalar arithmetic the VM's V ops and the
// oracle share: two's-complement wraparound, zero-divide errors,
// mixed-kind promotion and the string operators.
func TestArithEdgeCases(t *testing.T) {
	i64 := field.Int64Val
	f64 := field.Float64Val
	str := field.StringVal
	cases := []struct {
		name    string
		op      string
		l, r    field.Value
		want    field.Value
		wantErr string
	}{
		{name: "int-overflow-wraps", op: "+", l: i64(math.MaxInt64), r: i64(1), want: i64(math.MinInt64)},
		{name: "int-underflow-wraps", op: "-", l: i64(math.MinInt64), r: i64(1), want: i64(math.MaxInt64)},
		{name: "int-mul-wraps", op: "*", l: i64(math.MaxInt64), r: i64(2), want: i64(-2)},
		{name: "int-div-zero", op: "/", l: i64(1), r: i64(0), wantErr: "division by zero"},
		{name: "int-mod-zero", op: "%", l: i64(1), r: i64(0), wantErr: "modulo by zero"},
		{name: "int-div-trunc", op: "/", l: i64(-7), r: i64(2), want: i64(-3)},
		{name: "int-mod-sign", op: "%", l: i64(-7), r: i64(2), want: i64(-1)},
		{name: "float-promote-left", op: "+", l: f64(1.5), r: i64(2), want: f64(3.5)},
		{name: "float-promote-right", op: "*", l: i64(2), r: f64(0.5), want: f64(1)},
		{name: "float-div-zero", op: "/", l: f64(1), r: f64(0), wantErr: "division by zero"},
		{name: "float-neg-zero-div", op: "/", l: f64(1), r: f64(math.Copysign(0, -1)), wantErr: "division by zero"},
		{name: "float-mod-undefined", op: "%", l: f64(7), r: f64(2), wantErr: "% is not defined on floats"},
		{name: "string-concat", op: "+", l: str("a"), r: str("b"), want: str("ab")},
		{name: "string-concat-int", op: "+", l: str("n="), r: i64(3), want: str("n=3")},
		{name: "string-eq", op: "==", l: str("x"), r: str("x"), want: field.BoolVal(true)},
		{name: "string-ne", op: "!=", l: str("x"), r: str("y"), want: field.BoolVal(true)},
		{name: "string-sub-error", op: "-", l: str("a"), r: str("b"), wantErr: `operator "-" not defined on strings`},
		{name: "bool-promotes-int", op: "+", l: field.BoolVal(true), r: i64(1), want: i64(2)},
	}
	for _, tc := range cases {
		got, err := arith(Token{}, tc.op, tc.l, tc.r)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if got.Kind() != tc.want.Kind() || !got.Equal(tc.want) {
			t.Errorf("%s: %v %s %v = %v (%v), want %v (%v)",
				tc.name, tc.l, tc.op, tc.r, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}

// TestCompareTotalOrder pins the comparison helpers the VM mirrors with
// branch-form instructions: NaN compares equal to everything (a non-IEEE
// total order) and the int compare is exact.
func TestCompareTotalOrder(t *testing.T) {
	nan := math.NaN()
	if c := compareFloat(nan, 5); c != 0 {
		t.Errorf("compareFloat(NaN, 5) = %d, want 0", c)
	}
	if c := compareFloat(5, nan); c != 0 {
		t.Errorf("compareFloat(5, NaN) = %d, want 0", c)
	}
	if c := compareFloat(nan, nan); c != 0 {
		t.Errorf("compareFloat(NaN, NaN) = %d, want 0", c)
	}
	if c := compareFloat(math.Copysign(0, -1), 0); c != 0 {
		t.Errorf("compareFloat(-0, +0) = %d, want 0", c)
	}
	if c := compareFloat(math.Inf(-1), math.Inf(1)); c != -1 {
		t.Errorf("compareFloat(-Inf, +Inf) = %d, want -1", c)
	}
	if c := compareInt(math.MinInt64, math.MaxInt64); c != -1 {
		t.Errorf("compareInt(min, max) = %d, want -1", c)
	}
	if c := compareInt(-1, -1); c != 0 {
		t.Errorf("compareInt(-1, -1) = %d, want 0", c)
	}
	// The equivalence the VM relies on: a NaN operand must take the "=="
	// branch through arith exactly like compareFloat says.
	v, err := arith(Token{}, "==", field.Float64Val(nan), field.Float64Val(3)) //nolint:staticcheck
	if err != nil || !v.Bool() {
		t.Errorf("arith(NaN == 3) = %v, %v; want true (total order)", v, err)
	}
	v, err = arith(Token{}, "<", field.Float64Val(nan), field.Float64Val(3))
	if err != nil || v.Bool() {
		t.Errorf("arith(NaN < 3) = %v, %v; want false", v, err)
	}
}
