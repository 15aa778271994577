package lang

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/runtime"
)

// Property: the lexer and parser never panic — arbitrary byte soup either
// parses or returns a positioned error.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked on %q: %v", src, r)
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: random token-shaped fragments inside a code block never panic
// the compiler either.
func TestQuickCompilerNeverPanics(t *testing.T) {
	fragments := []string{
		"int i = 0;", "i += 1;", "for (;;) { break; }", "put(arr, 1, 0);",
		"cout << 1 << endl;", "if (i < 3) { i = 4; } else { i = 5; }",
		"while (i > 0) { i--; }", "x = y;", "int i = get(arr, 0);",
		"stop;", "continue;", "float f = sqrt(2.0);", "z(1,2,3);",
	}
	f := func(picks []uint8) bool {
		var body strings.Builder
		for _, p := range picks {
			body.WriteString(fragments[int(p)%len(fragments)])
			body.WriteByte('\n')
		}
		src := "int32[] f age;\nk:\n local int32[] arr;\n %{\n" + body.String() + "%}\n"
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("compiler panicked on:\n%s\n%v", src, r)
			}
		}()
		_, err := Compile("fuzz", src)
		internalError(t, err)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: programs that do compile also run without panicking (errors are
// fine) under a bounded runtime.
func TestFragmentsRunSafely(t *testing.T) {
	srcs := []string{
		// division guarded by zero -> runtime error, not panic
		"int32[] f;\nk:\n local int32[] r;\n %{ int a = 1; int b = 0; put(r, a, 0); if (b != 0) { put(r, a/b, 1); } %}\n store f(0) = r;",
		// deep loop nesting
		"int32[] f;\nk:\n local int32[] r;\n %{ int s = 0; for (int i=0;i<3;++i) { for (int j=0;j<3;++j) { for (int q=0;q<3;++q) { s += 1; } } } put(r, s, 0); %}\n store f(0) = r;",
		// string concatenation in expressions
		"int32[] f;\nk:\n local int32[] r;\n %{ cout << \"a\" + \"b\" << endl; put(r, 1, 0); %}\n store f(0) = r;",
	}
	for i, src := range srcs {
		prog, err := Compile("frag", src)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if _, err := runtime.Run(prog, runtime.Options{Workers: 1, MaxAge: 2}); err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
	}
}

// ---- differential fuzz: VM vs oracle ---------------------------------------

// exprGen builds random, always-parseable kernel-body expressions over a
// fixed set of block variables (i0.., f0.., s0), kernel locals (the scalars m
// and acc, which the bytecode keeps in registers and writes back, and the
// arrays r and g, which it reads through views) and loop counters. Generated
// programs may fail at run time (division by zero, sqrt of a negative, a get
// out of range) — that is part of the property: the VM and the oracle must
// fail identically.
type exprGen struct {
	rng    *rand.Rand
	whiles int // while-loop counters declared so far, for unique names
	// lanes restricts the generator to what a lane-eligible body may hold
	// (genLaneProgram): no put, cout, string or float min/max/floor/pow, and
	// divisors that are mostly nonzero, so that most programs run their
	// slices in lockstep to the end instead of declining.
	lanes bool
	// shared counts the shared loads genLaneProgram has declared variables
	// for, for unique names.
	shared int
}

// divisor wraps e so that it is never zero, most of the time in lanes mode.
func (g *exprGen) divisor(op, e string) string {
	if g.lanes && (op == "/" || op == "%") && g.rng.Intn(8) != 0 {
		return "(abs(" + e + ") + 1)"
	}
	return e
}

func (g *exprGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

var (
	genIntVars   = []string{"i0", "i1", "i2", "m"}
	genFloatVars = []string{"f0", "f1", "acc"}
	genStrVars   = []string{"s0"}
	genIntOps    = []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	genFloatOps  = []string{"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="}
)

func (g *exprGen) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return fmt.Sprint(g.rng.Intn(21) - 10)
		}
		return g.pick(genIntVars)
	}
	switch g.rng.Intn(9) {
	case 0:
		// 0-x rather than -x: a negative literal operand would lex as "--".
		return "(0 - " + g.intExpr(depth-1) + ")"
	case 1:
		return "(!" + g.intExpr(depth-1) + ")"
	case 2, 3:
		// min and max of mixed kinds go through a boxed value, which lanes
		// cannot hold: there, 0+x gives both operands the same kind.
		zero := ""
		if g.lanes {
			zero = "0 + "
		}
		return g.pick([]string{"min", "max"}) + "(" + zero + g.intExpr(depth-1) + ", " + zero + g.intExpr(depth-1) + ")"
	case 4:
		return "abs(" + g.intExpr(depth-1) + ")"
	case 5:
		if g.lanes && g.rng.Intn(2) == 0 {
			return "get(r, abs(" + g.intExpr(depth-1) + ") % 8)" // a gather: the coordinate varies by lane
		}
		return "get(r, " + fmt.Sprint(g.rng.Intn(8)) + ")"
	case 6:
		// A condition materialized as a value.
		return g.condExpr(depth - 1)
	default:
		op := g.pick(genIntOps)
		return "(" + g.intExpr(depth-1) + " " + op + " " + g.divisor(op, g.intExpr(depth-1)) + ")"
	}
}

// condExpr builds a condition out of comparisons, !, && and ||, whose right
// operands are often array reads that only a correct short-circuit skips.
func (g *exprGen) condExpr(depth int) string {
	cmp := func() string {
		if g.rng.Intn(2) == 0 {
			return "(" + g.intExpr(depth-1) + " " + g.pick(genFloatOps) + " " + g.intExpr(depth-1) + ")"
		}
		return "(" + g.floatExpr(depth-1) + " " + g.pick(genFloatOps) + " " + g.floatExpr(depth-1) + ")"
	}
	if depth <= 0 {
		return cmp()
	}
	switch g.rng.Intn(4) {
	case 0:
		return "(!" + g.condExpr(depth-1) + ")"
	case 1:
		return "(" + g.condExpr(depth-1) + " && " + g.condExpr(depth-1) + ")"
	case 2:
		return "(" + g.condExpr(depth-1) + " || " + g.condExpr(depth-1) + ")"
	default:
		return cmp()
	}
}

func (g *exprGen) floatExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("%d.%d", g.rng.Intn(9), g.rng.Intn(100))
		}
		return g.pick(genFloatVars)
	}
	c := g.rng.Intn(8)
	if g.lanes && c >= 1 && c <= 3 {
		c = 7 // float min, max and floor are calls, which lanes do not make
	}
	switch c {
	case 0:
		return "sqrt(abs(" + g.floatExpr(depth-1) + "))"
	case 1:
		return "min(" + g.floatExpr(depth-1) + ", " + g.floatExpr(depth-1) + ")"
	case 2:
		return "max(" + g.floatExpr(depth-1) + ", " + g.intExpr(depth-1) + ")"
	case 3:
		return "floor(" + g.floatExpr(depth-1) + ")"
	case 4:
		// Mixed-kind promotion: int op float.
		op := g.pick(genFloatOps)
		return "(" + g.intExpr(depth-1) + " " + op + " " + g.divisor(op, g.floatExpr(depth-1)) + ")"
	case 5:
		// Rank-2 read with a constant trailing coordinate; g is 2x2 unless a
		// put grew it, so some of these are out of range.
		return fmt.Sprintf("get(g, %s, %d)", g.pick([]string{"0", "1", "2", "abs(i0) % 2"}), g.rng.Intn(3))
	default:
		op := g.pick(genFloatOps)
		return "(" + g.floatExpr(depth-1) + " " + op + " " + g.divisor(op, g.floatExpr(depth-1)) + ")"
	}
}

func (g *exprGen) strExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		if g.rng.Intn(2) == 0 {
			return `"` + string(rune('a'+g.rng.Intn(4))) + `"`
		}
		return g.pick(genStrVars)
	}
	if g.rng.Intn(2) == 0 {
		return "(" + g.strExpr(depth-1) + " + " + g.intExpr(depth-1) + ")"
	}
	return "(" + g.strExpr(depth-1) + " + " + g.strExpr(depth-1) + ")"
}

// stmt emits one random statement; loops are always bounded so every
// generated program terminates.
func (g *exprGen) stmt(b *strings.Builder, depth int) {
	c := g.rng.Intn(14)
	if g.lanes {
		if g.laneStmt(b, depth, c) {
			return
		}
	}
	switch c {
	case 0:
		fmt.Fprintf(b, "%s = %s;\n", g.pick(genIntVars), g.intExpr(2))
	case 1:
		fmt.Fprintf(b, "%s %s= %s;\n", g.pick(genIntVars), g.pick([]string{"+", "-", "*"}), g.intExpr(2))
	case 2:
		fmt.Fprintf(b, "%s = %s;\n", g.pick(genFloatVars), g.floatExpr(2))
	case 3:
		fmt.Fprintf(b, "%s = %s;\n", g.pick(genStrVars), g.strExpr(2))
	case 4:
		fmt.Fprintf(b, "put(r, %s, %d);\n", g.intExpr(2), g.rng.Intn(8))
	case 5:
		fmt.Fprintf(b, "cout << %s << \" \" << %s << endl;\n", g.intExpr(1), g.strExpr(1))
	case 10:
		fmt.Fprintf(b, "put(g, %s, %d, %d);\n", g.floatExpr(2), g.rng.Intn(3), g.rng.Intn(3))
	case 11:
		fmt.Fprintf(b, "%s %s= %s;\n", g.pick([]string{"acc", "f0"}), g.pick([]string{"+", "-", "*"}), g.floatExpr(2))
	case 12:
		if depth > 0 {
			fmt.Fprintf(b, "if (%s) {\n", g.condExpr(2))
			g.stmt(b, depth-1)
			b.WriteString("}\n")
		} else {
			fmt.Fprintf(b, "m = %s;\n", g.intExpr(2))
		}
	case 13:
		if depth > 0 {
			// Bounded by its own counter whatever the condition does.
			g.whiles++
			lv := fmt.Sprintf("w%d", g.whiles)
			fmt.Fprintf(b, "int %s = 0;\nwhile (%s < %d && %s) {\n%s += 1;\n", lv, lv, 1+g.rng.Intn(4), g.condExpr(1), lv)
			g.stmt(b, depth-1)
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(b, "if (%s) { continue; }\n", g.condExpr(1))
			}
			b.WriteString("}\n")
		} else {
			fmt.Fprintf(b, "acc = %s;\n", g.floatExpr(2))
		}
	case 6:
		if depth > 0 {
			fmt.Fprintf(b, "if (%s) {\n", g.intExpr(2))
			g.stmt(b, depth-1)
			b.WriteString("} else {\n")
			g.stmt(b, depth-1)
			b.WriteString("}\n")
		} else {
			fmt.Fprintf(b, "%s++;\n", g.pick(genIntVars))
		}
	case 7:
		if depth > 0 {
			lv := fmt.Sprintf("l%d", g.rng.Intn(1000))
			fmt.Fprintf(b, "for (int %s = 0; %s < %d; ++%s) {\n", lv, lv, 1+g.rng.Intn(4), lv)
			g.stmt(b, depth-1)
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(b, "if (%s == 1) { continue; }\n", lv)
			}
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(b, "if (%s > 2) { break; }\n", lv)
			}
			b.WriteString("}\n")
		} else {
			fmt.Fprintf(b, "%s--;\n", g.pick(genIntVars))
		}
	case 8:
		fmt.Fprintf(b, "%s = pow(%s, 2.0);\n", g.pick(genFloatVars), g.floatExpr(1))
	default:
		fmt.Fprintf(b, "put(r, %s, %d);\n", g.floatExpr(2), g.rng.Intn(8))
	}
}

// laneStmt emits, in place of the statements lanes cannot run (put, cout,
// strings, pow), ones that make lanes part ways: conditions on the index and
// on fetched values, break and continue under them, and divergent ifs nested
// inside a loop every lane runs. It reports false for the cases stmt keeps.
func (g *exprGen) laneStmt(b *strings.Builder, depth, c int) bool {
	switch c {
	case 3:
		// A test of the index itself against a uniform value is decided by
		// index (opLaneIdx, indexSplit); one of its copy i2 is not.
		cond := fmt.Sprintf("i2 %% 3 == %d", g.rng.Intn(3))
		if g.rng.Intn(2) == 0 {
			cond = fmt.Sprintf("x %s %d", g.pick([]string{"==", "!="}), g.rng.Intn(8))
		}
		fmt.Fprintf(b, "if (%s) {\n", cond)
		g.stmt(b, depth-1)
		b.WriteString("}\n")
	case 4:
		fmt.Fprintf(b, "m = %s;\n", g.intExpr(2))
	case 5:
		lv := fmt.Sprintf("l%d", g.rng.Intn(1000))
		fmt.Fprintf(b, "for (int %s = 0; %s < 5; ++%s) {\n", lv, lv, lv)
		switch g.rng.Intn(3) {
		case 0:
			fmt.Fprintf(b, "if (%s == i2 %% 3) { continue; }\n", lv)
		case 1:
			fmt.Fprintf(b, "if (x == %s) { continue; }\n", lv) // refine's membership test
		}
		g.stmt(b, depth-1)
		fmt.Fprintf(b, "if (%s >= abs(i0) %% 4) { break; }\n}\n", lv)
	case 8:
		fmt.Fprintf(b, "%s = sqrt(abs(%s));\n", g.pick(genFloatVars), g.floatExpr(1))
	case 10:
		lv := fmt.Sprintf("l%d", g.rng.Intn(1000))
		fmt.Fprintf(b, "for (int %s = 0; %s < 3; ++%s) {\nif (i0 > %s) {\nif (i2 %% 2 == 0) {\n", lv, lv, lv, lv)
		g.stmt(b, depth-1)
		b.WriteString("} else {\n")
		g.stmt(b, depth-1)
		b.WriteString("}\n}\n}\n")
	case 9:
		fmt.Fprintf(b, "acc += %s;\n", g.floatExpr(2))
	default:
		return false
	}
	return true
}

// laneProgramN is the extent of the fields genLaneProgram's kernel runs over.
const laneProgramN = 70

// genLaneProgram builds a program whose kernel k has one instance per element
// of two fetched fields and a body made of what lanes can run, so that the
// instances of a slice differ in their inputs and in the paths they take.
func (g *exprGen) genLaneProgram() string {
	g.lanes = true
	defer func() { g.lanes = false }()
	var b strings.Builder
	fmt.Fprintf(&b, `int32[] in;
float64[] fin;
int32[] tab;
float64[][] grid;
int32[] mout;
float64[] accout;
init:
  local int32[] a;
  local float64[] fa;
  local int32[] t;
  local float64[][] gr;
  %%{
    for (int q = 0; q < %d; ++q) { put(a, q * 5 %% 13 - 4, q); put(fa, (q * 7 %% 11 - 3) * 0.5, q); }
    for (int q = 0; q < 8; ++q) { put(t, q - 3, q); }
    for (int q = 0; q < 3; ++q) { for (int p = 0; p < 3; ++p) { put(gr, q * 0.5 + p, q, p); } }
  %%}
  store in(0) = a;
  store fin(0) = fa;
  store tab(0) = t;
  store grid(0) = gr;
k:
  index x;
  local int32 v;
  local float64 fv;
  local int32[] r;
  local float64[][] g;
  local int32 m;
  local float64 acc;
  fetch v = in(0)[x];
  fetch fv = fin(0)[x];
  fetch r = tab(0);
  fetch g = grid(0);
  %%{
`, laneProgramN)
	b.WriteString("int i0 = v; int i1 = -3; int i2 = x;\n")
	b.WriteString("float f0 = fv; float f1 = 2.25;\n")
	n := 3 + g.rng.Intn(8)
	shared := g.rng.Intn(2*n + 1) // half the programs: before statement shared
	for j := 0; j < n; j++ {
		if j == shared {
			g.sharedLoad(&b)
		}
		g.stmt(&b, 2)
	}
	// m stays unbound, and its store suppressed, in a third of the lanes
	// unless a statement above assigned it.
	b.WriteString("if (x % 3 != 1) { m = i0 + i1 + i2; }\n")
	b.WriteString("acc = acc + f0 + get(g, 0, 0);\n")
	b.WriteString("%}\n  store mout(0)[x] = m;\n  store accout(0)[x] = acc;\n")
	return b.String()
}

// sharedLoad writes a statement that reads a shared array at a constant
// index into a temporary and one that reuses the temporary's register, as a
// variable, for a value that differs by lane: the uniform load gets a
// register of its own in the lane plan (renameUniform). Both values reach
// the kernel's stores. The third form loads into the local acc and then
// divides it by f0, which is zero in some lanes: a scalar body failing there
// must leave acc as the program assigned it.
func (g *exprGen) sharedLoad(b *strings.Builder) {
	u, w := fmt.Sprint("u", g.shared), fmt.Sprint("w", g.shared)
	g.shared++
	switch g.rng.Intn(3) {
	case 0:
		fmt.Fprintf(b, "float %s = f0 - get(g, %d, %d);\nfloat %s = f0 * %s;\nf0 = f0 + %s * 0.25;\n", u, g.rng.Intn(3), g.rng.Intn(3), w, u, w)
	case 1:
		fmt.Fprintf(b, "int %s = i0 + get(r, %d);\nint %s = i2 * %s;\ni0 = i0 + %s %% 7;\n", u, g.rng.Intn(8), w, u, w)
	default:
		fmt.Fprintf(b, "acc = get(g, %d, %d);\nacc = acc / f0;\n", g.rng.Intn(2), g.rng.Intn(2))
	}
}

// genProgram builds a complete run-once program whose result surface is the
// field f plus whatever cout produced.
func (g *exprGen) genProgram() string {
	kinds := []string{"int32", "float64"}
	kind := kinds[g.rng.Intn(len(kinds))]
	var b strings.Builder
	fmt.Fprintf(&b, "%s[] f;\nk:\n  local %s[] r;\n  local float64[][] g;\n  local int32 m;\n  local float64 acc;\n  %%{\n", kind, kind)
	b.WriteString("int i0 = 1; int i1 = -3; int i2 = 7;\n")
	b.WriteString("float f0 = 0.5; float f1 = 2.25;\n")
	b.WriteString("string s0 = \"x\";\n")
	b.WriteString("for (int q = 0; q < 8; ++q) { put(r, q - 3, q); }\n")
	b.WriteString("put(g, 1.5, 0, 0); put(g, 0.25, 1, 1);\n")
	n := 3 + g.rng.Intn(10)
	for j := 0; j < n; j++ {
		g.stmt(&b, 2)
	}
	b.WriteString("put(r, i0 + i1 + i2, 0);\n")
	b.WriteString("put(r, m, 8);\nput(r, acc + get(g, 0, 0), 9);\n")
	b.WriteString("%}\n  store f(0) = r;\n")
	return b.String()
}

// TestDifferentialFuzzOracle generates random programs and requires the VM
// and the oracle to agree exactly: same runtime error (or none), same cout
// bytes, and bit-identical field contents.
func TestDifferentialFuzzOracle(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	g := &exprGen{rng: rand.New(rand.NewSource(0x2909))}
	for i := 0; i < iters; i++ {
		src := g.genProgram()
		run := func(engine string) (string, string, string) {
			var out strings.Builder
			node, err := runtime.NewNode(compileFor(t, "fuzz", src, engine), runtime.Options{Workers: 1, Output: &out})
			if err != nil {
				t.Fatalf("iter %d: node: %v", i, err)
			}
			_, rerr := node.Run()
			errStr := ""
			if rerr != nil {
				errStr = rerr.Error()
			}
			snap := ""
			if rerr == nil {
				s, serr := node.Snapshot("f", 0)
				if serr != nil {
					t.Fatalf("iter %d: snapshot: %v", i, serr)
				}
				snap = fmt.Sprint(s)
			}
			return errStr, out.String(), snap
		}
		vmErr, vmOut, vmSnap := run("vm")
		orErr, orOut, orSnap := run("oracle")
		if vmErr != orErr {
			t.Fatalf("iter %d: error surfaces diverged\nvm:     %q\noracle: %q\nprogram:\n%s", i, vmErr, orErr, src)
		}
		if vmOut != orOut {
			t.Fatalf("iter %d: cout diverged\nvm:     %q\noracle: %q\nprogram:\n%s", i, vmOut, orOut, src)
		}
		if vmSnap != orSnap {
			t.Fatalf("iter %d: field f diverged\nvm:     %s\noracle: %s\nprogram:\n%s", i, vmSnap, orSnap, src)
		}
		// And what the body leaves in its Ctx, failed or not: which locals
		// are bound, and to what.
		if vm, or := bodyState(t, "fuzz", src, "vm"), bodyState(t, "fuzz", src, "oracle"); vm != or {
			t.Fatalf("iter %d: state after the body diverged\nvm:\n%s\noracle:\n%s\nprogram:\n%s", i, vm, or, src)
		}
	}

	// Multi-instance programs: the VM with its slices forced to 7 and to 64
	// instances, so that they run in lockstep, against the oracle running
	// one instance at a time; and every kernel's slice body on its own.
	var lanes laneStats
	for i := 0; i < iters; i++ {
		src := g.genLaneProgram()
		run := func(engine string, gran int) string {
			opts := runtime.Options{Workers: 1, Granularity: map[string]int{"k": gran}}
			node, err := runtime.NewNode(compileFor(t, "fuzz", src, engine), opts)
			if err != nil {
				t.Fatalf("lanes iter %d: node: %v\nprogram:\n%s", i, err, src)
			}
			if _, err := node.Run(); err != nil {
				// Which failing instance runs first is the scheduler's
				// business; checkLanes below compares the failures themselves.
				return "failed"
			}
			m, _ := node.Snapshot("mout", 0)
			acc, _ := node.Snapshot("accout", 0)
			return fmt.Sprint(m, acc)
		}
		or := run("oracle", 1)
		for _, gran := range []int{7, 64} {
			if vm := run("vm", gran); vm != or {
				t.Fatalf("lanes iter %d: slices of %d diverged\nvm:     %s\noracle: %s\nprogram:\n%s", i, gran, vm, or, src)
			}
		}
		file, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		checkLanes(t, file, &lanes)
	}
	// The generator has to stay inside what lanes accept, most of what it
	// writes has to get through without a lane faulting, and a tenth of its
	// programs have to decide a branch by index and a tenth give a uniform
	// load a register of its own.
	t.Logf("lane programs: %+v", lanes)
	if lanes.eligible < iters*9/10 || lanes.completed < lanes.runs/2 || lanes.byIndex < iters/10 || lanes.renamed < iters/10 {
		t.Errorf("lane programs missed the lockstep path: %+v", lanes)
	}
}

// ---- native fuzz targets ---------------------------------------------------

func addTestdataSeeds(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.p2g"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata seeds: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
}

// internalError fails the fuzz target on a crash inside the lowering, which
// lowerKernelBody recovers and returns as an error.
func internalError(t *testing.T, err error) {
	t.Helper()
	if err != nil && strings.HasPrefix(err.Error(), internalErrPrefix) {
		t.Fatal(err)
	}
}

// FuzzParse: the lexer, the parser, the compiler and the disassembler take
// any input without panicking (the fuzzing engine reports an input that never
// returns), and nothing crashes the lowering.
func FuzzParse(f *testing.F) {
	addTestdataSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		_, err = CompileFile("fuzz", file)
		internalError(t, err)
		_, _ = Disassemble("fuzz", src)
	})
}

// Limits boundedFile puts on a fuzzed program so that running it terminates
// and stays small whatever the fuzzer wrote.
const (
	fuzzFuel   = 300 // loop iterations per kernel instance
	fuzzExtent = 8   // every put coordinate is taken modulo this
	fuzzMaxAge = 2
)

// boundedFile rewrites a parsed program in place into one that is safe to
// run, and reports false for programs it cannot make safe or deterministic.
// Every loop body starts by burning one unit of a per-instance fuel variable
// and dividing by zero when it runs out — an ordinary runtime error, at the
// same point in the VM and the oracle; every put coordinate is reduced modulo
// fuzzExtent, so arrays and the fields stored from them stay small. Programs
// with string variables (a string doubled in straight-line code needs no loop
// to exhaust memory; an `any` holding one adds as an integer), timers or the clock (not deterministic), arrays
// of rank above three or large literal field coordinates are refused.
func boundedFile(file *File) bool {
	okKind := func(k field.Kind, rank int) bool {
		return k != field.String && rank <= 3
	}
	okRef := func(r FieldRef) bool {
		if r.Age.Offset < 0 || r.Age.Offset > fuzzMaxAge {
			return false
		}
		for _, ir := range r.Index {
			if ir.Lit < 0 || ir.Lit > fuzzExtent || ir.Off < -fuzzExtent || ir.Off > fuzzExtent {
				return false
			}
		}
		return true
	}
	if len(file.Timers) > 0 {
		return false
	}
	for _, fd := range file.Fields {
		if !okKind(fd.Kind, fd.Rank) {
			return false
		}
	}
	ok := true
	var expr func(x Expr) Expr
	expr = func(x Expr) Expr {
		switch ex := x.(type) {
		case BinExpr:
			ex.L, ex.R = expr(ex.L), expr(ex.R)
			return ex
		case UnExpr:
			ex.X = expr(ex.X)
			return ex
		case CallExpr:
			if ex.Name == "now" || ex.Name == "expired" || ex.Name == "reset" {
				ok = false
			}
			args := make([]Expr, len(ex.Args))
			for i, a := range ex.Args {
				args[i] = expr(a)
				if ex.Name == "put" && i >= 2 {
					args[i] = BinExpr{Tok: ex.Tok, Op: "%", L: args[i], R: IntLit{Tok: ex.Tok, V: fuzzExtent}}
				}
			}
			ex.Args = args
			return ex
		}
		return x
	}
	var stmts func(ss []Stmt) []Stmt
	block := func(b Block) Block {
		b.Stmts = stmts(b.Stmts)
		return b
	}
	loopBody := func(b Block) Block {
		b = block(b)
		fuel := Ident{Tok: b.Tok, Name: "fuel__"}
		burn := []Stmt{
			AssignStmt{Tok: b.Tok, Name: fuel.Name, Op: "-=", Val: IntLit{Tok: b.Tok, V: 1}},
			IfStmt{Tok: b.Tok, Cond: BinExpr{Tok: b.Tok, Op: "<", L: fuel, R: IntLit{Tok: b.Tok}},
				Then: Block{Tok: b.Tok, Stmts: []Stmt{
					AssignStmt{Tok: b.Tok, Name: fuel.Name, Op: "=", Val: BinExpr{Tok: b.Tok, Op: "/", L: IntLit{Tok: b.Tok, V: 1}, R: IntLit{Tok: b.Tok}}},
				}}},
		}
		b.Stmts = append(burn, b.Stmts...)
		return b
	}
	var stmt func(s Stmt) Stmt
	stmt = func(s Stmt) Stmt {
		switch st := s.(type) {
		case DeclStmt:
			if !okKind(st.Kind, 0) {
				ok = false
			}
			if st.Init != nil {
				st.Init = expr(st.Init)
			}
			return st
		case AssignStmt:
			st.Val = expr(st.Val)
			return st
		case IfStmt:
			st.Cond, st.Then = expr(st.Cond), block(st.Then)
			if st.Else != nil {
				els := block(*st.Else)
				st.Else = &els
			}
			return st
		case ForStmt:
			if st.Init != nil {
				st.Init = stmt(st.Init)
			}
			if st.Cond != nil {
				st.Cond = expr(st.Cond)
			}
			if st.Post != nil {
				st.Post = stmt(st.Post)
			}
			st.Body = loopBody(st.Body)
			return st
		case WhileStmt:
			st.Cond, st.Body = expr(st.Cond), loopBody(st.Body)
			return st
		case CoutStmt:
			args := make([]Expr, len(st.Args))
			for i, a := range st.Args {
				args[i] = expr(a)
			}
			st.Args = args
			return st
		case ExprStmt:
			st.X = expr(st.X)
			return st
		case Block:
			return block(st)
		}
		return s
	}
	stmts = func(ss []Stmt) []Stmt {
		out := make([]Stmt, len(ss))
		for i, s := range ss {
			out[i] = stmt(s)
		}
		return out
	}
	for i := range file.Kernels {
		kd := &file.Kernels[i]
		for _, l := range kd.Locals {
			if !okKind(l.Kind, l.Rank) {
				return false
			}
		}
		for _, fe := range kd.Fetches {
			if !okRef(fe.Ref) {
				return false
			}
		}
		for _, st := range kd.Stores {
			if !okRef(st.Ref) {
				return false
			}
		}
		for j := range kd.Blocks {
			kd.Blocks[j] = block(kd.Blocks[j])
		}
		if len(kd.Blocks) > 0 {
			b := &kd.Blocks[0]
			b.Stmts = append([]Stmt{DeclStmt{Tok: b.Tok, Kind: field.Int64, Name: "fuel__", Init: IntLit{Tok: b.Tok, V: fuzzFuel}}}, b.Stmts...)
		}
	}
	return ok
}

// The testdata seeds must get past boundedFile and still compile, or
// FuzzVMMatchesOracle would start from nothing.
func TestFuzzSeedsStayInScope(t *testing.T) {
	for _, name := range []string{"mulsum", "kmeans", "wavefront", "dctstats"} {
		file, err := Parse(readTestdata(t, name+".p2g"))
		if err != nil {
			t.Fatal(err)
		}
		if !boundedFile(file) {
			t.Errorf("%s: refused by boundedFile", name)
		} else if _, err := CompileFile(name, file); err != nil {
			t.Errorf("%s: bounded program does not compile: %v", name, err)
		}
	}
}

// renamedLocal assigns a local two uniform values, then divides it by a
// fetched value that is zero in some lanes. The lane plan gives the uniform
// values registers of their own; a failing scalar body must still leave best
// bound to 1.5, as the oracle does (checkLanes compares them lane by lane).
const renamedLocal = `float64[] in;
float64[] out;
init:
  local float64[] a;
  %{ for (int i = 0; i < 4; ++i) { put(a, 1.0 * i - 1.0, i); } %}
  store in(0) = a;
k:
  index x;
  local float64 v;
  local float64 best;
  fetch v = in(0)[x];
  %{
    best = 2.0;
    best = 1.5;
    best = best / v;
  %}
  store out(0)[x] = best;`

// FuzzVMMatchesOracle: any program the compiler accepts behaves the same on
// the VM and on the oracle, run to completion under boundedFile's limits.
// Instances of a failing program may run in either order, so for a run that
// fails only the fact is compared; kernels that fetch nothing are also run
// directly, where the error text, the output and the locals left bound must
// match exactly, and lane-eligible kernels through their slice body
// (checkLanes), which is held to the same.
func FuzzVMMatchesOracle(f *testing.F) {
	addTestdataSeeds(f)
	for _, src := range anyPrograms {
		f.Add(src)
	}
	g := &exprGen{rng: rand.New(rand.NewSource(0x1a9e5))}
	for i := 0; i < 4; i++ {
		f.Add(g.genLaneProgram())
	}
	f.Add(renamedLocal)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<13 {
			return
		}
		file, err := Parse(src)
		if err != nil || !boundedFile(file) {
			return
		}
		vmProg, err := CompileFile("fuzz", file)
		if err != nil {
			internalError(t, err)
			return
		}
		orProg, err := oracleProgram("fuzz", file)
		if err != nil {
			t.Fatalf("second compile of an accepted program: %v", err)
		}
		checkLanes(t, file, &laneStats{})
		for _, kd := range file.Kernels {
			if len(kd.Fetches) > 0 {
				continue
			}
			if vm, or := bodyStateOf(vmProg.Kernel(kd.Name)), bodyStateOf(orProg.Kernel(kd.Name)); vm != or {
				t.Fatalf("kernel %s: state after the body diverged\nvm:\n%s\noracle:\n%s", kd.Name, vm, or)
			}
		}
		type result struct {
			err    error
			out    []string
			fields []string
		}
		run := func(prog *core.Program) result {
			var out chunkWriter
			node, err := runtime.NewNode(prog, runtime.Options{Workers: 1, MaxAge: fuzzMaxAge, Output: &out})
			if err != nil {
				return result{err: err}
			}
			_, err = node.Run()
			res := result{err: err, out: out.chunks}
			sort.Strings(res.out)
			for _, fd := range prog.Fields {
				for age := 0; age <= fuzzMaxAge+1; age++ {
					snap, serr := node.Snapshot(fd.Name, age)
					res.fields = append(res.fields, fmt.Sprintf("%s(%d): %v %v", fd.Name, age, snap, serr))
				}
			}
			return res
		}
		vm, or := run(vmProg), run(orProg)
		if (vm.err == nil) != (or.err == nil) {
			t.Fatalf("one side failed\nvm:     %v\noracle: %v", vm.err, or.err)
		}
		if vm.err != nil {
			return
		}
		if fmt.Sprintf("%q", vm.out) != fmt.Sprintf("%q", or.out) {
			t.Fatalf("cout diverged\nvm:     %q\noracle: %q", vm.out, or.out)
		}
		if fmt.Sprint(vm.fields) != fmt.Sprint(or.fields) {
			t.Fatalf("fields diverged\nvm:     %v\noracle: %v", vm.fields, or.fields)
		}
	})
}
