package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

// mulSum builds the paper's figure 5 program. The print kernel emits exactly
// the sequences from §V: {10..14} {20,22,...} for age 0, and so on.
func mulSum(t testing.TB) *core.Program {
	t.Helper()
	b := core.NewBuilder("mulsum")
	b.Field("m_data", field.Int32, 1, true)
	b.Field("p_data", field.Int32, 1, true)

	b.Kernel("init").
		Local("values", field.Int32, 1).
		StoreAll("m_data", core.AgeAt(0), "values").
		Body(func(c *core.Ctx) error {
			vs := c.Array("values")
			for i := 0; i < 5; i++ {
				vs.Put(field.Int32Val(int32(i+10)), i)
			}
			return nil
		})

	b.Kernel("mul2").Age("a").Index("x").
		Local("value", field.Int32, 0).
		Fetch("value", "m_data", core.AgeVar(0), core.Idx("x")).
		Store("p_data", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "value").
		Body(func(c *core.Ctx) error {
			c.SetInt32("value", c.Int32("value")*2)
			return nil
		})

	b.Kernel("plus5").Age("a").Index("x").
		Local("value", field.Int32, 0).
		Fetch("value", "p_data", core.AgeVar(0), core.Idx("x")).
		Store("m_data", core.AgeVar(1), []core.IndexSpec{core.Idx("x")}, "value").
		Body(func(c *core.Ctx) error {
			c.SetInt32("value", c.Int32("value")+5)
			return nil
		})

	b.Kernel("print").Age("a").
		Local("m", field.Int32, 1).
		Local("p", field.Int32, 1).
		FetchAll("m", "m_data", core.AgeVar(0)).
		FetchAll("p", "p_data", core.AgeVar(0)).
		Body(func(c *core.Ctx) error {
			m, p := c.Array("m"), c.Array("p")
			var sb strings.Builder
			for i := 0; i < m.Extent(0); i++ {
				fmt.Fprintf(&sb, "%d ", m.At(i).Int32())
			}
			sb.WriteByte('\n')
			for i := 0; i < p.Extent(0); i++ {
				fmt.Fprintf(&sb, "%d ", p.At(i).Int32())
			}
			sb.WriteByte('\n')
			c.Printf("%s", sb.String())
			return nil
		})

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMul2Plus5Golden reproduces the exact output sequence from §V of the
// paper: the first age prints {10..14},{20,22,24,26,28} and the second
// {25,27,29,31,33},{50,54,58,62,66}.
func TestMul2Plus5Golden(t *testing.T) {
	var out strings.Builder
	rep, err := Run(mulSum(t), Options{Workers: 1, MaxAge: 1, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	want := "10 11 12 13 14 \n20 22 24 26 28 \n25 27 29 31 33 \n50 54 58 62 66 \n"
	if out.String() != want {
		t.Errorf("output:\n%q\nwant:\n%q", out.String(), want)
	}
	if got := rep.Kernel("init").Instances; got != 1 {
		t.Errorf("init instances = %d", got)
	}
	if got := rep.Kernel("mul2").Instances; got != 10 {
		t.Errorf("mul2 instances = %d, want 10 (5 per age x 2 ages)", got)
	}
	if got := rep.Kernel("plus5").Instances; got != 10 {
		t.Errorf("plus5 instances = %d", got)
	}
	if got := rep.Kernel("print").Instances; got != 2 {
		t.Errorf("print instances = %d", got)
	}
	if len(rep.Stalled) != 0 {
		t.Errorf("stalled: %v", rep.Stalled)
	}
}

// expectedMulSum computes m_data/p_data generations sequentially.
func expectedMulSum(ages int) (m, p [][]int32) {
	cur := []int32{10, 11, 12, 13, 14}
	for a := 0; a <= ages; a++ {
		m = append(m, append([]int32(nil), cur...))
		pd := make([]int32, len(cur))
		for i, v := range cur {
			pd[i] = v * 2
		}
		p = append(p, pd)
		next := make([]int32, len(pd))
		for i, v := range pd {
			next[i] = v + 5
		}
		cur = next
	}
	return
}

func checkMulSumFields(t *testing.T, n *Node, maxAge int) {
	t.Helper()
	m, p := expectedMulSum(maxAge)
	for a := 0; a <= maxAge; a++ {
		ms, err := n.Snapshot("m_data", a)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := n.Snapshot("p_data", a)
		if err != nil {
			t.Fatal(err)
		}
		if !ms.Equal(field.ArrayFromInt32(m[a])) {
			t.Errorf("m_data(%d) = %v, want %v", a, ms, m[a])
		}
		if !ps.Equal(field.ArrayFromInt32(p[a])) {
			t.Errorf("p_data(%d) = %v, want %v", a, ps, p[a])
		}
	}
}

// TestMul2Plus5ParallelDeterminism runs the cyclic program across worker
// counts and asserts the field contents are identical — the determinism the
// write-once semantics guarantee regardless of scheduling.
func TestMul2Plus5ParallelDeterminism(t *testing.T) {
	const maxAge = 20
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n, err := NewNode(mulSum(t), Options{Workers: workers, MaxAge: maxAge})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := n.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Stalled) != 0 {
				t.Fatalf("stalled: %v", rep.Stalled)
			}
			checkMulSumFields(t, n, maxAge)
		})
	}
}

func TestGranularityCoarseningEquivalence(t *testing.T) {
	const maxAge = 10
	for _, gran := range []int{2, 5, 64} {
		t.Run(fmt.Sprintf("gran=%d", gran), func(t *testing.T) {
			n, err := NewNode(mulSum(t), Options{
				Workers:     4,
				MaxAge:      maxAge,
				Granularity: map[string]int{"mul2": gran, "plus5": gran},
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := n.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Kernel("mul2").Instances; got != int64(5*(maxAge+1)) {
				t.Errorf("mul2 instances = %d", got)
			}
			checkMulSumFields(t, n, maxAge)
		})
	}
}

// TestFusedProgramEquivalence verifies the fig. 4 Age=3 task-combining
// transform end to end: the fused program produces identical fields.
func TestFusedProgramEquivalence(t *testing.T) {
	fp, err := core.Fuse(mulSum(t), "mul2", "plus5")
	if err != nil {
		t.Fatal(err)
	}
	const maxAge = 15
	n, err := NewNode(fp, Options{Workers: 4, MaxAge: maxAge})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	checkMulSumFields(t, n, maxAge)
	if got := rep.Kernel("mul2+plus5").Instances; got != int64(5*(maxAge+1)) {
		t.Errorf("fused instances = %d", got)
	}
}

// TestSourceKernel verifies the continuation rule: a source kernel runs
// sequentially by age until it stops storing (the paper's read/splitYUV loop:
// 51 instances for 50 frames).
func TestSourceKernel(t *testing.T) {
	b := core.NewBuilder("src")
	b.Field("frames", field.Int32, 1, true)
	b.Field("out", field.Int32, 1, true)
	const frames = 50
	b.Kernel("read").Age("a").
		Local("frame", field.Int32, 1).
		StoreAll("frames", core.AgeVar(0), "frame").
		Body(func(c *core.Ctx) error {
			if c.Age() >= frames {
				return nil // EOF: store nothing
			}
			fr := c.Array("frame")
			for i := 0; i < 4; i++ {
				fr.Put(field.Int32Val(int32(c.Age()*10+i)), i)
			}
			return nil
		})
	b.Kernel("enc").Age("a").Index("x").
		Local("v", field.Int32, 0).
		Fetch("v", "frames", core.AgeVar(0), core.Idx("x")).
		Store("out", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "v").
		Body(func(c *core.Ctx) error {
			c.SetInt32("v", c.Int32("v")+1)
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("read").Instances; got != frames+1 {
		t.Errorf("read instances = %d, want %d (one extra EOF instance)", got, frames+1)
	}
	if got := rep.Kernel("enc").Instances; got != frames*4 {
		t.Errorf("enc instances = %d, want %d", got, frames*4)
	}
	if len(rep.Stalled) != 0 {
		t.Errorf("stalled: %v", rep.Stalled)
	}
	s, _ := n.Snapshot("out", 7)
	if !s.Equal(field.ArrayFromInt32([]int32{71, 72, 73, 74})) {
		t.Errorf("out(7) = %v", s)
	}
}

// TestEmptyGenerationCompletes checks the end-of-stream rule: a consumer with
// a whole-field fetch still runs on the empty final generation (the paper's
// 51st VLC/write instance).
func TestEmptyGenerationCompletes(t *testing.T) {
	b := core.NewBuilder("eos")
	b.Field("data", field.Int32, 1, true)
	var sizes []int
	var mu strings.Builder
	_ = mu
	b.Kernel("src").Age("a").
		Local("vals", field.Int32, 1).
		StoreAll("data", core.AgeVar(0), "vals").
		Body(func(c *core.Ctx) error {
			if c.Age() >= 3 {
				return nil
			}
			c.Array("vals").Put(field.Int32Val(int32(c.Age())), 0)
			return nil
		})
	b.Kernel("sink").Age("a").
		Local("d", field.Int32, 1).
		FetchAll("d", "data", core.AgeVar(0)).
		Body(func(c *core.Ctx) error {
			sizes = append(sizes, c.Array("d").Extent(0))
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("sink").Instances; got != 4 {
		t.Fatalf("sink instances = %d, want 4 (ages 0..3, last empty)", got)
	}
	want := []int{1, 1, 1, 0}
	for i, w := range want {
		if sizes[i] != w {
			t.Errorf("sink age %d saw extent %d, want %d", i, sizes[i], w)
		}
	}
}

// TestAbsoluteAgeFetch exercises the K-means pattern: a constant dataset
// stored once at age 0 and fetched by every age of an iterating kernel.
func TestAbsoluteAgeFetch(t *testing.T) {
	b := core.NewBuilder("abs")
	b.Field("data", field.Int32, 1, true)
	b.Field("acc", field.Int32, 1, true)
	b.Kernel("init").
		Local("d", field.Int32, 1).
		StoreAll("data", core.AgeAt(0), "d").
		Body(func(c *core.Ctx) error {
			for i := 0; i < 8; i++ {
				c.Array("d").Put(field.Int32Val(int32(i)), i)
			}
			return nil
		})
	b.Kernel("seed").
		Local("s", field.Int32, 1).
		StoreAll("acc", core.AgeAt(0), "s").
		Body(func(c *core.Ctx) error {
			c.Array("s").Put(field.Int32Val(0), 0)
			return nil
		})
	// step(a): acc(a+1)[x] = acc(a)[0] + data(0)[x] summed... simplified:
	// each age adds the constant dataset element to a running value.
	b.Kernel("step").Age("a").Index("x").
		Local("base", field.Int32, 0).
		Local("v", field.Int32, 0).
		Local("outv", field.Int32, 0).
		Fetch("base", "acc", core.AgeVar(0), core.Lit(0)).
		Fetch("v", "data", core.AgeAt(0), core.Idx("x")).
		Store("acc", core.AgeVar(1), []core.IndexSpec{core.Lit(0)}, "outv").
		Body(func(c *core.Ctx) error {
			if c.Index("x") == 0 {
				c.SetInt32("outv", c.Int32("base")+1)
			}
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(p, Options{Workers: 4, MaxAge: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	// step has 8 instances per age (range of x from data(0)), ages 0..5.
	if got := rep.Kernel("step").Instances; got != 48 {
		t.Errorf("step instances = %d, want 48", got)
	}
	s, _ := n.Snapshot("acc", 5)
	if s.At(0).Int32() != 5 {
		t.Errorf("acc(5)[0] = %v, want 5", s.At(0))
	}
}

// TestRunOnceWithIndexVars exercises a run-once kernel whose domain grows
// with an absolute-age field written element by element.
func TestRunOnceWithIndexVars(t *testing.T) {
	b := core.NewBuilder("grid")
	b.Field("m", field.Int32, 2, true)
	b.Field("out", field.Int32, 2, true)
	b.Kernel("fill").
		Local("v", field.Int32, 0).
		Store("m", core.AgeAt(0), []core.IndexSpec{core.Lit(0), core.Lit(0)}, "v").
		Body(func(c *core.Ctx) error {
			c.SetInt32("v", 1)
			return nil
		})
	b.Kernel("fill2").
		Local("v", field.Int32, 0).
		Store("m", core.AgeAt(0), []core.IndexSpec{core.Lit(2), core.Lit(3)}, "v").
		Body(func(c *core.Ctx) error {
			c.SetInt32("v", 7)
			return nil
		})
	b.Kernel("scale").Index("x", "y").
		Local("v", field.Int32, 0).
		Fetch("v", "m", core.AgeAt(0), core.Idx("x"), core.Idx("y")).
		Store("out", core.AgeAt(0), []core.IndexSpec{core.Idx("x"), core.Idx("y")}, "v").
		Body(func(c *core.Ctx) error {
			c.SetInt32("v", c.Int32("v")*10)
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(p, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 of the 12 domain cells are ever written, so only 2 scale
	// instances can run; the rest wait forever and the run reports them.
	if got := rep.Kernel("scale").Instances; got != 2 {
		t.Errorf("scale instances = %d, want 2", got)
	}
	if len(rep.Stalled) == 0 {
		t.Error("expected stalled kernel-ages (10 unwritten cells)")
	}
	out, _ := n.Snapshot("out", 0)
	if out.At(0, 0).Int32() != 10 || out.At(2, 3).Int32() != 70 {
		t.Errorf("out = %v", out)
	}
}

func TestMaxAgeBoundsInfinitePrograms(t *testing.T) {
	rep, err := Run(mulSum(t), Options{Workers: 2, MaxAge: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("print").Instances; got != 4 {
		t.Errorf("print instances = %d, want 4 (ages 0..3)", got)
	}
}

// TestStallDetection: a kernel-age that can never run is reported with its
// kernel, age, instance count, the fetch it waits for and its waiting cells
// as runs — for element fetches (two thousand cells waiting for elements
// nobody writes, which must read as one run, not two thousand instances; and
// one cell of a domain wider than 65 536, past which cell positions once
// collided, whose neighbours' elements all arrive) and for row fetches (of a generation whose second producer never finishes,
// which the tracker's one mask tracks).
func TestStallDetection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(b *core.Builder)
		want  []string
	}{
		{"element fetch", func(b *core.Builder) {
			b.Field("f", field.Int32, 1, true)
			b.Field("h", field.Int32, 1, true)
			b.Field("g", field.Int32, 1, true)
			b.Kernel("init").
				Local("v", field.Int32, 1).
				StoreAll("f", core.AgeAt(0), "v").
				Body(func(c *core.Ctx) error { c.Array("v").Grow(2000); return nil })
			// waiter's domain follows f(a), and each instance also waits
			// for its element of h, which nobody ever writes.
			b.Kernel("waiter").Age("a").Index("x").
				Local("v", field.Int32, 0).
				Local("w", field.Int32, 0).
				Fetch("v", "f", core.AgeVar(0), core.Idx("x")).
				Fetch("w", "h", core.AgeVar(0), core.Idx("x")).
				Store("g", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "v").
				Body(nil)
		}, []string{"waiter(age=0): 0/2000 instances done", "missing fetch w = h(a)[x]", "waiting [[0,2000)#0-2000]"}},
		{"wide element fetch", func(b *core.Builder) {
			// A rank-1 domain wider than 16 bits of coordinate, whose
			// elements all arrive after its cells exist — fill and waiter
			// get their cells from the same store of f — except the one at
			// 65 536, which is the only cell that may stall.
			const width, hole = 70000, 1 << 16
			b.Field("f", field.Int32, 1, true)
			b.Field("h", field.Int32, 1, true)
			b.Field("g", field.Int32, 1, true)
			b.Kernel("init").
				Local("v", field.Int32, 1).
				StoreAll("f", core.AgeAt(0), "v").
				Body(func(c *core.Ctx) error { c.Array("v").Grow(width); return nil })
			b.Kernel("fill").Age("a").Index("x").
				Local("v", field.Int32, 0).
				Local("w", field.Int32, 0).
				Fetch("v", "f", core.AgeVar(0), core.Idx("x")).
				Store("h", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "w").
				Body(func(c *core.Ctx) error {
					if x := c.Index("x"); x != hole {
						c.SetInt32("w", int32(x))
					}
					return nil
				})
			b.Kernel("waiter").Age("a").Index("x").
				Local("v", field.Int32, 0).
				Local("w", field.Int32, 0).
				Fetch("v", "f", core.AgeVar(0), core.Idx("x")).
				Fetch("w", "h", core.AgeVar(0), core.Idx("x")).
				Store("g", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "w").
				Body(func(c *core.Ctx) error {
					if w := c.Int32("w"); int(w) != c.Index("x") {
						return fmt.Errorf("waiter(%d) read %d", c.Index("x"), w)
					}
					return nil
				})
		}, []string{"waiter(age=0): 69999/70000 instances done", "missing fetch w = h(a)[x]", "waiting [[0,70000)#65536-65537]"}},
		{"range tracker", func(b *core.Builder) { // row fetches
			b.Field("f", field.Int32, 2, true)
			b.Field("h", field.Int32, 1, true)
			b.Field("g", field.Int32, 2, true)
			b.Kernel("init").
				Local("rows", field.Int32, 2).
				StoreAll("f", core.AgeAt(0), "rows").
				Body(func(c *core.Ctx) error { c.Array("rows").Grow(3, 2); return nil })
			// never also stores f(0), but waits for element 5 of h, which
			// nobody writes: f(0) gets init's three rows and never
			// completes.
			b.Kernel("never").
				Local("v", field.Int32, 0).
				Local("row", field.Int32, 1).
				Fetch("v", "h", core.AgeAt(0), core.Lit(5)).
				Store("f", core.AgeAt(0), []core.IndexSpec{core.Lit(3), core.All()}, "row").
				Body(nil)
			// waiter's domain follows f(a)'s rows, and its row fetch waits
			// for the generation to complete.
			b.Kernel("waiter").Age("a").Index("x").
				Local("row", field.Int32, 1).
				Fetch("row", "f", core.AgeVar(0), core.Idx("x"), core.All()).
				Store("g", core.AgeVar(0), []core.IndexSpec{core.Idx("x"), core.All()}, "row").
				Body(nil)
		}, []string{"waiter(age=0): 0/3 instances done", "missing fetch row = f(a)[x][]", "waiting [[0,3)#0-3]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := core.NewBuilder("stall")
			tc.build(b)
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(p, Options{Workers: 2, MaxAge: 2})
			if err != nil {
				t.Fatal(err)
			}
			var waiter string
			for _, s := range rep.Stalled {
				if strings.HasPrefix(s, "waiter") {
					waiter = s
				}
			}
			for _, want := range tc.want {
				if !strings.Contains(waiter, want) {
					t.Errorf("waiter's stall report %q does not contain %q (stalled: %v)", waiter, want, rep.Stalled)
				}
			}
			if len(waiter) > 256 {
				t.Errorf("waiter's stall report is %d bytes: %q", len(waiter), waiter)
			}
		})
	}
}

func TestKernelErrorPropagates(t *testing.T) {
	b := core.NewBuilder("err")
	b.Field("f", field.Int32, 1, true)
	sentinel := errors.New("boom")
	b.Kernel("bad").
		Local("v", field.Int32, 0).
		Store("f", core.AgeAt(0), []core.IndexSpec{core.Lit(0)}, "v").
		Body(func(c *core.Ctx) error { return sentinel })
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, Options{Workers: 2}); !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want wrapped sentinel", err)
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	b := core.NewBuilder("panic")
	b.Field("f", field.Int32, 1, true)
	b.Kernel("bad").
		Local("v", field.Int32, 0).
		Store("f", core.AgeAt(0), []core.IndexSpec{core.Lit(0)}, "v").
		Body(func(c *core.Ctx) error { panic("kaboom") })
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run error = %v, want panic message", err)
	}
}

func TestWriteOnceViolationFailsRun(t *testing.T) {
	b := core.NewBuilder("dup")
	b.Field("f", field.Int32, 1, true)
	mk := func(name string) {
		b.Kernel(name).
			Local("v", field.Int32, 0).
			Store("f", core.AgeAt(0), []core.IndexSpec{core.Lit(0)}, "v").
			Body(func(c *core.Ctx) error { c.SetInt32("v", 1); return nil })
	}
	mk("w1")
	mk("w2")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, Options{Workers: 2})
	if !errors.Is(err, field.ErrWriteTwice) {
		t.Fatalf("Run error = %v, want write-once violation", err)
	}
}

func TestGarbageCollection(t *testing.T) {
	const maxAge = 40
	withGC, err := NewNode(mulSum(t), Options{Workers: 2, MaxAge: maxAge, GC: true})
	if err != nil {
		t.Fatal(err)
	}
	repGC, err := withGC.Run()
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewNode(mulSum(t), Options{Workers: 2, MaxAge: maxAge})
	if err != nil {
		t.Fatal(err)
	}
	repNo, err := without.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repGC.FieldMemElems >= repNo.FieldMemElems {
		t.Errorf("GC kept %d elems, no-GC kept %d; GC should retain fewer",
			repGC.FieldMemElems, repNo.FieldMemElems)
	}
	// GC must not change results that are still live (the last ages are
	// never collected because their consumers only complete at the end).
	if repGC.Kernel("print").Instances != repNo.Kernel("print").Instances {
		t.Error("GC changed instance counts")
	}
}

func TestReportTableFormat(t *testing.T) {
	rep, err := Run(mulSum(t), Options{Workers: 1, MaxAge: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	for _, want := range []string{"Kernel", "Instances", "Dispatch Time", "Kernel Time", "mul2", "plus5", "print", "init"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if rep.TotalInstances() != 1+10+10+2 {
		t.Errorf("total instances = %d", rep.TotalInstances())
	}
	// Timing is sampled, one slice in timeSampleEvery, but a kernel's first
	// slice is always timed: init and print run too few slices to be sampled.
	for _, k := range rep.Kernels {
		if k.DispatchTotal <= 0 {
			t.Errorf("%s: %d instances but no dispatch time", k.Name, k.Instances)
		}
	}
	if rep.Kernel("nope").Instances != 0 {
		t.Error("unknown kernel should return zero row")
	}
	if (KernelStats{}).DispatchPer() != 0 || (KernelStats{}).KernelPer() != 0 {
		t.Error("zero-instance stats should not divide by zero")
	}
}

func TestSnapshotUnknownField(t *testing.T) {
	n, err := NewNode(mulSum(t), Options{MaxAge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Snapshot("zzz", 0); err == nil {
		t.Error("unknown field should error")
	}
}

func TestTooManyFetchesRejected(t *testing.T) {
	b := core.NewBuilder("wide")
	b.Field("f", field.Int32, 1, true)
	kb := b.Kernel("k").Age("a")
	for i := 0; i < 33; i++ {
		name := fmt.Sprintf("v%d", i)
		kb.Local(name, field.Int32, 0).Fetch(name, "f", core.AgeVar(0), core.Lit(i))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(p, Options{}); err == nil {
		t.Error("33 fetches should be rejected")
	}
}

func TestKernelMaxAge(t *testing.T) {
	rep, err := Run(mulSum(t), Options{
		Workers:      2,
		MaxAge:       5,
		KernelMaxAge: map[string]int{"print": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("print").Instances; got != 3 {
		t.Errorf("print instances = %d, want 3 (per-kernel bound at age 2)", got)
	}
	if got := rep.Kernel("mul2").Instances; got != 30 {
		t.Errorf("mul2 instances = %d, want 30 (global bound at age 5)", got)
	}
}
