package runtime

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// wideMulSum is the figure 5 mul2/plus5 cycle over a width-element domain, so
// that a kernel-age is large enough to be cut into slices. hook, when set,
// runs at the start of every mul2 body.
func wideMulSum(t testing.TB, width int, hook func(c *core.Ctx) error) *core.Program {
	return mulSumProgram(t, width, false, hook)
}

// wideMulSumRows is wideMulSum over rank-2 fields of one-value rows, fetched
// and stored as [x][*] rows: mul2 and plus5 are slab-only, so their cells
// wait for nothing but completions, and plus5's row stores grow mul2's next
// domain.
func wideMulSumRows(t testing.TB, width int, hook func(c *core.Ctx) error) *core.Program {
	return mulSumProgram(t, width, true, hook)
}

func mulSumProgram(t testing.TB, width int, rows bool, hook func(c *core.Ctx) error) *core.Program {
	t.Helper()
	b := core.NewBuilder("widemulsum")
	rank := 1
	if rows {
		rank = 2
	}
	b.Field("m_data", field.Int32, rank, true)
	b.Field("p_data", field.Int32, rank, true)
	b.Kernel("init").
		Local("values", field.Int32, rank).
		StoreAll("m_data", core.AgeAt(0), "values").
		Body(func(c *core.Ctx) error {
			vs := c.Array("values")
			vs.Grow(append([]int{width}, 1)[:rank]...)
			flat := vs.Int32s()
			for i := range flat {
				flat[i] = int32(i + 10)
			}
			return nil
		})
	// step declares kernel name: out(a+delay)[x] = f(in(a)[x]).
	step := func(name, in, out string, delay int, f func(int32) int32, hook func(c *core.Ctx) error) {
		kb := b.Kernel(name).Age("a").Index("x")
		var body func(c *core.Ctx)
		if rows {
			kb.Local("in", field.Int32, 1).Local("out", field.Int32, 1).
				Fetch("in", in, core.AgeVar(0), core.Idx("x"), core.All()).
				Store(out, core.AgeVar(delay), []core.IndexSpec{core.Idx("x"), core.All()}, "out")
			body = func(c *core.Ctx) {
				o := c.Array("out")
				o.Grow(1)
				o.Int32s()[0] = f(c.Array("in").Int32s()[0])
			}
		} else {
			kb.Local("value", field.Int32, 0).
				Fetch("value", in, core.AgeVar(0), core.Idx("x")).
				Store(out, core.AgeVar(delay), []core.IndexSpec{core.Idx("x")}, "value")
			body = func(c *core.Ctx) { c.SetInt32("value", f(c.Int32("value"))) }
		}
		kb.Body(func(c *core.Ctx) error {
			if hook != nil {
				if err := hook(c); err != nil {
					return err
				}
			}
			body(c)
			return nil
		})
	}
	step("mul2", "m_data", "p_data", 0, func(v int32) int32 { return v * 2 }, hook)
	step("plus5", "p_data", "m_data", 1, func(v int32) int32 { return v + 5 }, nil)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkWideMulSum compares m_data and p_data of the given ages against a
// direct evaluation (int32 arithmetic wraps the same way on both sides).
func checkWideMulSum(t *testing.T, n *Node, width int, ages ...int) {
	t.Helper()
	maxAge := 0
	for _, a := range ages {
		maxAge = max(maxAge, a)
	}
	m := make([]int32, width)
	for i := range m {
		m[i] = int32(i + 10)
	}
	want := map[int][2][]int32{}
	for a := 0; a <= maxAge; a++ {
		p := make([]int32, width)
		next := make([]int32, width)
		for i := range m {
			p[i] = m[i] * 2
			next[i] = p[i] + 5
		}
		want[a] = [2][]int32{m, p}
		m = next
	}
	for _, a := range ages {
		for fi, name := range []string{"m_data", "p_data"} {
			got, err := n.Snapshot(name, a)
			if err != nil {
				t.Fatal(err)
			}
			if got.Extent(0) != width || !slices.Equal(got.Int32s(), want[a][fi]) {
				t.Fatalf("%s(%d) = %v, want %v", name, a, got, want[a][fi])
			}
		}
	}
}

// runOrTimeout runs the node and fails the test if it does not come back: a
// slice that loses a done event or unbalances the quiescence count hangs Run.
func runOrTimeout(t *testing.T, n *Node) (*Report, error) {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := n.Run()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return")
		return nil, nil
	}
}

// ownAllShares cuts every indexed kernel into shards equal index shares, all
// owned by the one node: each split kernel then counts as shards producers
// toward field completeness, and the node's own completions must cover them
// all. One shard is the unsplit node.
func ownAllShares(shards int) *Shares {
	if shards == 1 {
		return nil
	}
	sh := &Shares{}
	for s := 0; s < shards; s++ {
		sh.Weights = append(sh.Weights, 1)
		sh.Own = append(sh.Own, s)
	}
	return sh
}

// TestSliceSizingRule pins both ends of the default sizing rule, unsplit and
// cut into index shares, on element fetches (the subtests named after the
// per-instance trackers these once ran on) and on row fetches: the one-line
// mul2/plus5 kernels cost far less than the slice target, so their instances
// must be combined, while a kernel whose body takes a millisecond must keep
// one instance per slice.
func TestSliceSizingRule(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, tc := range []struct {
				trackers string
				prog     func(t testing.TB, width int, hook func(c *core.Ctx) error) *core.Program
			}{
				{"per-instance", wideMulSum},
				{"range", wideMulSumRows},
			} {
				prog := tc.prog
				t.Run(tc.trackers, func(t *testing.T) {
					const width, maxAge = 512, 8
					n, err := NewNode(prog(t, width, nil), Options{Workers: 2, MaxAge: maxAge, Shares: ownAllShares(shards)})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := runOrTimeout(t, n)
					if err != nil {
						t.Fatal(err)
					}
					if len(rep.Stalled) != 0 {
						t.Fatalf("stalled: %v", rep.Stalled)
					}
					checkWideMulSum(t, n, width, 0, maxAge/2, maxAge)
					for _, name := range []string{"mul2", "plus5"} {
						k := rep.Kernel(name)
						if k.Instances != width*(maxAge+1) {
							t.Errorf("%s ran %d instances, want %d", name, k.Instances, width*(maxAge+1))
						}
						if k.InstancesPerSlice() < 2 {
							t.Errorf("%s: %d instances in %d slices; the default rule should combine one-line kernels", name, k.Instances, k.Slices)
						}
					}

					slow := prog(t, 16, func(*core.Ctx) error { time.Sleep(time.Millisecond); return nil })
					n, err = NewNode(slow, Options{Workers: 2, MaxAge: 2, Shares: ownAllShares(shards)})
					if err != nil {
						t.Fatal(err)
					}
					rep, err = runOrTimeout(t, n)
					if err != nil {
						t.Fatal(err)
					}
					if k := rep.Kernel("mul2"); k.Slices != k.Instances || k.Instances != 16*3 {
						t.Errorf("1 ms kernel: %d instances in %d slices, want one instance per slice", k.Instances, k.Slices)
					}
				})
			}
		})
	}
}

// TestGCWithSlices combines garbage collection with default-sized slices over
// a long pipeline: a slice holds pins on the generations it fetches from and
// writes into generations GC is about to see completed, and neither may lose
// or corrupt a value; memory must stay bounded.
func TestGCWithSlices(t *testing.T) {
	const width, maxAge = 256, 60
	n, err := NewNode(wideMulSum(t, width, nil), Options{Workers: 2, MaxAge: maxAge, GC: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runOrTimeout(t, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	k := rep.Kernel("mul2")
	if k.Instances != width*(maxAge+1) || k.InstancesPerSlice() < 2 {
		t.Errorf("mul2: %d instances in %d slices", k.Instances, k.Slices)
	}
	// Old generations were collected: live memory is far below the
	// 2 fields x 61 ages x 256 elements an uncollected run retains.
	if rep.FieldMemElems > 8*width {
		t.Errorf("GC left %d elements live", rep.FieldMemElems)
	}
	// The generation beyond the age bound survives (its consumers never
	// ran), and carries the result of every slice before it.
	m := int32(0)
	for a, v := 0, int32(10); a <= maxAge; a++ {
		v = v*2 + 5
		m = v
	}
	last, err := n.Snapshot("m_data", maxAge+1)
	if err != nil {
		t.Fatal(err)
	}
	if last.Extent(0) != width || last.At(0).Int32() != m {
		t.Errorf("m_data(%d): extent %d, [0] = %d; want %d, %d", maxAge+1, last.Extent(0), last.At(0).Int32(), width, m)
	}
}

// TestSliceBodyErrorMidSlice: a body error or panic in the middle of a slice
// ends the run with an error naming kernel and age, and the run comes back —
// the slice's done event still covers the instances that never ran.
func TestSliceBodyErrorMidSlice(t *testing.T) {
	boom := errors.New("boom")
	for name, hook := range map[string]func(c *core.Ctx) error{
		"error": func(c *core.Ctx) error {
			if c.Age() == 1 && c.Index("x") == 21 {
				return boom
			}
			return nil
		},
		"panic": func(c *core.Ctx) error {
			if c.Age() == 1 && c.Index("x") == 21 {
				panic("kaboom")
			}
			return nil
		},
	} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				n, err := NewNode(wideMulSum(t, 64, hook), Options{
					Workers: 3, MaxAge: 5, Shares: ownAllShares(shards),
					Granularity: map[string]int{"mul2": 16, "plus5": 16},
				})
				if err != nil {
					t.Fatal(err)
				}
				_, err = runOrTimeout(t, n)
				if err == nil {
					t.Fatal("run with a failing body returned no error")
				}
				if !strings.Contains(err.Error(), "kernel mul2(age=1)") {
					t.Errorf("error %q does not name kernel and age", err)
				}
				if name == "error" && !errors.Is(err, boom) {
					t.Errorf("error %q does not wrap the body's error", err)
				}
			})
		}
	}
}

// TestSliceStopMidSlice: Stop while a worker is in the middle of a slice. The
// slice runs to its end, the run returns without an error, and every store
// the finished instances made is in place.
func TestSliceStopMidSlice(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hook := func(c *core.Ctx) error {
		if c.Age() == 0 && c.Index("x") == 5 {
			once.Do(func() { close(started) })
			<-release
		}
		return nil
	}
	const width = 32
	n, err := NewNode(wideMulSum(t, width, hook), Options{
		Workers: 2, MaxAge: 0, NoAutoQuiesce: true,
		Granularity: map[string]int{"mul2": 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := n.Run()
		errc <- err
	}()
	<-started
	n.Stop()
	close(release)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("stopped run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Stop mid-slice")
	}
	// The blocked slice (x = 0..7) ran to its end and stored all it computed.
	p, err := n.Snapshot("p_data", 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 8; x++ {
		if got := p.At(x).Int32(); got != int32(x+10)*2 {
			t.Errorf("p_data(0)[%d] = %d, want %d", x, got, (x+10)*2)
		}
	}
}

// TestSliceStoresGrowExtent: the element stores of one slice grow the target
// generation's extent in one step, and the growth must reach the kernels whose
// index domain the field defines — every plus5 instance has to be created.
func TestSliceStoresGrowExtent(t *testing.T) {
	const width, maxAge = 37, 3
	for _, size := range []int{1, 8, 37, 100} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("size=%d/shards=%d", size, shards), func(t *testing.T) {
				n, err := NewNode(wideMulSum(t, width, nil), Options{
					Workers: 2, MaxAge: maxAge, Shares: ownAllShares(shards),
					Granularity: map[string]int{"mul2": size, "plus5": size},
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := runOrTimeout(t, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Stalled) != 0 {
					t.Fatalf("stalled: %v", rep.Stalled)
				}
				if got := rep.Kernel("plus5").Instances; got != width*(maxAge+1) {
					t.Errorf("plus5 ran %d instances, want %d", got, width*(maxAge+1))
				}
				if k := rep.Kernel("mul2"); k.StoreOps != k.Instances {
					t.Errorf("mul2: %d store ops for %d instances", k.StoreOps, k.Instances)
				}
				checkWideMulSum(t, n, width, 0, 1, maxAge)
			})
		}
	}
}

// TestSliceNonContiguousCoordinates: a slice of a rank-2 kernel that stores
// transposed writes scattered, non-monotone coordinates in one batch (and
// grows both dimensions doing so); the result must equal the transpose.
func TestSliceNonContiguousCoordinates(t *testing.T) {
	const rows, cols = 5, 7
	b := core.NewBuilder("transpose")
	b.Field("in", field.Int32, 2, true)
	b.Field("out", field.Int32, 2, true)
	b.Kernel("init").
		Local("vals", field.Int32, 2).
		StoreAll("in", core.AgeAt(0), "vals").
		Body(func(c *core.Ctx) error {
			vs := c.Array("vals")
			vs.Grow(rows, cols)
			for i := range vs.Int32s() {
				vs.Int32s()[i] = int32(100 + i)
			}
			return nil
		})
	b.Kernel("flip").Age("a").Index("x", "y").
		Local("v", field.Int32, 0).
		Fetch("v", "in", core.AgeVar(0), core.Idx("x"), core.Idx("y")).
		Store("out", core.AgeVar(0), []core.IndexSpec{core.Idx("y"), core.Idx("x")}, "v").
		Body(func(c *core.Ctx) error {
			c.SetInt32("v", c.Int32("v"))
			return nil
		})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 4, 11, rows * cols} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			n, err := NewNode(prog, Options{Workers: 2, MaxAge: 0, Granularity: map[string]int{"flip": size}})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runOrTimeout(t, n)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Kernel("flip").Instances; got != rows*cols {
				t.Fatalf("flip ran %d instances, want %d", got, rows*cols)
			}
			out, err := n.Snapshot("out", 0)
			if err != nil {
				t.Fatal(err)
			}
			if out.Extent(0) != cols || out.Extent(1) != rows {
				t.Fatalf("out extents %v, want [%d %d]", out.Extents(), cols, rows)
			}
			for x := 0; x < rows; x++ {
				for y := 0; y < cols; y++ {
					if got, want := out.At(y, x).Int32(), int32(100+x*cols+y); got != want {
						t.Errorf("out[%d][%d] = %d, want %d", y, x, got, want)
					}
				}
			}
		})
	}
}

// TestSliceMergeStoresReplay: under MergeStores (failover), a slice's batched
// stores land in a generation a replay has already partly written. The
// duplicates must be skipped silently and the run must finish with exactly
// the state of an undisturbed run.
func TestSliceMergeStoresReplay(t *testing.T) {
	const width, maxAge = 40, 2
	n, err := NewNode(wideMulSum(t, width, nil), Options{
		Workers: 2, MaxAge: maxAge, MergeStores: true,
		Granularity: map[string]int{"mul2": 8, "plus5": 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The replayed part of p_data(0): what mul2 will compute again.
	for _, x := range []int{3, 4, 5, 20, 39} {
		if _, err := n.fields["p_data"].f.Store(0, field.Int32Val(int32(x+10)*2), x); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := runOrTimeout(t, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	checkWideMulSum(t, n, width, 0, 1, maxAge)

	// Without MergeStores the same collision is the write-once error it
	// always was, named like a per-instance store error.
	n, err = NewNode(wideMulSum(t, width, nil), Options{Workers: 2, MaxAge: maxAge, Granularity: map[string]int{"mul2": 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.fields["p_data"].f.Store(0, field.Int32Val(1), 20); err != nil {
		t.Fatal(err)
	}
	_, err = runOrTimeout(t, n)
	if !errors.Is(err, field.ErrWriteTwice) || !strings.Contains(err.Error(), "kernel mul2(age=0)") {
		t.Errorf("colliding slice store returned %v, want a write-once error naming mul2(age=0)", err)
	}
}

// TestSliceCarveReleaseAllocFree is the budget for the analyzer side of the
// slice path: readying a burst of instances, carving them into slices and
// recycling those on done allocates nothing in steady state — a ready burst
// is one run, a slice holds its part of the run by value, and its header
// comes out of the pool. The bursts are a 512-cell element-fetch burst whose
// elements are all written (satisfied for the whole burst at once), the same
// burst of a slab-only kernel, and an element-fetch burst whose cells are
// satisfied one store event at a time, which must still extend one run.
func TestSliceCarveReleaseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const cells = 512
	n, elem, _ := benchNode(t, true)
	in := n.fields["in"].f
	for x := 1; x < cells; x++ { // benchNode stored element 0
		if _, err := in.Store(0, field.Int32Val(int32(x)), x); err != nil {
			t.Fatal(err)
		}
	}
	rn, err := NewNode(wideMulSumRows(t, 1, nil), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranged := &ageTracker{ks: rn.kernels["mul2"], mask: rn.kernels["mul2"].fullMask}
	pn, perCell, _ := benchNode(t, true)
	ce := pn.fields["in"].consumers[0]
	burst := cellRun{rank: 1, hi: cells}
	burst.ext[0] = cells
	var elemBuf [1]int
	for _, tc := range []struct {
		name string
		n    *Node
		tr   *ageTracker
		fill func(an *analyzer, tr *ageTracker)
	}{
		{"element", n, elem, func(an *analyzer, tr *ageTracker) {
			an.addRun(tr, burst, an.covered(tr, &burst))
		}},
		{"range", rn, ranged, func(an *analyzer, tr *ageTracker) {
			an.addRun(tr, burst, an.covered(tr, &burst))
		}},
		{"per-cell", pn, perCell, func(an *analyzer, tr *ageTracker) {
			clear(tr.cells)
			tr.waiting, tr.nwait = extend(tr.waiting[:0], 0, burst), cells
			tr.total += cells
			for x := 0; x < cells; x++ {
				elemBuf[0] = x
				an.satisfyElem(tr, ce, elemBuf[:])
			}
			if tr.nwait != 0 || len(tr.waiting) != 0 {
				t.Fatalf("per-cell: %d cells still waiting in %v", tr.nwait, tr.waiting)
			}
		}},
	} {
		tc.tr.extents = []int{cells}
		tc.tr.mask = tc.tr.ks.fullMask
		if tc.name == "per-cell" {
			tc.tr.cells = make([]uint32, cells)
		}
		var pushed []*batch
		an := tc.n.an
		an.slicer.push = func(bs []*batch) { pushed = append(pushed, bs...) }
		cycle := func() {
			tc.fill(an, tc.tr)
			an.slicer.drain()
			carved := 0
			for i, b := range pushed {
				carved += b.len()
				releaseBatch(b)
				pushed[i] = nil
			}
			if want := (cells + tc.tr.ks.gran - 1) / tc.tr.ks.gran; len(pushed) != want {
				t.Fatalf("%s: %d slices of size %d, want %d", tc.name, len(pushed), tc.tr.ks.gran, want)
			}
			pushed = pushed[:0]
			if carved != cells {
				t.Fatalf("%s: carved %d of %d instances", tc.name, carved, cells)
			}
		}
		for _, size := range []int{1, 7, 64} {
			tc.tr.ks.gran = size
			cycle() // warm the pool and the scratch lists
			if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
				t.Errorf("%s, size %d: readying, carving and releasing %d instances allocates %.1f objects, want 0", tc.name, size, cells, allocs)
			}
		}
	}
}

// TestCollectSlicesLinear: carving is linear in the ready run. Size-1
// slices are the worst case — the old copy-down compaction moved the whole
// remainder per slice — so ns per instance must not grow with the list.
func TestCollectSlicesLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under race instrumentation is not meaningful")
	}
	perInst := func(pending int) float64 {
		collect := collectSlicesFixture(t, pending)
		collect() // warm the pool and the scratch lists
		reps := 200000 / pending
		best := time.Duration(1 << 62)
		for try := 0; try < 7; try++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				collect()
			}
			best = min(best, time.Since(start))
		}
		return float64(best) / float64(reps*pending)
	}
	small, large := perInst(2000), perInst(20000)
	if large > 2*small {
		t.Errorf("carving costs %.1f ns/instance at 2 000 pending but %.1f at 20 000; want linear", small, large)
	}
}

// burstMulSum computes what wideMulSum does, but plus5 is one unindexed
// instance per age that stores m_data(a+1) whole: every age's mul2 cells
// are created ready by one store event, so they carve into the same slices
// whatever the schedule. (wideMulSum's mul2 cells become ready as plus5's
// element stores arrive, and a lull between two event batches releases a
// shorter remainder.)
func burstMulSum(t *testing.T, width int) *core.Program {
	t.Helper()
	b := core.NewBuilder("burstmulsum")
	b.Field("m_data", field.Int32, 1, true)
	b.Field("p_data", field.Int32, 1, true)
	b.Kernel("init").
		Local("values", field.Int32, 1).
		StoreAll("m_data", core.AgeAt(0), "values").
		Body(func(c *core.Ctx) error {
			vs := c.Array("values")
			vs.Grow(width)
			for i := range vs.Int32s() {
				vs.Int32s()[i] = int32(i + 10)
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
	b.Kernel("plus5").Age("a").
		Local("in", field.Int32, 1).Local("out", field.Int32, 1).
		FetchAll("in", "p_data", core.AgeVar(0)).
		StoreAll("m_data", core.AgeVar(1), "out").
		Body(func(c *core.Ctx) error {
			in, out := c.Array("in").Int32s(), c.Array("out")
			out.Grow(len(in))
			for i, v := range in {
				out.Int32s()[i] = v + 5
			}
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// withSliceBody gives kernel name of p a slice body that runs Body on each row
// in turn, after asking hook, which may make it decline or panic.
func withSliceBody(p *core.Program, name string, hook func(c *core.Ctx, rows int) bool) *core.Program {
	kd := p.Kernel(name)
	kd.SliceBody = func(c *core.Ctx, rows int) bool {
		if hook != nil && !hook(c, rows) {
			return false
		}
		for r := 0; r < rows; r++ {
			c.Row(r)
			if err := kd.Body(c); err != nil {
				panic(err) // slice bodies decline before touching a row, they do not fail
			}
		}
		return true
	}
	return p
}

// TestLockstepSliceBody: a kernel with a slice body has its slices of at
// least minLockstepInsts instances — or SliceMin, when the kernel asks for
// more — run by it, rows in, one call, rows out, with the results, the store
// counts and the per-instance spans of the per-instance loop, and the
// lockstep counter says how many. A slice body that declines or panics costs
// nothing but the attempt, which the declined counter records.
func TestLockstepSliceBody(t *testing.T) {
	const width, maxAge = 50, 3
	for name, tc := range map[string]struct {
		hook     func(c *core.Ctx, rows int) bool
		sliceMin int
		lockstep int64 // mul2 instances expected through the slice body
		declined int64 // ... and expected to run again after it declined
	}{
		// 50 instances in slices of 16: 16+16+16 in lockstep, the last 2 not.
		"runs":     {nil, 0, (maxAge + 1) * 48, 0},
		"declines": {func(c *core.Ctx, rows int) bool { return c.Age() != 1 }, 0, maxAge * 48, 48},
		"panics": {func(c *core.Ctx, rows int) bool {
			if c.Age() == 2 {
				panic("kaboom")
			}
			return true
		}, 0, maxAge * 48, 48},
		"at its minimum": {nil, 16, (maxAge + 1) * 48, 0},
		"below its minimum": {func(c *core.Ctx, rows int) bool {
			panic("a slice of 16 went to a slice body that asks for 17")
		}, 17, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			tracer := obs.NewTracer(1 << 12)
			prog := withSliceBody(burstMulSum(t, width), "mul2", tc.hook)
			prog.Kernel("mul2").SliceMin = tc.sliceMin
			n, err := NewNode(prog, Options{
				Workers: 2, MaxAge: maxAge, Tracer: tracer,
				Granularity: map[string]int{"mul2": 16, "plus5": 16},
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runOrTimeout(t, n)
			if err != nil {
				t.Fatal(err)
			}
			checkWideMulSum(t, n, width, 0, maxAge)
			k := rep.Kernel("mul2")
			if k.Instances != (maxAge+1)*width || k.StoreOps != k.Instances {
				t.Errorf("mul2: %d instances, %d stores, want %d of each", k.Instances, k.StoreOps, (maxAge+1)*width)
			}
			if k.Lockstep != tc.lockstep || k.Declined != tc.declined {
				t.Errorf("mul2: %d instances in lockstep and %d declined, want %d and %d", k.Lockstep, k.Declined, tc.lockstep, tc.declined)
			}
			if other := rep.Kernel("plus5").Lockstep; other != 0 {
				t.Errorf("plus5 has no slice body but counts %d lockstep instances", other)
			}
			spans := 0
			for _, sp := range tracer.Spans() {
				if sp.Name == "mul2" && sp.Cat == "kernel" {
					spans++
				}
			}
			if int64(spans) != k.Instances {
				t.Errorf("mul2: %d kernel spans for %d instances", spans, k.Instances)
			}
		})
	}
}

// TestSliceBodyNeedsSharedArrays: the rows of a context share the one Array
// of each array local, so a kernel whose array local differs between
// instances — here a slab per instance — cannot have a slice body, and
// NewNode says so instead of letting every row store the last row's slab.
func TestSliceBodyNeedsSharedArrays(t *testing.T) {
	b := core.NewBuilder("slabcopy")
	b.Field("in", field.Int32, 2, true)
	b.Field("out", field.Int32, 2, true)
	b.Kernel("src").Age("a").
		Local("frame", field.Int32, 2).
		StoreAll("in", core.AgeVar(0), "frame").
		Body(func(c *core.Ctx) error { return nil })
	b.Kernel("copy").Age("a").Index("r").
		Local("row", field.Int32, 1).
		Fetch("row", "in", core.AgeVar(0), core.Idx("r"), core.All()).
		Store("out", core.AgeVar(0), []core.IndexSpec{core.Idx("r"), core.All()}, "row")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Kernel("copy").SliceBody = func(*core.Ctx, int) bool { return true }
	if _, err := NewNode(p, Options{}); err == nil || !strings.Contains(err.Error(), "array local row is not a whole fetch") {
		t.Errorf("NewNode accepted a slice body over a slab fetch: %v", err)
	}
}

// TestLockstepStopMidSlice: Stop while a worker is inside a slice body. The
// slice runs to its end, the run returns without an error, and every row's
// store is in place.
func TestLockstepStopMidSlice(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hook := func(c *core.Ctx, rows int) bool {
		once.Do(func() {
			close(started)
			<-release
		})
		return true
	}
	const width = 32
	n, err := NewNode(withSliceBody(wideMulSum(t, width, nil), "mul2", hook), Options{
		Workers: 1, MaxAge: 0, NoAutoQuiesce: true,
		Granularity: map[string]int{"mul2": width},
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := n.Run()
		errc <- err
	}()
	<-started
	n.Stop()
	close(release)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("stopped run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Stop inside a slice body")
	}
	checkWideMulSum(t, n, width, 0)
}
