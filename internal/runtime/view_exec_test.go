package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/lang"
)

// viewBenchNode builds a one-kernel node whose whole-fetch input generation
// is pre-stored and complete, so exec can be driven directly through the
// zero-copy view path.
// float64Array builds a rank-1 float64 array holding a copy of vs.
func float64Array(vs []float64) *field.Array {
	a := field.NewArray(field.Float64, len(vs))
	copy(a.Float64s(), vs)
	return a
}

func viewBenchNode(t testing.TB) (*Node, *ageTracker, cellRun) {
	t.Helper()
	pb := core.NewBuilder("viewbench")
	pb.Field("in", field.Float64, 1, true)
	pb.Kernel("consume").
		Local("v", field.Float64, 1).
		FetchAll("v", "in", core.AgeAt(0)).
		Body(func(c *core.Ctx) error {
			_ = c.Array("v")
			return nil
		})
	prog, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := n.fields["in"].f.StoreAll(0, float64Array(vals)); err != nil {
		t.Fatal(err)
	}
	n.fields["in"].f.MarkComplete(0)
	ks := n.kernels["consume"]
	return n, &ageTracker{ks: ks, age: 0}, cellRun{hi: 1}
}

// TestViewDispatchAllocFree pins the whole-generation view-fetch dispatch at
// zero allocations per op: aliasing the slab replaces the per-instance copy
// entirely.
func TestViewDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n, tr, cell := viewBenchNode(t)
	if !n.kernels["consume"].fetchPlans[0].viewable {
		t.Fatal("whole fetch not planned as viewable")
	}
	w := newWorkerState(n, 0)
	exec := sliceOfOne(n, tr, cell, w)
	exec() // warm the frame pool
	allocs := testing.AllocsPerRun(200, func() {
		*w.buf = (*w.buf)[:0]
		exec()
	})
	if allocs != 0 {
		t.Errorf("view-fetch dispatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestViewFetchMatchesSnapshot runs the aging mul/sum cycle and holds both
// read paths against the closed form: what print's whole-generation fetches —
// zero-copy views aliasing the generation slabs — showed the kernel body, and
// what the copying Snapshot returns for the same generations afterwards (run
// under -race in CI).
func TestViewFetchMatchesSnapshot(t *testing.T) {
	const maxAge = 20 // int32 has not wrapped yet, so every age prints a distinct pair
	var out strings.Builder
	n, err := NewNode(mulSum(t), Options{Workers: 4, MaxAge: maxAge, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range n.kernels["print"].fetchPlans {
		if !fp.viewable {
			t.Fatalf("print's fetch of %s not planned as viewable", fp.fe.Field)
		}
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	checkMulSumFields(t, n, maxAge)

	// print writes an age's two lines in one Printf, so the output is one
	// such pair per age, in whatever order the ages ran.
	line := func(vs []int32) string {
		var sb strings.Builder
		for _, v := range vs {
			fmt.Fprintf(&sb, "%d ", v)
		}
		return sb.String() + "\n"
	}
	m, p := expectedMulSum(maxAge)
	unseen := map[string]int{}
	for a := 0; a <= maxAge; a++ {
		unseen[line(m[a])+line(p[a])] = a
	}
	lines := strings.SplitAfter(out.String(), "\n")
	for i := 0; i+1 < len(lines); i += 2 {
		pair := lines[i] + lines[i+1]
		if _, ok := unseen[pair]; !ok {
			t.Fatalf("print saw a pair no age produces (or saw it twice):\n%s", pair)
		}
		delete(unseen, pair)
	}
	if len(unseen) != 0 {
		t.Fatalf("print never showed %d of %d ages: %v", len(unseen), maxAge+1, unseen)
	}
}

// TestColumnSlabFetchCopies covers the fetch that can never be a view: a slab
// selector whose fixed dimension is not a prefix addresses a strided column,
// so the plan is not viewable and every instance copies it out — and must see
// the same values.
func TestColumnSlabFetchCopies(t *testing.T) {
	const rows, cols = 6, 5
	b := core.NewBuilder("columns")
	b.Field("in", field.Int32, 2, true)
	b.Field("sums", field.Int32, 1, true)
	b.Kernel("src").
		Local("m", field.Int32, 2).
		StoreAll("in", core.AgeAt(0), "m").
		Body(func(c *core.Ctx) error {
			m := c.Array("m")
			m.Grow(rows, cols)
			for i, flat := 0, m.Int32s(); i < len(flat); i++ {
				flat[i] = int32(i * i)
			}
			return nil
		})
	b.Kernel("colsum").Index("c").
		Local("col", field.Int32, 1).
		Local("sum", field.Int32, 0).
		Fetch("col", "in", core.AgeAt(0), core.All(), core.Idx("c")).
		Store("sums", core.AgeAt(0), []core.IndexSpec{core.Idx("c")}, "sum").
		Body(func(c *core.Ctx) error {
			var sum int32
			for _, v := range c.Array("col").Int32s() {
				sum += v
			}
			c.SetInt32("sum", sum)
			return nil
		})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n.kernels["colsum"].fetchPlans[0].viewable {
		t.Fatal("column fetch planned as viewable")
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	sums, err := n.Snapshot("sums", 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cols; c++ {
		var want int32
		for r := 0; r < rows; r++ {
			want += int32((r*cols + c) * (r*cols + c))
		}
		if got := sums.At(c).Int32(); got != want {
			t.Errorf("sums[%d] = %d, want %d", c, got, want)
		}
	}
}

// TestWholeFetchBoundOncePerSlice: the instances of a slice share the alias
// of a whole-field fetch the first one took, and one whose body writes to the
// array — a copy-on-write that detaches it from the generation — leaves the
// next seeing the field again, because the fetch is then aliased anew. Every
// instance stores the sum of the array it was handed, before scribbling on
// it, so one stale copy shows in the sums.
func TestWholeFetchBoundOncePerSlice(t *testing.T) {
	const n = 8
	b := core.NewBuilder("scribble")
	b.Field("in", field.Int32, 1, true)
	b.Field("sums", field.Int32, 1, true)
	b.Kernel("src").
		Local("v", field.Int32, 1).
		StoreAll("in", core.AgeAt(0), "v").
		Body(func(c *core.Ctx) error {
			v := c.Array("v")
			v.Grow(n)
			for i := range v.Int32s() {
				v.Int32s()[i] = int32(10 + i)
			}
			return nil
		})
	b.Kernel("scribble").Index("x").
		Local("e", field.Int32, 0).
		Local("all", field.Int32, 1).
		Local("sum", field.Int32, 0).
		Fetch("e", "in", core.AgeAt(0), core.Idx("x")).
		FetchAll("all", "in", core.AgeAt(0)).
		Store("sums", core.AgeAt(0), []core.IndexSpec{core.Idx("x")}, "sum").
		Body(func(c *core.Ctx) error {
			all := c.Array("all")
			var sum int32
			for i := 0; i < all.Len(); i++ {
				sum += all.AtFlat(i).Int32()
			}
			c.SetInt32("sum", sum)
			if c.Index("x")%3 == 0 {
				all.SetFlat(field.Int32Val(-1000), c.Index("x"))
			}
			return nil
		})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(prog, Options{Workers: 1, Granularity: map[string]int{"scribble": n}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if k := rep.Kernel("scribble"); k.Slices != 1 {
		t.Fatalf("scribble ran in %d slices, want 1", k.Slices)
	}
	sums, err := node.Snapshot("sums", 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < n; x++ {
		if got, want := sums.At(x).Int32(), int32(n*10+n*(n-1)/2); got != want {
			t.Errorf("sums[%d] = %d, want %d: an instance saw an earlier one's copy", x, got, want)
		}
	}
}

// lockstepBenchNode compiles a nearest-value scan written in the kernel
// language (a lane-eligible body), pre-stores its two input generations and
// returns a function that drives one slice of rows instances through
// execSlice — through the kernel's slice body when rows is at least the
// kernel's SliceMin.
func lockstepBenchNode(t testing.TB, rows int) (*Node, *workerState, func()) {
	t.Helper()
	prog, err := lang.Compile("lockstep", `float64[] in;
float64[] cents;
int32[] out;
near:
  index x;
  local float64 px;
  local float64[] c;
  local int32 m;
  fetch px = in(0)[x];
  fetch c = cents(0);
  %{
    float best = -1.0;
    int k = extent(c, 0);
    for (int i = 0; i < k; ++i) {
      float d = px - get(c, i);
      d = d * d;
      if (best < 0.0 || d < best) { best = d; m = i; }
    }
  %}
  store out(0)[x] = m;
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Kernel("near").SliceBody == nil {
		t.Fatal("kernel near is not lane-eligible")
	}
	// MergeStores: every run stores the same elements of out(0) again.
	n, err := NewNode(prog, Options{Workers: 1, MergeStores: true})
	if err != nil {
		t.Fatal(err)
	}
	in, cents := make([]float64, rows), make([]float64, 16)
	for i := range in {
		in[i] = float64(i*7%16) + 0.25
	}
	for i := range cents {
		cents[i] = float64(i)
	}
	for name, vals := range map[string][]float64{"in": in, "cents": cents} {
		if _, err := n.fields[name].f.StoreAll(0, float64Array(vals)); err != nil {
			t.Fatal(err)
		}
		n.fields[name].f.MarkComplete(0)
	}
	tr := &ageTracker{ks: n.kernels["near"], age: 0}
	run := cellRun{rank: 1, hi: rows}
	run.ext[0] = rows
	w := newWorkerState(n, 0)
	return n, w, func() {
		*w.buf = (*w.buf)[:0]
		b := getBatch()
		b.tracker, b.run = tr, run
		n.execSlice(b, w)
		releaseBatch(b)
	}
}

// TestLockstepDispatchAllocFree pins the lockstep path of a compiled kernel —
// rows, lane columns, the slice body, the element stores written as one box
// — at zero allocations per slice once the frames have grown to the slice's
// length.
func TestLockstepDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n, _, exec := lockstepBenchNode(t, 64)
	// Every slice writes its 64 element stores as one box, one notice.
	notices := 0
	n.opts.OnStore = func(StoreNotice) { notices++ }
	exec() // grow the rows and the lane frame
	ks := n.kernels["near"]
	before := ks.ownLockstep()
	if allocs := testing.AllocsPerRun(100, exec); allocs != 0 {
		t.Errorf("lockstep dispatch allocates %.1f objects per slice, want 0", allocs)
	}
	if got := ks.ownLockstep() - before; got != 101*64 {
		t.Errorf("%d instances ran in lockstep, want %d", got, 101*64)
	}
	if notices != 102 {
		t.Errorf("%d store notices in 102 slices, want one each", notices)
	}
	out, err := n.Snapshot("out", 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 64; x++ {
		if got := out.At(x).Int64(); got != int64(x*7%16) {
			t.Fatalf("out(0)[%d] = %d, want %d", x, got, x*7%16)
		}
	}
}
