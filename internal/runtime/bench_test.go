package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/lang"
)

// benchNode builds a one-kernel node whose input element is pre-stored, so
// exec can be driven directly: this isolates the dispatch fast path (frame
// checkout, plan-driven fetch, body, event emission) from the analyzer.
// storeCell stores v at coordinates idx of generation age of f: the one-cell
// box whose selector fixes every dimension.
func storeCell(f *field.Field, age int, v field.Value, idx ...int) (field.StoreResult, error) {
	sel := make([]field.SlabDim, len(idx))
	for d, c := range idx {
		sel[d] = field.SlabDim{Fixed: true, Index: c}
	}
	cell := field.NewArray(f.Kind(), 1)
	cell.SetFlat(v, 0)
	return f.StoreBoxes(age, sel, nil, cell)
}

func benchNode(b testing.TB, indexed bool) (*Node, *ageTracker, cellRun) {
	b.Helper()
	pb := core.NewBuilder("bench")
	pb.Field("in", field.Int32, 1, true)
	k := pb.Kernel("consume").Local("v", field.Int32, 0)
	if indexed {
		k.Age("a").Index("x").Fetch("v", "in", core.AgeVar(0), core.Idx("x"))
	} else {
		k.Fetch("v", "in", core.AgeAt(0), core.Lit(0))
	}
	k.Body(func(c *core.Ctx) error {
		_ = c.Int32("v")
		return nil
	})
	prog, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewNode(prog, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := storeCell(n.fields["in"].f, 0, field.Int32Val(3), 0); err != nil {
		b.Fatal(err)
	}
	ks := n.kernels["consume"]
	t := &ageTracker{ks: ks, age: 0}
	cell := cellRun{hi: 1}
	if indexed {
		cell.rank, cell.ext[0] = 1, 1
	}
	return n, t, cell
}

// sliceOfOne returns a function that drives one instance through the dispatch
// path as a slice of one, standing in for the analyzer: the slice header is
// recycled afterwards as handleDone would.
func sliceOfOne(n *Node, t *ageTracker, cell cellRun, w *workerState) func() {
	return func() {
		b := getBatch()
		b.tracker, b.run = t, cell
		n.execSlice(b, w)
		releaseBatch(b)
	}
}

// BenchmarkDispatchInstance measures one dispatch through the precompiled
// plan with no index variables; the acceptance target is 0 allocs/op.
func BenchmarkDispatchInstance(b *testing.B) {
	n, t, cell := benchNode(b, false)
	w := newWorkerState(n, 0)
	exec := sliceOfOne(n, t, cell, w)
	exec() // warm the frame pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*w.buf = (*w.buf)[:0]
		exec()
	}
}

// BenchmarkDispatchInstanceIndexed is the same measurement through an
// age-variable, index-variable element fetch (coordinates evaluate into the
// frame's scratch).
func BenchmarkDispatchInstanceIndexed(b *testing.B) {
	n, t, cell := benchNode(b, true)
	w := newWorkerState(n, 0)
	exec := sliceOfOne(n, t, cell, w)
	exec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*w.buf = (*w.buf)[:0]
		exec()
	}
}

// collectSlicesFixture returns a function that carves a ready run of the
// given length into size-1 slices (the slicer's worst case: one slice header
// per instance) and recycles them, as one analyzer lull would.
func collectSlicesFixture(tb testing.TB, pending int) func() {
	n, tr, _ := benchNode(tb, true)
	n.kernels["consume"].gran = 1
	run := cellRun{rank: 1, hi: pending}
	run.ext[0] = pending
	c := slicer{n: n, push: func(bs []*batch) {
		for _, b := range bs {
			releaseBatch(b)
		}
	}}
	return func() {
		tr.runs, tr.rhead, tr.queued, tr.dirty = append(tr.runs[:0], run), 0, pending, true
		c.dirty = append(c.dirty[:0], tr)
		c.drain()
	}
}

// BenchmarkCollectSlices measures carving per ready-list length; ns/op
// divided by the length must stay flat (TestCollectSlicesLinear).
func BenchmarkCollectSlices(b *testing.B) {
	for _, pending := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			collect := collectSlicesFixture(b, pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				collect()
			}
		})
	}
}

// assignSliceNode compiles the benchmark ledger's K-means template at
// N=2000, K=100 (bench/kmeans.p2g.tmpl), stores its points and centroids as
// init would, and returns a function that drives instances [0, lanes) of
// assign at age 0 through execSlice: one slice, as the ledger's two workers
// cut it at lanes 250 — the element fetches gathered, the slice body, the
// membership stores staged and written as one box.
func assignSliceNode(tb testing.TB, lanes int) (*Node, func()) {
	tb.Helper()
	const n, k = 2000, 100
	src, err := os.ReadFile(filepath.Join("..", "..", "bench", "kmeans.p2g.tmpl"))
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := lang.Compile("kmeans", strings.NewReplacer("@N@", fmt.Sprint(n), "@K@", fmt.Sprint(k), "@SEED@", "1").Replace(string(src)))
	if err != nil {
		tb.Fatal(err)
	}
	if kd := prog.Kernel("assign"); kd.SliceBody == nil || lanes < kd.SliceMin {
		tb.Fatalf("assign does not run %d lanes in lockstep", lanes)
	}
	// MergeStores: every slice stores the same elements of membership(0).
	node, err := NewNode(prog, Options{Workers: 1, MergeStores: true})
	if err != nil {
		tb.Fatal(err)
	}
	pts, cents := field.NewArray(field.Float64, n, 2), field.NewArray(field.Float64, k, 2)
	for i, v := 0, pts.Float64s(); i < len(v); i++ {
		v[i] = float64(i * 37 % 100)
	}
	for i, v := 0, cents.Float64s(); i < len(v); i++ {
		v[i] = pts.Float64s()[i*n/k]
	}
	for name, a := range map[string]*field.Array{"datapoints": pts, "centroids": cents} {
		if _, err := node.fields[name].f.StoreAll(0, a); err != nil {
			tb.Fatal(err)
		}
		node.fields[name].f.MarkComplete(0)
	}
	tr := &ageTracker{ks: node.kernels["assign"], age: 0}
	run := cellRun{rank: 1, hi: lanes}
	run.ext[0] = lanes
	w := newWorkerState(node, 0)
	return node, func() {
		*w.buf = (*w.buf)[:0]
		b := getBatch()
		b.tracker, b.run = tr, run
		node.execSlice(b, w)
		releaseBatch(b)
	}
}

// BenchmarkLockstepAssign times one warm 250-instance lockstep slice of the
// ledger's K-means assign through execSlice: fetch, body and store.
func BenchmarkLockstepAssign(b *testing.B) {
	n, exec := assignSliceNode(b, 250)
	defer n.Release()
	exec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec()
	}
}
