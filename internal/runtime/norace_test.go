//go:build !race

package runtime

import (
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

const raceEnabled = false

// TestPublishedRowStoreAllocFree: an instance that stores one row, growing
// the generation, and publishes it through OnStore allocates nothing — the
// notice lends the row and the selector instead of copying them, and the
// grown extents travel inline to the analyzer event.
func TestPublishedRowStoreAllocFree(t *testing.T) {
	const rows = 256
	b := core.NewBuilder("rows")
	b.Field("in", field.Int32, 2, true)
	b.Field("out", field.Int32, 2, true)
	b.Kernel("copy").Age("a").Index("r").
		Local("row", field.Int32, 1).
		Fetch("row", "in", core.AgeVar(0), core.Idx("r"), core.All()).
		Store("out", core.AgeVar(0), []core.IndexSpec{core.Idx("r"), core.All()}, "row")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	n, err := NewNode(prog, Options{Workers: 1, OnStore: func(sn StoreNotice) {
		published += sn.Value.Array().Len()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Release()
	in := field.NewArray(field.Int32, rows, 16)
	if _, err := n.fields["in"].f.StoreAll(0, in); err != nil {
		t.Fatal(err)
	}
	n.fields["in"].f.MarkComplete(0)
	tr := &ageTracker{ks: n.kernels["copy"], age: 0}
	all := cellRun{rank: 1, hi: rows}
	all.ext[0] = rows
	w := newWorkerState(n, 0)
	next := 0
	exec := func() {
		*w.buf = (*w.buf)[:0]
		slice := getBatch()
		slice.tracker, slice.run = tr, all
		slice.run.lo, slice.run.hi = next, next+1
		n.execSlice(slice, w)
		releaseBatch(slice)
		next++
	}
	exec() // check the frame out of its pool
	if allocs := testing.AllocsPerRun(rows-2, exec); allocs != 0 {
		t.Errorf("a published row store allocates %.1f objects/op, want 0", allocs)
	}
	// The pool check-out, AllocsPerRun's warm-up and its runs store every row.
	if published != 16*rows {
		t.Errorf("OnStore saw %d elements, want %d", published, 16*rows)
	}
	if out, _ := n.Snapshot("out", 0); out.Extent(0) != rows {
		t.Errorf("out holds %d rows, want %d", out.Extent(0), rows)
	}
}

// TestInjectStoreFrameAllocs: injecting a frame of 512 slab rows allocates a
// small constant per frame — the frame's scratch, the new generation's
// amortized slab doubling and its analyzer bookkeeping — and nothing per row:
// entries decode into reused scratch, each row is one copy into the field
// replica, and the analyzer events travel in per-shard batches.
func TestInjectStoreFrameAllocs(t *testing.T) {
	const rows = 512
	b := core.NewBuilder("frames")
	b.Field("fu", field.Uint8, 2, true)
	b.Kernel("src").Age("a").Local("v", field.Uint8, 2).StoreAll("fu", core.AgeVar(0), "v")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Every generation of fu waits for the remote src, so none completes
	// while its rows arrive.
	n, err := NewNode(prog, Options{Workers: 1, RemoteKernels: map[string]bool{"src": true}, NoAutoQuiesce: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = n.Run()
	}()
	defer func() {
		n.Stop()
		<-done
		n.Release()
	}()
	row := field.NewArray(field.Uint8, 8)
	frames := make([][]byte, 40)
	for age := range frames {
		var f StoreFrame
		f.Reset("fu", age)
		for i := 0; i < rows; i++ {
			row.Uint8s()[0] = uint8(i)
			if err := f.Add(StoreNotice{Field: "fu", Age: age, Sel: []field.SlabDim{{Fixed: true, Index: i}, {}}, Value: field.ArrayVal(row)}); err != nil {
				t.Fatal(err)
			}
		}
		frames[age] = f.Bytes()
	}
	if err := n.InjectStoreFrame(frames[0]); err != nil { // warm the pools
		t.Fatal(err)
	}
	next := 1
	perFrame := testing.AllocsPerRun(len(frames)-2, func() {
		if err := n.InjectStoreFrame(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perFrame > 48 {
		t.Errorf("InjectStoreFrame of %d slab rows: %.0f allocs per frame, want a small constant", rows, perFrame)
	}
	got, err := n.Snapshot("fu", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Extent(0) != rows || got.At(rows-1, 0).Int64() != (rows-1)%256 {
		t.Errorf("generation 7 holds %v rows, last row starts %v", got.Extent(0), got.At(rows-1, 0))
	}
}

// TestLockstepAssignAllocFree: a warm 250-instance lockstep slice of the
// ledger's K-means assign (BenchmarkLockstepAssign) allocates nothing, and
// every instance ran in lockstep and stored its membership.
func TestLockstepAssignAllocFree(t *testing.T) {
	n, exec := assignSliceNode(t, 250)
	defer n.Release()
	exec()
	if allocs := testing.AllocsPerRun(20, exec); allocs != 0 {
		t.Errorf("a lockstep assign slice allocates %.1f objects, want 0", allocs)
	}
	ks := n.kernels["assign"]
	if got := ks.ownLockstep(); got != 22*250 {
		t.Errorf("%d instances ran in lockstep, want %d", got, 22*250)
	}
	if ms, _ := n.Snapshot("membership", 0); ms.Extent(0) != 250 {
		t.Errorf("membership(0) holds %d elements, want 250", ms.Extent(0))
	}
}
