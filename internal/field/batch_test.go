package field

import (
	"errors"
	"math/rand"
	"testing"
)

// TestStoreElemsMatchesStore: a batch of element stores must leave the
// generation exactly as the same stores applied one by one — for scattered,
// non-monotone rank-2 coordinates that grow both dimensions, written into a
// generation that is already partly filled — and report the batch as a whole.
func TestStoreElemsMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		perm := rng.Perm(rows * cols)
		split := rng.Intn(len(perm) + 1)
		one, batch := New("one", Int64, 2, true), New("batch", Int64, 2, true)
		for _, cell := range perm[:split] { // the part both already hold
			for _, f := range []*Field{one, batch} {
				if _, err := f.Store(0, Int64Val(int64(cell)), cell/cols, cell%cols); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := batch.Extents(0)
		var idx []int
		var vals []Value
		for _, cell := range perm[split:] {
			if _, err := one.Store(0, Int64Val(int64(cell)), cell/cols, cell%cols); err != nil {
				t.Fatal(err)
			}
			idx = append(idx, cell/cols, cell%cols)
			vals = append(vals, Int64Val(int64(cell)))
		}
		res, err := batch.StoreElems(0, idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !batch.Snapshot(0).Equal(one.Snapshot(0)) || batch.Writes(0) != one.Writes(0) {
			t.Fatalf("round %d: batch %v (%d writes) != one by one %v (%d writes)",
				round, batch.Snapshot(0), batch.Writes(0), one.Snapshot(0), one.Writes(0))
		}
		after := batch.Extents(0)
		grew := after[0] != before[0] || after[1] != before[1]
		if res.Count != len(vals) || res.Grew != grew {
			t.Fatalf("round %d: result %+v, want Count %d Grew %v", round, res, len(vals), grew)
		}
		if grew && (res.Extents()[0] != after[0] || res.Extents()[1] != after[1]) {
			t.Fatalf("round %d: result extents %v, field extents %v", round, res.Extents(), after)
		}
		if !grew && res.Extents() != nil {
			t.Fatalf("round %d: non-growing batch returned extents %v", round, res.Extents())
		}
	}
}

// TestStoreElemsErrors: the batch keeps every rule of the single store.
func TestStoreElemsErrors(t *testing.T) {
	f := New("f", Int32, 1, true)
	if _, err := f.Store(0, Int32Val(7), 2); err != nil {
		t.Fatal(err)
	}
	vals := []Value{Int32Val(1), Int32Val(2), Int32Val(3), Int32Val(4)}

	// Write-once: position 2 is taken. The elements before it stay stored,
	// the one after it is not, and the result covers what was applied.
	res, err := f.StoreElems(0, []int{0, 1, 2, 3}, vals)
	if !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("batch over a written position returned %v", err)
	}
	if res.Count != 2 || !res.Grew || res.Extents()[0] != 4 {
		t.Errorf("result of failed batch = %+v, want 2 written, grown to 4", res)
	}
	if _, ok := f.At(0, 1); !ok {
		t.Error("element before the violation was not stored")
	}
	if _, ok := f.At(0, 3); ok {
		t.Error("element after the violation was stored")
	}

	// A negative coordinate fails the batch before it stores anything.
	g := New("g", Int32, 1, true)
	if _, err := g.StoreElems(0, []int{0, -1}, vals[:2]); err == nil {
		t.Fatal("negative coordinate accepted")
	}
	if g.Writes(0) != 0 {
		t.Errorf("rejected batch stored %d elements", g.Writes(0))
	}
	if _, err := g.StoreElems(0, []int{0, 1, 2}, vals[:2]); err == nil {
		t.Fatal("three coordinates for two rank-1 elements accepted")
	}
	g.MarkComplete(0)
	if _, err := g.StoreElems(0, []int{0}, vals[:1]); err == nil {
		t.Fatal("batch into a complete generation accepted")
	}
}

// TestStoreElemsMerge: under merge mode a batch skips what is already there
// — single positions or a whole completed generation — without an error.
func TestStoreElemsMerge(t *testing.T) {
	f := New("f", Int32, 1, true)
	f.SetMergeStores(true)
	if _, err := f.Store(0, Int32Val(7), 1); err != nil {
		t.Fatal(err)
	}
	res, err := f.StoreElems(0, []int{0, 1, 2}, []Value{Int32Val(10), Int32Val(11), Int32Val(12)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || !res.Grew {
		t.Errorf("result = %+v, want 2 written and grown", res)
	}
	if v, _ := f.At(0, 1); v.Int32() != 7 {
		t.Errorf("first write lost: [1] = %d, want 7", v.Int32())
	}
	f.MarkComplete(0)
	if res, err := f.StoreElems(0, []int{5}, []Value{Int32Val(1)}); err != nil || res.Count != 0 || res.Grew {
		t.Errorf("batch into a complete generation under merge = %+v, %v; want a silent no-op", res, err)
	}
}

// TestStoreElemsAllocFree: a batch inside the current extent allocates
// nothing, whatever its length.
func TestStoreElemsAllocFree(t *testing.T) {
	const runs, k = 50, 64
	f := New("f", Int32, 1, false)
	if _, err := f.Store(0, Int32Val(0), (runs+2)*k); err != nil { // pre-size
		t.Fatal(err)
	}
	idx := make([]int, k)
	vals := make([]Value, k)
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		for i := range idx {
			idx[i], vals[i] = next, Int32Val(int32(next))
			next++
		}
		if _, err := f.StoreElems(0, idx, vals); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("StoreElems inside the extent: %.1f allocs/op, want 0", avg)
	}
}

// TestPinView: one pin serves any number of lock-free aliases — whole and
// sliced, again after a copy-on-write detached the destination — and defers
// the slab's recycling past a drop, like the tokens of the FetchView calls.
func TestPinView(t *testing.T) {
	f := New("m", Int32, 2, true)
	m := NewArray(Int32, 3, 4)
	for i := 0; i < m.Len(); i++ {
		m.SetFlat(Int32Val(int32(i)), i)
	}
	if _, err := f.StoreAll(0, m); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.PinView(0); ok {
		t.Fatal("pin granted on an incomplete generation")
	}
	if _, ok := f.PinView(9); ok {
		t.Fatal("pin granted on an absent generation")
	}
	f.MarkComplete(0)
	tok, ok := f.PinView(0)
	if !ok {
		t.Fatal("pin refused on a complete generation")
	}

	var all, row Array
	tok.All(&all)
	if !all.Equal(m) {
		t.Fatalf("All = %v, want %v", &all, m)
	}
	all.Set(Int32Val(-1), 0, 0) // copy-on-write: all now owns a private copy
	if v, _ := f.At(0, 0, 0); v.Int32() != 0 {
		t.Fatal("write through a view reached the field")
	}
	tok.All(&all) // re-alias: the field's data again
	if !all.Equal(m) {
		t.Fatalf("All after copy-on-write = %v, want %v", &all, m)
	}
	for r := 0; r < 3; r++ {
		if !tok.Slice([]SlabDim{{Fixed: true, Index: r}, {}}, &row) {
			t.Fatalf("row %d refused", r)
		}
		if row.Rank() != 1 || row.Extent(0) != 4 || row.At(0).Int32() != int32(4*r) {
			t.Fatalf("row %d = %v", r, &row)
		}
	}
	if tok.Slice([]SlabDim{{Fixed: true, Index: 3}, {}}, &row) {
		t.Error("out-of-range row aliased")
	}
	if tok.Slice([]SlabDim{{}, {Fixed: true, Index: 1}}, &row) {
		t.Error("non-prefix selector aliased")
	}

	// Dropped while pinned: the aliases stay readable until Release.
	f.DropAge(0)
	tok.All(&all)
	if !all.Equal(m) {
		t.Fatalf("All after drop = %v, want %v", &all, m)
	}
	tok.Release()
}
