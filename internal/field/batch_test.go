package field

import (
	"errors"
	"math/rand"
	"testing"
)

// cellBoxes returns the one-cell boxes of rank-rank coordinates idx (one
// cell after another) as StoreBoxes selectors: every dimension fixed.
func cellBoxes(idx []int) []SlabDim {
	sels := make([]SlabDim, len(idx))
	for i, c := range idx {
		sels[i] = SlabDim{Fixed: true, Index: c}
	}
	return sels
}

// int64Cells returns vals as a rank-1 Int64 array, the cells of a box store.
func int64Cells(vals []int64) *Array {
	a := NewArray(Int64, len(vals))
	copy(a.Int64s(), vals)
	return a
}

// TestStoreElemsMatchesStore: element stores batched as one-cell boxes of one
// StoreBoxes call must leave the generation exactly as the same stores
// applied one by one — for scattered, non-monotone rank-2 coordinates that
// grow both dimensions, written into a generation that is already partly
// filled — and report the batch as a whole.
func TestStoreElemsMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		perm := rng.Perm(rows * cols)
		split := rng.Intn(len(perm) + 1)
		one, batch := New("one", Int64, 2, true), New("batch", Int64, 2, true)
		for _, cell := range perm[:split] { // the part both already hold
			for _, f := range []*Field{one, batch} {
				if _, err := storeCell(f, 0, Int64Val(int64(cell)), cell/cols, cell%cols); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := batch.Extents(0)
		var idx []int
		var vals []int64
		for _, cell := range perm[split:] {
			if _, err := storeCell(one, 0, Int64Val(int64(cell)), cell/cols, cell%cols); err != nil {
				t.Fatal(err)
			}
			idx = append(idx, cell/cols, cell%cols)
			vals = append(vals, int64(cell))
		}
		res, err := batch.StoreBoxes(0, cellBoxes(idx), nil, int64Cells(vals))
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

// TestStoreBoxesMatchesStore: boxes with origins — free and fixed dimensions
// mixed, several to a call, into a rank-3 generation that is already partly
// filled — leave it exactly as storing their cells one by one, in row-major
// order within each box.
func TestStoreBoxesMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 200; round++ {
		one, boxes := New("one", Int64, 3, true), New("boxes", Int64, 3, true)
		for _, f := range []*Field{one, boxes} { // a shared prefix of writes
			if _, err := storeCell(f, 0, Int64Val(-1), 0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		var sels []SlabDim
		var ext []int
		var vals []int64
		taken := map[[3]int]bool{{0, 0, 0}: true}
		for b := 1 + rng.Intn(3); b > 0; b-- {
			var org, span [3]int
			sel := make([]SlabDim, 3)
			var bext []int
			for d := range sel {
				org[d], span[d] = rng.Intn(4), 1
				sel[d] = SlabDim{Fixed: rng.Intn(3) == 0, Index: org[d]}
				if !sel[d].Fixed {
					span[d] = rng.Intn(4)
					bext = append(bext, span[d])
				}
			}
			var cells [][3]int
			for i := 0; i < span[0]; i++ {
				for j := 0; j < span[1]; j++ {
					for k := 0; k < span[2]; k++ {
						cells = append(cells, [3]int{org[0] + i, org[1] + j, org[2] + k})
					}
				}
			}
			clash := false
			for _, c := range cells {
				clash = clash || taken[c]
			}
			if clash {
				continue
			}
			for _, c := range cells {
				taken[c] = true
				v := int64(len(vals))
				vals = append(vals, v)
				if _, err := storeCell(one, 0, Int64Val(v), c[:]...); err != nil {
					t.Fatal(err)
				}
			}
			sels, ext = append(sels, sel...), append(ext, bext...)
		}
		res, err := boxes.StoreBoxes(0, sels, ext, int64Cells(vals))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Count != len(vals) {
			t.Errorf("round %d: Count %d, want %d", round, res.Count, len(vals))
		}
		// A box with an empty free dimension stores nothing but may still
		// grow the generation to its fixed coordinates.
		if got, want := boxes.Extents(0), one.Extents(0); len(vals) > 0 && (got[0] < want[0] || got[1] < want[1] || got[2] < want[2]) {
			t.Fatalf("round %d: extents %v, below the stores' %v", round, got, want)
		}
		for c := range taken {
			a, okA := one.At(0, c[:]...)
			b, okB := boxes.At(0, c[:]...)
			if okA != okB || a.Int64() != b.Int64() {
				t.Fatalf("round %d: cell %v = %v (%v) by boxes, %v (%v) one by one", round, c, b, okB, a, okA)
			}
		}
		if boxes.Writes(0) != one.Writes(0) {
			t.Fatalf("round %d: %d writes by boxes, %d one by one", round, boxes.Writes(0), one.Writes(0))
		}
	}
}

// TestStoreElemsErrors: a batch of one-cell boxes keeps every rule of the
// single store.
func TestStoreElemsErrors(t *testing.T) {
	f := New("f", Int32, 1, true)
	if _, err := storeCell(f, 0, Int32Val(7), 2); err != nil {
		t.Fatal(err)
	}
	vals := ArrayFromInt32([]int32{1, 2, 3, 4})

	// Write-once: position 2 is taken. The elements before it stay stored,
	// the one after it is not, and the result covers what was applied.
	res, err := f.StoreBoxes(0, cellBoxes([]int{0, 1, 2, 3}), nil, vals)
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

	// A negative coordinate or origin fails the batch before it stores
	// anything, and so does a cell count the values do not match.
	g := New("g", Int32, 1, true)
	for name, sels := range map[string][]SlabDim{
		"coordinate": cellBoxes([]int{0, 1, 2, -1}),
		"origin":     {{Fixed: true}, {Fixed: true, Index: 1}, {Index: -1}},
	} {
		ext := []int(nil)
		if name == "origin" {
			ext = []int{2}
		}
		if _, err := g.StoreBoxes(0, sels, ext, vals); err == nil {
			t.Fatalf("negative %s accepted", name)
		}
	}
	if g.Writes(0) != 0 {
		t.Errorf("rejected batch stored %d elements", g.Writes(0))
	}
	if _, err := g.StoreBoxes(0, cellBoxes([]int{0, 1, 2}), nil, vals); err == nil {
		t.Fatal("three cells with four values accepted")
	}
	if _, err := g.StoreBoxes(0, []SlabDim{{}}, nil, vals); err == nil {
		t.Fatal("a free dimension without its extent accepted")
	}
	g.MarkComplete(0)
	if _, err := g.StoreBoxes(0, cellBoxes([]int{0}), nil, ArrayFromInt32([]int32{1})); err == nil {
		t.Fatal("batch into a complete generation accepted")
	}
}

// TestStoreElemsMerge: under merge mode a batch skips what is already there
// — single positions or a whole completed generation — without an error.
func TestStoreElemsMerge(t *testing.T) {
	f := New("f", Int32, 1, true)
	f.SetMergeStores(true)
	if _, err := storeCell(f, 0, Int32Val(7), 1); err != nil {
		t.Fatal(err)
	}
	res, err := f.StoreBoxes(0, []SlabDim{{}}, []int{3}, ArrayFromInt32([]int32{10, 11, 12}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || !res.Grew {
		t.Errorf("result = %+v, want 2 written and grown", res)
	}
	if v, _ := f.At(0, 1); v.Int32() != 7 {
		t.Errorf("first write lost: [1] = %d, want 7", v.Int32())
	}
	if v, _ := f.At(0, 2); v.Int32() != 12 {
		t.Errorf("[2] = %d, want 12", v.Int32())
	}
	f.MarkComplete(0)
	if res, err := f.StoreBoxes(0, cellBoxes([]int{5}), nil, ArrayFromInt32([]int32{1})); err != nil || res.Count != 0 || res.Grew {
		t.Errorf("batch into a complete generation under merge = %+v, %v; want a silent no-op", res, err)
	}
}

// TestStoreElemsAllocFree: a batch inside the current extent allocates
// nothing, whatever its length — as one-cell boxes, or as one box at an
// origin.
func TestStoreElemsAllocFree(t *testing.T) {
	const runs, k = 50, 64
	f := New("f", Int32, 1, false)
	if _, err := storeCell(f, 0, Int32Val(0), (2*runs+2)*k); err != nil { // pre-size
		t.Fatal(err)
	}
	sels := make([]SlabDim, k)
	vals := NewArray(Int32, k)
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		for i := range sels {
			sels[i] = SlabDim{Fixed: true, Index: next}
			vals.Int32s()[i] = int32(next)
			next++
		}
		if _, err := f.StoreBoxes(0, sels, nil, vals); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("one-cell boxes inside the extent: %.1f allocs/op, want 0", avg)
	}
	box, ext := make([]SlabDim, 1), []int{k}
	avg = testing.AllocsPerRun(runs, func() {
		box[0] = SlabDim{Index: next}
		next += k
		if _, err := f.StoreBoxes(0, box, ext, vals); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("a box inside the extent: %.1f allocs/op, want 0", avg)
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
	tok.Slice([]SlabDim{{}, {}}, &all)
	if !all.Equal(m) {
		t.Fatalf("All = %v, want %v", &all, m)
	}
	all.Set(Int32Val(-1), 0, 0) // copy-on-write: all now owns a private copy
	if v, _ := f.At(0, 0, 0); v.Int32() != 0 {
		t.Fatal("write through a view reached the field")
	}
	tok.Slice([]SlabDim{{}, {}}, &all) // re-alias: the field's data again
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
	tok.Slice([]SlabDim{{}, {}}, &all)
	if !all.Equal(m) {
		t.Fatalf("All after drop = %v, want %v", &all, m)
	}
	tok.Release()
}

// TestStoreBoxesZeroesWhatItSkips: a generation grown into recycled capacity
// by local box stores reads zero in every cell they did not write, though
// the cells of a store whose boxes are one run of unwritten cells were not
// zeroed first: a row past the end, then two boxes back to back that end
// past it, a cell past them that leaves cells after it unwritten, and a store
// of two rows back to back refused for a cell of the first written before,
// which grows the generation by the second and writes nothing.
func TestStoreBoxesZeroesWhatItSkips(t *testing.T) {
	DrainAgePoolsForTest()
	f := New("f", Int32, 2, true)
	defer f.Release()
	if _, err := f.StoreSlice(0, []SlabDim{{}, {}}, filled(Int32, 1, 8, 4)); err != nil {
		t.Fatal(err)
	}
	f.DropAge(0) // its slab, full of non-zero cells, goes to the pool
	row := func(r int) []SlabDim { return []SlabDim{{Fixed: true, Index: r}, {}} }
	if _, err := f.StoreBoxes(1, row(0), []int{4}, filled(Int32, 100, 4)); err != nil {
		t.Fatal(err)
	}
	two := append(row(1), row(2)...)
	if _, err := f.StoreBoxes(1, two, []int{4, 4}, filled(Int32, 300, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.StoreBoxes(1, []SlabDim{{Fixed: true, Index: 5}, {Fixed: true, Index: 1}}, nil, filled(Int32, 200, 1)); err != nil {
		t.Fatal(err)
	}
	refused := append(row(5), row(6)...)
	if _, err := f.StoreBoxes(1, refused, []int{4, 4}, filled(Int32, 400, 8)); !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("a store over a written row: %v", err)
	}
	got := f.Snapshot(1).Int32s()
	if len(got) != 28 {
		t.Fatalf("generation of %d cells, want 7 rows of 4", len(got))
	}
	for i, v := range got {
		want := int32(0)
		switch {
		case i < 4:
			want = int32(100 + i)
		case i < 12:
			want = int32(300 + i - 4)
		case i == 21:
			want = 200
		}
		if v != want {
			t.Fatalf("cell %d of %v is %d, want %d", i, got, v, want)
		}
	}
}
