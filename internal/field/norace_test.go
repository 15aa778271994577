//go:build !race

package field

import "testing"

const raceEnabled = false

// storeRows stores rows of a 64-wide uint8 generation one at a time, as a
// kernel's per-row stores and a frame of slab rows arrive: each store grows
// the generation by one row.
const storeRows = 512

// TestGrowingStoreSliceAllocs: row-by-row StoreSlice into a fresh rank-2
// generation allocates nothing per store — every store grows the extent, and
// the grown extents travel inline in the StoreResult. What remains per
// generation is the slab's amortized doubling, a logarithmic handful.
func TestGrowingStoreSliceAllocs(t *testing.T) {
	f := New("u8", Uint8, 2, true)
	row := NewArray(Uint8, 64)
	sel := []SlabDim{{Fixed: true}, {}}
	age := 0
	perGen := testing.AllocsPerRun(20, func() {
		for i := 0; i < storeRows; i++ {
			sel[0].Index = i
			res, err := f.StoreSlice(age, sel, row)
			if err != nil || !res.Grew || res.Extents()[0] != i+1 {
				t.Fatalf("row %d: %+v, %v", i, res, err)
			}
		}
		age++
	})
	if perStore := perGen / storeRows; perStore > 0.1 {
		t.Errorf("growing StoreSlice: %.0f allocs per %d-row generation (%.2f per store), want a few per generation", perGen, storeRows, perStore)
	}
}

// TestGrowingStoreElemsAllocs: the same for element stores, a row of 64 of
// them per StoreBoxes call as one-cell boxes.
func TestGrowingStoreElemsAllocs(t *testing.T) {
	f := New("i32", Int32, 2, true)
	sels := make([]SlabDim, 2*64)
	vals := NewArray(Int32, 64)
	for j := range vals.Int32s() {
		vals.Int32s()[j] = int32(j)
	}
	age := 0
	perGen := testing.AllocsPerRun(20, func() {
		for i := 0; i < storeRows; i++ {
			for j := 0; j < 64; j++ {
				sels[2*j], sels[2*j+1] = SlabDim{Fixed: true, Index: i}, SlabDim{Fixed: true, Index: j}
			}
			res, err := f.StoreBoxes(age, sels, nil, vals)
			if err != nil || !res.Grew || res.Extents()[0] != i+1 {
				t.Fatalf("row %d: %+v, %v", i, res, err)
			}
		}
		age++
	})
	if perStore := perGen / storeRows; perStore > 0.1 {
		t.Errorf("growing element stores: %.0f allocs per %d-row generation (%.2f per store), want a few per generation", perGen, storeRows, perStore)
	}
}
