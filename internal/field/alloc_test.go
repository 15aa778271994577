package field

import (
	"runtime/debug"
	"testing"
)

// The allocation budgets below are regression guards for the typed memory
// path: the steady-state store/fetch hot paths must stay allocation-free, and
// dropped generations must recycle through the slab pool instead of
// reallocating.

// TestStoreSliceAllocFree: storing a 64-byte row into an age whose extents
// already cover it is a single typed copy with no allocation.
func TestStoreSliceAllocFree(t *testing.T) {
	const runs, rows = 100, 102
	f := New("u8", Uint8, 2, false)
	row := NewArray(Uint8, 64)
	for i := 0; i < 64; i++ {
		row.SetFlat(Int64Val(int64(i)), i)
	}
	// Pre-size by storing the last row first, so the measured stores never grow.
	if _, err := f.StoreSlice(0, []SlabDim{{Fixed: true, Index: rows - 1}, {}}, row); err != nil {
		t.Fatal(err)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := f.StoreSlice(0, []SlabDim{{Fixed: true, Index: next}, {}}, row); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg != 0 {
		t.Errorf("StoreSlice into existing age: %.1f allocs/op, want 0", avg)
	}
}

// TestSnapshotIntoAllocFree: whole-age fetch into a reused destination array
// is allocation-free once the destination has capacity.
func TestSnapshotIntoAllocFree(t *testing.T) {
	f := New("f64", Float64, 2, false)
	src := NewArray(Float64, 32, 8)
	for i := 0; i < src.Len(); i++ {
		src.SetFlat(Float64Val(float64(i)), i)
	}
	if _, err := f.StoreAll(0, src); err != nil {
		t.Fatal(err)
	}
	dst := &Array{}
	f.SnapshotInto(0, dst) // warm the destination's capacity
	avg := testing.AllocsPerRun(100, func() {
		f.SnapshotInto(0, dst)
	})
	if avg != 0 {
		t.Errorf("SnapshotInto: %.1f allocs/op, want 0", avg)
	}
	if dst.At(3, 4).Float64() != float64(3*8+4) {
		t.Error("snapshot contents wrong")
	}
}

// TestDropRecreateHitsPool: dropping an age and re-creating it checks slab
// storage back out of the pool — the cycle stays within a small constant
// budget instead of reallocating the generation.
func TestDropRecreateHitsPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops Puts under the race detector")
	}
	f := New("i32", Int32, 1, true)
	src := NewArray(Int32, 256)
	for i := 0; i < src.Len(); i++ {
		src.SetFlat(Int64Val(int64(i)), i)
	}
	const age = 7
	if _, err := f.StoreAll(age, src); err != nil {
		t.Fatal(err)
	}
	// sync.Pool empties on GC; pin collection off so a mid-measurement cycle
	// cannot turn pool hits into reallocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(100, func() {
		if !f.DropAge(age) {
			t.Fatal("age not live")
		}
		if _, err := f.StoreAll(age, src); err != nil {
			t.Fatal(err)
		}
	})
	// A small constant is tolerated for pool bookkeeping. Without recycling
	// the cycle costs the whole generation (slab + written bitmap + ageStore).
	if avg > 2 {
		t.Errorf("drop+recreate cycle: %.1f allocs/op, want <= 2", avg)
	}
}
