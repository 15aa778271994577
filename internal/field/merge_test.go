package field

import (
	"errors"
	"testing"
)

// TestMergeStoresSkipsDuplicates: with SetMergeStores on, a store into an
// already-written position is silently skipped (first write wins — the
// failover-replay idempotence contract) and a store into a completed age is a
// no-op, while fresh positions still land and are counted.
func TestMergeStoresSkipsDuplicates(t *testing.T) {
	f := New("m", Int32, 1, true)
	f.SetMergeStores(true)

	if _, err := storeCell(f, 0, Int32Val(7), 2); err != nil {
		t.Fatal(err)
	}
	res, err := storeCell(f, 0, Int32Val(9), 2)
	if err != nil || res.Count != 0 {
		t.Fatalf("duplicate element store: %+v, %v; want silent skip", res, err)
	}
	if v, ok := f.At(0, 2); !ok || v.Int64() != 7 {
		t.Fatalf("first write did not win: %v, %v", v, ok)
	}

	// StoreAll over a partially written generation writes only the fresh
	// positions and reports their count.
	res, err = f.StoreAll(0, ArrayFromInt32([]int32{1, 2, 3, 4}))
	if err != nil || res.Count != 3 {
		t.Fatalf("overlapping StoreAll: %+v, %v; want 3 fresh writes", res, err)
	}
	if v, _ := f.At(0, 2); v.Int64() != 7 {
		t.Fatalf("StoreAll overwrote a written position: %v", v)
	}
	if v, _ := f.At(0, 3); v.Int64() != 4 {
		t.Fatalf("StoreAll skipped a fresh position: %v", v)
	}

	// StoreSlice over the same region skips the overlap element-wise.
	res, err = f.StoreSlice(0, []SlabDim{{}}, ArrayFromInt32([]int32{9, 9, 9, 9}))
	if err != nil || res.Count != 0 {
		t.Fatalf("fully overlapping StoreSlice: %+v, %v; want zero writes", res, err)
	}
	if v, _ := f.At(0, 0); v.Int64() != 1 {
		t.Fatalf("StoreSlice overwrote a written position: %v", v)
	}

	// A completed age absorbs all store shapes silently.
	f.MarkComplete(0)
	if _, err := storeCell(f, 0, Int32Val(1), 0); err != nil {
		t.Fatalf("element store into complete age: %v", err)
	}
	if _, err := f.StoreAll(0, ArrayFromInt32([]int32{8})); err != nil {
		t.Fatalf("whole store into complete age: %v", err)
	}
	if _, err := f.StoreSlice(0, []SlabDim{{}}, ArrayFromInt32([]int32{8})); err != nil {
		t.Fatalf("slice store into complete age: %v", err)
	}
	if f.Writes(0) != 4 {
		t.Fatalf("writes after complete-age stores = %d, want 4", f.Writes(0))
	}
}

// TestMergeStoresOffKeepsWriteOnce: the merge escape hatch must not weaken
// the default write-once contract — duplicates still fail with ErrWriteTwice,
// including through the StoreSlice contiguous fast path, and a failed
// overlapping slice store must not leave partial written marks behind.
func TestMergeStoresOffKeepsWriteOnce(t *testing.T) {
	f := New("w", Int32, 1, true)
	if _, err := storeCell(f, 0, Int32Val(1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := storeCell(f, 0, Int32Val(2), 1); !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("duplicate store error = %v, want ErrWriteTwice", err)
	}
	// Contiguous slice overlapping position 1: must fail without marking
	// positions 0, 2, 3 written.
	if _, err := f.StoreSlice(0, []SlabDim{{}}, ArrayFromInt32([]int32{5, 6, 7, 8})); !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("overlapping slice store error = %v, want ErrWriteTwice", err)
	}
	if f.Writes(0) != 1 {
		t.Fatalf("failed slice store left %d writes, want 1", f.Writes(0))
	}
	if _, err := f.StoreAll(0, ArrayFromInt32([]int32{5, 6})); !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("overlapping StoreAll error = %v, want ErrWriteTwice", err)
	}
}
