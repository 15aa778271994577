package field

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// storeCell stores v at coordinates idx of generation age of f: the one-cell
// box whose selector fixes every dimension.
func storeCell(f *Field, age int, v Value, idx ...int) (StoreResult, error) {
	sel := make([]SlabDim, len(idx))
	for d, c := range idx {
		sel[d] = SlabDim{Fixed: true, Index: c}
	}
	cell := NewArray(f.Kind(), 1)
	cell.SetFlat(v, 0)
	return f.StoreBoxes(age, sel, nil, cell)
}

func TestFieldBasics(t *testing.T) {
	f := New("m_data", Int32, 1, true)
	if f.Name() != "m_data" || f.Kind() != Int32 || f.Rank() != 1 || !f.Aged() {
		t.Fatal("metadata accessors")
	}
	if _, ok := f.At(0, 0); ok {
		t.Error("unwritten element should not be readable")
	}
	res, err := storeCell(f, 0, Int32Val(42), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Grew || res.Extents()[0] != 4 || res.Count != 1 {
		t.Errorf("store result %+v", res)
	}
	v, ok := f.At(0, 3)
	if !ok || v.Int32() != 42 {
		t.Error("read back stored element")
	}
	if _, ok := f.At(0, 2); ok {
		t.Error("gap element should not read as written")
	}
	if f.Writes(0) != 1 {
		t.Error("write count")
	}
}

func TestFieldWriteOnce(t *testing.T) {
	f := New("x", Int32, 1, true)
	if _, err := storeCell(f, 0, Int32Val(1), 0); err != nil {
		t.Fatal(err)
	}
	_, err := storeCell(f, 0, Int32Val(2), 0)
	if !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("second store should violate write-once, got %v", err)
	}
	// Same index, higher age is allowed (aging).
	if _, err := storeCell(f, 1, Int32Val(2), 0); err != nil {
		t.Fatalf("aged store should succeed: %v", err)
	}
	v, _ := f.At(0, 0)
	if v.Int32() != 1 {
		t.Error("failed store must not overwrite")
	}
}

func TestFieldStoreAll(t *testing.T) {
	f := New("vals", Int32, 1, true)
	a := ArrayFromInt32([]int32{10, 11, 12, 13, 14})
	res, err := f.StoreAll(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 5 || res.Extents()[0] != 5 || !res.Grew {
		t.Errorf("store-all result %+v", res)
	}
	snap := f.Snapshot(0)
	if !snap.Equal(a) {
		t.Errorf("snapshot %v != stored %v", snap, a)
	}
	// Overlapping whole-field store violates write-once.
	if _, err := f.StoreAll(0, ArrayFromInt32([]int32{1})); !errors.Is(err, ErrWriteTwice) {
		t.Errorf("overlapping StoreAll: %v", err)
	}
	// Element store into covered region also fails.
	if _, err := storeCell(f, 0, Int32Val(9), 2); !errors.Is(err, ErrWriteTwice) {
		t.Errorf("element store into covered region: %v", err)
	}
	// Element store past the covered region succeeds.
	if _, err := storeCell(f, 0, Int32Val(9), 7); err != nil {
		t.Errorf("element store past region: %v", err)
	}
}

func TestFieldStoreAllRankMismatch(t *testing.T) {
	f := New("m", Int32, 2, true)
	if _, err := f.StoreAll(0, ArrayFromInt32([]int32{1})); err == nil {
		t.Error("rank mismatch should fail")
	}
	if _, err := storeCell(f, 0, Int32Val(1), 0); err == nil {
		t.Error("element store rank mismatch should fail")
	}
	if _, err := storeCell(f, 0, Int32Val(1), 0, -1); err == nil {
		t.Error("negative index should fail")
	}
}

func TestFieldGrowthRemaps2D(t *testing.T) {
	f := New("m", Int32, 2, true)
	if _, err := storeCell(f, 0, Int32Val(1), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := storeCell(f, 0, Int32Val(2), 2, 3); err != nil {
		t.Fatal(err)
	}
	v, ok := f.At(0, 0, 0)
	if !ok || v.Int32() != 1 {
		t.Error("growth lost earlier element")
	}
	v, ok = f.At(0, 2, 3)
	if !ok || v.Int32() != 2 {
		t.Error("growth lost later element")
	}
	ext := f.Extents(0)
	if ext[0] != 3 || ext[1] != 4 {
		t.Errorf("extents %v", ext)
	}
}

func TestFieldAges(t *testing.T) {
	f := New("m", Int32, 1, true)
	for a := 0; a < 4; a++ {
		if _, err := storeCell(f, a, Int32Val(int32(a*10)), 0); err != nil {
			t.Fatal(err)
		}
	}
	ages := f.Ages()
	if len(ages) != 4 {
		t.Fatalf("ages %v", ages)
	}
	for a := 0; a < 4; a++ {
		v, ok := f.At(a, 0)
		if !ok || v.Int32() != int32(a*10) {
			t.Errorf("age %d value", a)
		}
	}
}

func TestFieldNonAged(t *testing.T) {
	f := New("m", Int32, 1, false)
	if _, err := storeCell(f, 0, Int32Val(1), 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("storing to age 1 of non-aged field should panic")
		}
	}()
	_, _ = storeCell(f, 1, Int32Val(1), 0)
}

// complete reports whether the age has been marked complete: only then does
// PinView grant a view.
func complete(f *Field, age int) bool {
	t, ok := f.PinView(age)
	t.Release()
	return ok
}

func TestFieldCompleteGating(t *testing.T) {
	f := New("m", Int32, 1, true)
	if complete(f, 0) {
		t.Error("fresh age should not be complete")
	}
	f.MarkComplete(0)
	if !complete(f, 0) {
		t.Error("MarkComplete")
	}
	if _, err := storeCell(f, 0, Int32Val(1), 0); err == nil {
		t.Error("store after complete must fail")
	}
	f.MarkComplete(0) // idempotent
	if !complete(f, 0) {
		t.Error("idempotent MarkComplete")
	}
	if complete(f, 5) {
		t.Error("other ages unaffected")
	}
}

func TestFieldGC(t *testing.T) {
	f := New("m", Int32, 1, true)
	for a := 0; a < 10; a++ {
		if _, err := storeCell(f, a, Int32Val(1), 0); err != nil {
			t.Fatal(err)
		}
	}
	before := f.MemoryElems()
	if before != 10 {
		t.Fatalf("memory elems before GC = %d", before)
	}
	for a := 0; a < 7; a++ {
		if !f.DropAge(a) {
			t.Fatalf("age %d was not live", a)
		}
	}
	if f.DropAge(3) {
		t.Error("a collected age reported live")
	}
	if f.MemoryElems() != 3 {
		t.Errorf("memory elems after GC = %d", f.MemoryElems())
	}
	if _, ok := f.At(3, 0); ok {
		t.Error("collected age must not be readable")
	}
	if _, ok := f.At(8, 0); !ok {
		t.Error("live age must stay readable")
	}
}

func TestFieldSnapshotMissingAge(t *testing.T) {
	f := New("m", Int32, 2, true)
	s := f.Snapshot(5)
	if s.Rank() != 2 || s.Len() != 0 {
		t.Errorf("snapshot of missing age: rank %d len %d", s.Rank(), s.Len())
	}
	ext := f.Extents(5)
	if ext[0] != 0 || ext[1] != 0 {
		t.Errorf("extents of missing age %v", ext)
	}
	if f.Writes(5) != 0 {
		t.Error("writes of missing age")
	}
}

func TestFieldRankValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rank 0 should panic")
		}
	}()
	New("bad", Int32, 0, false)
}

func TestFieldConcurrentStores(t *testing.T) {
	f := New("m", Int32, 1, true)
	const n = 1000
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := storeCell(f, 0, Int32Val(int32(i)), i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f.Writes(0) != n {
		t.Fatalf("writes = %d", f.Writes(0))
	}
	for i := 0; i < n; i++ {
		v, ok := f.At(0, i)
		if !ok || v.Int32() != int32(i) {
			t.Fatalf("element %d lost during concurrent growth", i)
		}
	}
}

func TestFieldConcurrentWriteOnceRace(t *testing.T) {
	// Many goroutines race to write the same cell; exactly one must win.
	f := New("m", Int32, 1, true)
	const n = 64
	var wg sync.WaitGroup
	wins := make(chan int32, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := storeCell(f, 0, Int32Val(int32(i)), 0); err == nil {
				wins <- int32(i)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []int32
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("expected exactly 1 winner, got %d", len(winners))
	}
	v, _ := f.At(0, 0)
	if v.Int32() != winners[0] {
		t.Error("stored value is not the winner's")
	}
}

// Property: storing a random permutation of indices element-by-element and
// then snapshotting equals storing the whole array at once.
func TestQuickElementVsWholeStore(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) > 128 {
			vals = vals[:128]
		}
		whole := New("w", Int32, 1, true)
		if _, err := whole.StoreAll(0, ArrayFromInt32(vals)); err != nil {
			return false
		}
		elem := New("e", Int32, 1, true)
		// Store back-to-front to exercise growth remapping.
		for i := len(vals) - 1; i >= 0; i-- {
			if _, err := storeCell(elem, 0, Int32Val(vals[i]), i); err != nil {
				return false
			}
		}
		return whole.Snapshot(0).Equal(elem.Snapshot(0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: write-once holds for any sequence of (age, index) store attempts —
// a duplicate (age, index) pair always errors, a fresh pair always succeeds.
func TestQuickWriteOnce(t *testing.T) {
	type op struct{ Age, Idx uint8 }
	f := func(ops []op) bool {
		fld := New("m", Int32, 1, true)
		seen := map[[2]int]bool{}
		for _, o := range ops {
			a, i := int(o.Age%8), int(o.Idx%8)
			_, err := storeCell(fld, a, Int32Val(1), i)
			dup := seen[[2]int{a, i}]
			if dup && !errors.Is(err, ErrWriteTwice) {
				return false
			}
			if !dup && err != nil {
				return false
			}
			seen[[2]int{a, i}] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
