package field

import (
	"testing"
	"testing/quick"
)

func TestNewArrayDefaults(t *testing.T) {
	a := NewArray(Int32)
	if a.Rank() != 1 || a.Extent(0) != 0 || a.Len() != 0 {
		t.Fatalf("default array should be rank-1 extent-0, got rank %d extent %d", a.Rank(), a.Extent(0))
	}
	b := NewArray(Float64, 2, 3)
	if b.Rank() != 2 || b.Len() != 6 {
		t.Fatalf("2x3 array: rank %d len %d", b.Rank(), b.Len())
	}
	if b.Extent(0) != 2 || b.Extent(1) != 3 || b.Extent(2) != 0 || b.Extent(-1) != 0 {
		t.Error("Extent bounds behaviour")
	}
}

func TestArraySetAt(t *testing.T) {
	a := NewArray(Int32, 2, 3)
	v := int32(0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(Int32Val(v), i, j)
			v++
		}
	}
	if a.At(1, 2).Int32() != 5 || a.At(0, 0).Int32() != 0 {
		t.Error("row-major layout broken")
	}
	if a.AtFlat(5).Int32() != 5 {
		t.Error("AtFlat disagrees with row-major order")
	}
	a.SetFlat(Int32Val(99), 0)
	if a.At(0, 0).Int32() != 99 {
		t.Error("SetFlat")
	}
}

func TestArrayOutOfBoundsPanics(t *testing.T) {
	a := NewArray(Int32, 2)
	for name, fn := range map[string]func(){
		"get-oob":      func() { a.At(2) },
		"get-rank":     func() { a.At(0, 0) },
		"set-oob":      func() { a.Set(Int32Val(1), -1) },
		"put-rank":     func() { a.Put(Int32Val(1), 0, 0) },
		"put-negative": func() { a.Put(Int32Val(1), -2) },
		"grow-rank":    func() { a.Grow(1, 1) },
		"grow-shrink":  func() { a.Grow(1) },
		"neg-extent":   func() { NewArray(Int32, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestArrayPutGrows(t *testing.T) {
	a := NewArray(Int32)
	for i := 0; i < 5; i++ {
		a.Put(Int32Val(int32(i+10)), i)
	}
	if a.Extent(0) != 5 {
		t.Fatalf("extent after puts = %d, want 5", a.Extent(0))
	}
	want := []int32{10, 11, 12, 13, 14}
	got := a.Int32s()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice = %v, want %v", got, want)
		}
	}
}

func TestArrayGrow2DPreservesCoordinates(t *testing.T) {
	a := NewArray(Int32, 2, 2)
	a.Set(Int32Val(1), 0, 0)
	a.Set(Int32Val(2), 0, 1)
	a.Set(Int32Val(3), 1, 0)
	a.Set(Int32Val(4), 1, 1)
	a.Grow(3, 4)
	if a.Extent(0) != 3 || a.Extent(1) != 4 {
		t.Fatalf("extents after grow: %v", a.Extents())
	}
	if a.At(0, 0).Int32() != 1 || a.At(0, 1).Int32() != 2 || a.At(1, 0).Int32() != 3 || a.At(1, 1).Int32() != 4 {
		t.Error("grow lost element coordinates")
	}
	if a.At(2, 3).Kind() != Invalid && a.At(2, 3).Int32() != 0 {
		t.Error("new elements should be zero")
	}
	// Growing to the same extents is a no-op.
	before := a.Len()
	a.Grow(3, 4)
	if a.Len() != before {
		t.Error("no-op grow reallocated")
	}
}

func TestArrayPut2D(t *testing.T) {
	a := NewArray(Int32, 1, 1)
	a.Put(Int32Val(7), 2, 3)
	if a.Extent(0) != 3 || a.Extent(1) != 4 {
		t.Fatalf("extents = %v", a.Extents())
	}
	if a.At(2, 3).Int32() != 7 {
		t.Error("put value lost")
	}
}

func TestArrayCloneIsDeep(t *testing.T) {
	a := ArrayFromInt32([]int32{1, 2, 3})
	c := a.Clone()
	c.Set(Int32Val(99), 0)
	if a.At(0).Int32() != 1 {
		t.Error("clone aliases original")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone should be Equal")
	}
	// Nested arrays are cloned too.
	outer := NewArray(Any, 1)
	inner := ArrayFromInt32([]int32{5})
	outer.Set(ArrayVal(inner), 0)
	oc := outer.Clone()
	oc.At(0).Array().Set(Int32Val(6), 0)
	if inner.At(0).Int32() != 5 {
		t.Error("nested clone aliases inner array")
	}
}

func TestArrayEqualEdgeCases(t *testing.T) {
	var nilA *Array
	if !nilA.Equal(nil) {
		t.Error("nil == nil")
	}
	if nilA.Equal(NewArray(Int32, 1)) {
		t.Error("nil != non-nil")
	}
	if NewArray(Int32, 2).Equal(NewArray(Int64, 2)) {
		t.Error("kind mismatch")
	}
	if NewArray(Int32, 2).Equal(NewArray(Int32, 3)) {
		t.Error("extent mismatch")
	}
	if NewArray(Int32, 2).Equal(NewArray(Int32, 2, 1)) {
		t.Error("rank mismatch")
	}
}

func TestArrayString2D(t *testing.T) {
	a := NewArray(Int32, 2, 2)
	a.Set(Int32Val(1), 0, 0)
	a.Set(Int32Val(2), 0, 1)
	a.Set(Int32Val(3), 1, 0)
	a.Set(Int32Val(4), 1, 1)
	if got := a.String(); got != "{{1, 2}, {3, 4}}" {
		t.Errorf("String() = %q", got)
	}
}

// Property: Put then At returns the stored value for arbitrary non-negative
// coordinates (bounded to keep allocation small).
func TestQuickPutAt(t *testing.T) {
	f := func(i, j uint8, v int32) bool {
		a := NewArray(Int32, 1, 1)
		x, y := int(i%32), int(j%32)
		a.Put(Int32Val(v), x, y)
		return a.At(x, y).Int32() == v && a.Extent(0) >= x+1 && a.Extent(1) >= y+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Grow never changes existing elements.
func TestQuickGrowPreserves(t *testing.T) {
	f := func(vals []int32, extra uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		a := ArrayFromInt32(vals)
		a.Grow(len(vals) + int(extra%16))
		for i, v := range vals {
			if a.At(i).Int32() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clone is Equal to its source and mutation-independent.
func TestQuickCloneEqual(t *testing.T) {
	f := func(vals []int32) bool {
		a := ArrayFromInt32(vals)
		c := a.Clone()
		if !a.Equal(c) {
			return false
		}
		if len(vals) > 0 {
			c.Set(Int32Val(c.At(0).Int32()+1), 0)
			if a.At(0).Int32() == c.At(0).Int32() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
