package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// encode is the wire encoding of v on its own.
func encode(v Value) ([]byte, error) { return AppendWireValue(nil, v) }

// decode decodes data as exactly one wire value: trailing bytes are an error.
func decode(data []byte) (Value, error) {
	v, n, err := DecodeWireValue(data)
	if err == nil && n != len(data) {
		err = fmt.Errorf("%d trailing bytes after wire value", len(data)-n)
	}
	return v, err
}

// roundTrips reports whether the array survives an encode/decode round trip.
func roundTrips(a *Array) bool {
	data, err := encode(ArrayVal(a))
	if err != nil {
		return false
	}
	back, err := decode(data)
	return err == nil && back.Array().Equal(a)
}

// Property: scalar values of every numeric kind survive wire round trips.
func TestQuickWireScalars(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		for _, v := range []Value{
			Int64Val(i), Float64Val(fl), StringVal(s), BoolVal(b),
			Int32Val(int32(i)), Uint8Val(uint8(i)), Float32Val(float32(fl)),
		} {
			data, err := encode(v)
			if err != nil {
				return false
			}
			back, err := decode(data)
			if err != nil || !back.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: rank-1 and rank-2 arrays survive wire round trips.
func TestQuickWireArrays(t *testing.T) {
	f := func(vals []int32, w uint8) bool {
		if !roundTrips(ArrayFromInt32(vals)) {
			return false
		}
		// rank-2
		cols := int(w%4) + 1
		m := NewArray(Float64, 3, cols)
		for i := 0; i < m.Len(); i++ {
			m.SetFlat(Float64Val(float64(i)*0.5), i)
		}
		return roundTrips(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWireDecodeErrors(t *testing.T) {
	if _, err := decode([]byte("garbage")); err == nil {
		t.Error("garbage should fail to decode")
	}
	// Rank 0 and ranks past the guard are refused before any allocation.
	for _, rank := range []byte{0, 65} {
		if _, err := decode([]byte{wireVersion, byte(Int32), wireFlagArr, rank}); err == nil {
			t.Errorf("array of rank %d decoded", rank)
		}
	}
	// A length near MaxInt must not wrap the bounds check into a slice panic.
	if _, err := decode(binary.AppendUvarint([]byte{wireVersion, byte(String), 0}, math.MaxInt)); err == nil {
		t.Error("string longer than the buffer decoded")
	}
	// An empty array has no payload however wide its other extents are.
	if !roundTrips(NewArray(Int32, 0, 3)) {
		t.Error("empty 0x3 array does not round-trip")
	}
	// Any arrays nest 64 deep, and no deeper: the decoder recurses per level.
	nested := NewArray(Int32, 1)
	for depth := 1; depth <= maxWireNesting+1; depth++ {
		outer := NewArray(Any, 1)
		outer.SetFlat(ArrayVal(nested), 0)
		nested = outer
		if _, err := encode(ArrayVal(nested)); (err == nil) != (depth <= maxWireNesting) {
			t.Errorf("Any arrays nested %d deep: encode returned %v", depth, err)
		}
	}
	if !roundTrips(nested.AtFlat(0).Array()) {
		t.Errorf("Any arrays nested %d deep do not round-trip", maxWireNesting)
	}
}

// Property: String arrays — including unset slots and empty strings, which
// the arena codes distinctly — survive round trips through the per-element
// uvarint+bytes payload.
func TestQuickWireStringArrays(t *testing.T) {
	f := func(vals []string, skip uint8) bool {
		n := len(vals) + 1
		a := NewArray(String, n)
		for i, s := range vals {
			if skip > 0 && i%int(skip) == 0 {
				continue // leave unset: lens==0 must survive the round trip
			}
			a.SetFlat(StringVal(s), i)
		}
		a.SetFlat(StringVal(""), n-1) // empty-but-set is distinct from unset
		data, err := encode(ArrayVal(a))
		if err != nil {
			return false
		}
		back, err := decode(data)
		if err != nil || !back.Array().Equal(a) {
			return false
		}
		// Unset slots must decode as unset (Invalid), not as "".
		return !back.Array().AtFlat(n - 1).Equal(Value{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Any arrays (the boxed fallback) still round-trip after the arena
// split moved String out of classVal.
func TestQuickWireAnyArrays(t *testing.T) {
	f := func(is []int64) bool {
		a := NewArray(Any, len(is)+1)
		for i, x := range is {
			if i%2 == 0 {
				a.SetFlat(Int64Val(x), i)
			} else {
				a.SetFlat(StringVal(fmt.Sprintf("v%d", x)), i)
			}
		}
		return roundTrips(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWireStringArrayTruncation decodes every proper prefix of an encoded
// String array: each must fail cleanly (or decode to a valid value), never
// panic or over-read.
func TestWireStringArrayTruncation(t *testing.T) {
	a := NewArray(String, 8)
	for i := 0; i < 8; i += 2 { // every other slot unset
		a.SetFlat(StringVal(fmt.Sprintf("element-%d-payload", i)), i)
	}
	data, err := encode(ArrayVal(a))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := decode(data[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(data))
		}
	}
}

// TestWireStringArrayCorruption flips each byte of an encoded String array;
// decode must never panic, and huge corrupted lengths must be rejected by
// the bounds checks rather than trigger giant allocations.
func TestWireStringArrayCorruption(t *testing.T) {
	a := NewArray(String, 6)
	for i := 0; i < 6; i++ {
		a.SetFlat(StringVal(fmt.Sprintf("row-%d", i)), i)
	}
	data, err := encode(ArrayVal(a))
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(data))
	for pos := 0; pos < len(data); pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			copy(mut, data)
			mut[pos] ^= flip
			// Error or success are both fine; panics and over-reads are not.
			_, _ = decode(mut)
		}
	}
}

// TestWireRefusesGoObject: a Go object in an Any value, alone or as an
// element of an Any array, does not encode, and the decoder refuses the
// object flag that once carried one.
func TestWireRefusesGoObject(t *testing.T) {
	type blob struct{ X int }
	anys := NewArray(Any, 3)
	anys.SetFlat(Int64Val(1), 0)
	anys.SetFlat(AnyVal(&blob{42}), 2)
	for _, v := range []Value{AnyVal(blob{42}), AnyVal([]byte("jpeg")), ArrayVal(anys)} {
		if data, err := encode(v); !errors.Is(err, ErrGoObject) || data != nil {
			t.Errorf("%v encoded as %x, %v; want ErrGoObject", v, data, err)
		}
	}
	data, err := encode(Int64Val(7).Convert(Any))
	if err != nil {
		t.Fatal(err)
	}
	data[2] |= 2
	if v, err := decode(data); err == nil {
		t.Errorf("a value with the object flag decoded as %v", v)
	}
}

// wireGrowth and wireSlack bound what decoding may allocate for n wire
// bytes, as the transport bounds a received stream (allocBound in
// internal/dist): 64 bytes per wire byte, plus 1 MiB.
const (
	wireGrowth = 64
	wireSlack  = 1 << 20
)

// allocated reports what f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireAnyArrayBounded: an Any array of 4 096 elements decodes within the
// transport's bound whatever its elements are — scalars, strings or the
// empty arrays that cost the decoder most per wire byte — and one of 4 096 Go
// objects, which cost 120 bytes per wire byte through a per-object gob
// stream, is refused when it is encoded.
func TestWireAnyArrayBounded(t *testing.T) {
	for name, elem := range map[string]func(i int) Value{
		"int":         func(i int) Value { return Int64Val(int64(i)) },
		"string":      func(i int) Value { return StringVal("") },
		"empty array": func(i int) Value { return ArrayVal(NewArray(Int32, 0)) },
		"byte array":  func(i int) Value { return ArrayVal(ArrayFromUint8([]uint8{uint8(i)})) },
		"go object":   func(i int) Value { return AnyVal([]byte{1, 2, 3}) },
	} {
		a := NewArray(Any, 4096)
		for i := 0; i < a.Len(); i++ {
			a.SetFlat(elem(i), i)
		}
		data, err := encode(ArrayVal(a))
		if name == "go object" {
			if !errors.Is(err, ErrGoObject) {
				t.Errorf("%s: encode returned %v, want ErrGoObject", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Value
		grew := allocated(func() { back, err = decode(data) })
		if err != nil || !back.Equal(ArrayVal(a)) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
		if bound := uint64(wireGrowth*len(data) + wireSlack); grew > bound {
			t.Errorf("%s: %d wire bytes allocated %d, want at most %d", name, len(data), grew, bound)
		}
	}
}

// overstatedAny is depth Any arrays, each the first element of the one
// around it and each claiming a quarter of the body in elements, around a
// body of k empty arrays of five bytes each: the elements that cost the
// decoder most.
func overstatedAny(depth, k int) []byte {
	body := bytes.Repeat([]byte{wireVersion, byte(Int32), wireFlagArr, 1, 0}, k)
	var data []byte
	for range depth {
		data = binary.AppendUvarint(append(data, wireVersion, byte(Any), wireFlagArr, 1), uint64(len(body)/4))
	}
	return append(data, body...)
}

// TestWireAnyCountOverstated: Any arrays whose counts claim more elements
// than their bytes hold fail within the transport's bound, whether one array
// overstates or each of many nested ones claims the bytes that the arrays
// around it keep for their own elements.
func TestWireAnyCountOverstated(t *testing.T) {
	for _, tc := range []struct{ depth, k int }{{1, 1 << 18}, {8, 1 << 16}, {maxWireNesting, 1 << 13}} {
		data := overstatedAny(tc.depth, tc.k)
		var err error
		grew := allocated(func() { _, err = decode(data) })
		if err == nil {
			t.Fatalf("depth %d: an overstated count decoded", tc.depth)
		}
		if bound := uint64(wireGrowth*len(data) + wireSlack); grew > bound {
			t.Errorf("depth %d: %d wire bytes allocated %d, want at most %d", tc.depth, len(data), grew, bound)
		}
	}
}

// FuzzDecodeWireValue: decoding never panics, it allocates within the
// transport's bound, and whatever decodes re-encodes to bytes that decode to
// an equal value. Equality is judged on the re-encoding, byte for byte,
// because Value.Equal holds a NaN unequal to itself. Seeds are the values the round-trip tests use, whole, cut in half
// and with one byte flipped.
func FuzzDecodeWireValue(f *testing.F) {
	strs := NewArray(String, 4)
	strs.SetFlat(StringVal("row"), 0)
	strs.SetFlat(StringVal(""), 2)
	anys := NewArray(Any, 3)
	anys.SetFlat(Int64Val(-9), 0)
	anys.SetFlat(ArrayVal(ArrayFromInt32([]int32{4, 5})), 1)
	m := NewArray(Float64, 2, 3)
	m.SetFlat(Float64Val(2.5), 4)
	for _, v := range []Value{
		Int32Val(-7), Int64Val(1 << 40), Uint8Val(200), BoolVal(true),
		Float32Val(1.5), Float64Val(-0.25), StringVal("p2g"), Int64Val(42).Convert(Any), {},
		ArrayVal(ArrayFromUint8([]uint8{1, 2, 3})), ArrayVal(ArrayFromInt32([]int32{-1, 1 << 20})),
		ArrayVal(NewArray(Int64, 2)), ArrayVal(NewArray(Bool, 0)), ArrayVal(m),
		ArrayVal(strs), ArrayVal(anys),
	} {
		data, err := encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-1] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte("garbage"))
	f.Add(overstatedAny(5, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			v   Value
			n   int
			err error
		)
		grew := allocated(func() { v, n, err = DecodeWireValue(data) })
		if bound := uint64(wireGrowth*len(data) + wireSlack); grew > bound {
			t.Fatalf("%d wire bytes allocated %d, want at most %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		enc, err := encode(v)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", v, err)
		}
		back, err := decode(enc)
		if err != nil {
			t.Fatalf("re-encoding of %v does not decode: %v", v, err)
		}
		again, err := encode(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("%v re-decoded as %v (%v)", v, back, err)
		}
	})
}

// wireStore is one box store of the StoreWire tests: sel, and the cells.
type wireStore struct {
	sel   []SlabDim
	cells *Array
}

// storeBoth applies stores to two fresh fields of kind and rank at age 0 —
// one through StoreSlice, one through StoreWire from each store's wire bytes
// — with the given merge mode, and fails unless every store has the same
// result on both and the generations end up equal. It returns the wire
// field's cells of the last store, as StoreWire left them.
func storeBoth(t *testing.T, kind Kind, rank int, merge bool, stores []wireStore) *WireCells {
	t.Helper()
	slice, wire := New("s", kind, rank, true), New("w", kind, rank, true)
	slice.SetMergeStores(merge)
	wire.SetMergeStores(merge)
	defer slice.Release()
	defer wire.Release()
	var cells WireCells
	for i, st := range stores {
		want, werr := slice.StoreSlice(0, st.sel, st.cells)
		data, err := encode(ArrayVal(st.cells))
		if err != nil {
			t.Fatal(err)
		}
		c := Decoder(data)
		if c.Cells(&cells); c.Err != nil || c.Left() != 0 {
			t.Fatalf("store %d: reading cells: %v, %d bytes left", i, c.Err, c.Left())
		}
		got, gerr := wire.StoreWire(0, st.sel, &cells)
		if (gerr != nil) != (werr != nil) || got.Grew != want.Grew || got.Count != want.Count ||
			fmt.Sprint(got.Extents()) != fmt.Sprint(want.Extents()) {
			t.Fatalf("store %d: StoreWire %+v (%v), StoreSlice %+v (%v)", i, got, gerr, want, werr)
		}
	}
	if got, want := wire.Snapshot(0), slice.Snapshot(0); !got.Equal(want) || wire.Writes(0) != slice.Writes(0) {
		t.Fatalf("StoreWire left %v (%d written), StoreSlice %v (%d written)", got, wire.Writes(0), want, slice.Writes(0))
	}
	return &cells
}

// filled is an array of kind and extents whose cells count up from first.
func filled(kind Kind, first int, ext ...int) *Array {
	a := NewArray(kind, ext...)
	for i := 0; i < a.Len(); i++ {
		a.SetFlat(Int64Val(int64(first+i)), i)
	}
	return a
}

// TestStoreWireMatchesStoreSlice: a box stored from its wire bytes lands as
// the decoded box stored by StoreSlice does, whether it takes the one-copy
// path or not, and a box that is one run of unwritten cells of the same
// representation takes it: its cells are never decoded anywhere else.
func TestStoreWireMatchesStoreSlice(t *testing.T) {
	row := func(i int, a *Array) wireStore { return wireStore{[]SlabDim{{Fixed: true, Index: i}, {}}, a} }
	whole := func(a *Array) wireStore { return wireStore{[]SlabDim{{}, {}}, a} }
	for _, tc := range []struct {
		name    string
		kind    Kind
		merge   bool
		stores  []wireStore
		oneCopy bool // the last store takes the one-copy path
	}{
		{"rows in order", Uint8, false, []wireStore{row(0, filled(Uint8, 1, 4)), row(1, filled(Uint8, 5, 4)), row(2, filled(Uint8, 9, 4))}, true},
		{"rows out of order", Int32, false, []wireStore{row(2, filled(Int32, 9, 4)), row(0, filled(Int32, 1, 4)), row(1, filled(Int32, -5, 4))}, true},
		{"whole", Float64, false, []wireStore{whole(filled(Float64, 3, 5, 3))}, true},
		{"float32 from float64", Float32, false, []wireStore{whole(filled(Float64, 3, 2, 2))}, true},
		{"uint8 from bool", Uint8, false, []wireStore{whole(filled(Bool, 0, 2, 2))}, true},
		{"int64 from int32", Int64, false, []wireStore{whole(filled(Int32, -2, 3, 2))}, false},
		{"column", Int64, false, []wireStore{whole(filled(Int64, 0, 3, 2)), {[]SlabDim{{}, {Fixed: true, Index: 2}}, filled(Int64, 7, 3)}}, false},
		{"cells", Int32, false, []wireStore{{[]SlabDim{{Index: 1}, {Index: 3}}, filled(Int32, 4, 1, 1)}, {[]SlabDim{{Index: 0}, {Index: 0}}, filled(Int32, 8, 1, 1)}}, true},
		{"written twice", Uint8, false, []wireStore{row(0, filled(Uint8, 1, 4)), row(0, filled(Uint8, 2, 4))}, false},
		{"merged", Uint8, true, []wireStore{row(0, filled(Uint8, 1, 4)), whole(filled(Uint8, 2, 3, 4))}, false},
		{"strings", String, false, []wireStore{row(0, NewArray(String, 4))}, false},
		{"rank mismatch", Uint8, false, []wireStore{row(0, filled(Uint8, 1, 2, 2))}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if cells := storeBoth(t, tc.kind, 2, tc.merge, tc.stores); cells.lazy != tc.oneCopy {
				t.Errorf("last store decoded its cells apart: %v, want %v", !cells.lazy, !tc.oneCopy)
			}
		})
	}
}

// TestStoreWireZeroesWhatItSkips: a generation grown into recycled capacity
// by stores from the wire reads zero in every cell they did not write, though
// the cells they wrote were not zeroed first: a row past the end, then a cell
// past it that leaves cells after it unwritten.
func TestStoreWireZeroesWhatItSkips(t *testing.T) {
	DrainAgePoolsForTest()
	f := New("f", Int32, 2, true)
	defer f.Release()
	if _, err := f.StoreSlice(0, []SlabDim{{}, {}}, filled(Int32, 1, 8, 4)); err != nil {
		t.Fatal(err)
	}
	f.DropAge(0) // its slab, full of non-zero cells, goes to the pool
	var cells WireCells
	store := func(sel []SlabDim, a *Array) {
		t.Helper()
		data, err := encode(ArrayVal(a))
		if err != nil {
			t.Fatal(err)
		}
		c := Decoder(data)
		if c.Cells(&cells); !cells.lazy {
			t.Fatalf("cells of %v decoded", a)
		}
		if _, err := f.StoreWire(1, sel, &cells); err != nil || !cells.lazy {
			t.Fatalf("storing %v at %v: %v, one copy %v", a, sel, err, cells.lazy)
		}
	}
	store([]SlabDim{{Fixed: true, Index: 0}, {}}, filled(Int32, 100, 4))
	store([]SlabDim{{Fixed: true, Index: 5}, {Index: 1}}, filled(Int32, 200, 1))
	got := f.Snapshot(1).Int32s()
	for i, v := range got {
		want := int32(0)
		switch {
		case i < 4:
			want = int32(100 + i)
		case i == 21:
			want = 200
		}
		if v != want {
			t.Fatalf("cell %d of %v is %d, want %d", i, got, v, want)
		}
	}
}
