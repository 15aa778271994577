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
