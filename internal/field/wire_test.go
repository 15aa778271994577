package field

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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

func TestWireRegisteredPayload(t *testing.T) {
	type blob struct{ X int }
	RegisterPayload(blob{})
	data, err := encode(AnyVal(blob{42}))
	if err != nil {
		t.Fatal(err)
	}
	back, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Obj().(blob).X != 42 {
		t.Errorf("payload %v", back.Obj())
	}
}

// FuzzDecodeWireValue: decoding never panics, and whatever decodes
// re-encodes to bytes that decode to an equal value. Equality is judged on
// the re-encoding, byte for byte, because Value.Equal holds a NaN unequal to
// itself. Seeds are the values the round-trip tests use, whole, cut in half
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
		Float32Val(1.5), Float64Val(-0.25), StringVal("p2g"), AnyVal(42), {},
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
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeWireValue(data)
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
