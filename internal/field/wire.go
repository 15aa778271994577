package field

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// Wire format: a compact, length-prefixed binary encoding of Values and
// Arrays. Scalars encode as (version, kind, flags, payload); arrays add
// varint extents followed by the typed slab payload — raw bytes for
// uint8/bool slabs, fixed-width little-endian words for int32/int64/float64
// slabs — so a whole generation crosses the wire as one typed block instead
// of a gob-encoded Value per element. String/Any elements fall back to
// per-element recursion, with Any payloads carried by gob (register concrete
// types with RegisterPayload).

const wireVersion = 1

const (
	wireFlagArr = 1 << iota
	wireFlagObj
)

// anyBox wraps an interface payload so gob round-trips the concrete type.
type anyBox struct{ V any }

// RegisterPayload registers a concrete Go type carried inside Any values so
// it can cross node boundaries; it wraps gob.Register.
func RegisterPayload(v any) { gob.Register(v) }

func (v Value) appendWire(buf []byte) ([]byte, error) {
	flags := byte(0)
	if v.arr != nil {
		flags |= wireFlagArr
	}
	if v.obj != nil {
		flags |= wireFlagObj
	}
	buf = append(buf, wireVersion, byte(v.kind), flags)
	if v.arr != nil {
		return v.arr.appendWire(buf)
	}
	// Scalar payload. Any values keep whatever representation they carried
	// before conversion, so encode every channel that can be populated.
	switch {
	case v.kind == String:
		buf = appendString(buf, v.s)
	case v.kind == Any || v.kind == Invalid:
		buf = binary.AppendVarint(buf, v.i)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
		buf = appendString(buf, v.s)
	case v.kind.Float():
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
	default:
		buf = binary.AppendVarint(buf, v.i)
	}
	if v.obj != nil {
		var ob bytes.Buffer
		if err := gob.NewEncoder(&ob).Encode(anyBox{V: v.obj}); err != nil {
			return nil, fmt.Errorf("field: encoding payload: %w", err)
		}
		buf = binary.AppendUvarint(buf, uint64(ob.Len()))
		buf = append(buf, ob.Bytes()...)
	}
	return buf, nil
}

func (a *Array) appendWire(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(a.extents)))
	for _, e := range a.extents {
		buf = binary.AppendUvarint(buf, uint64(e))
	}
	switch a.data.class {
	case classU8:
		buf = append(buf, a.data.u8...)
	case classI32:
		for _, x := range a.data.i32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	case classI64:
		for _, x := range a.data.i64 {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case classF64:
		for _, x := range a.data.f64 {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	case classStr:
		// Arena payload: per element the len+1 code, then the raw bytes — no
		// per-element boxing or recursion. Unset (0) and empty ("" → 1) stay
		// distinct, matching the in-memory coding.
		for i, l := range a.data.lens {
			buf = binary.AppendUvarint(buf, uint64(l))
			if l > 0 {
				o := a.data.off[i]
				buf = append(buf, a.data.str[o:o+l-1]...)
			}
		}
	default:
		for _, v := range a.data.vs {
			eb, err := v.appendWire(nil)
			if err != nil {
				return nil, err
			}
			buf = binary.AppendUvarint(buf, uint64(len(eb)))
			buf = append(buf, eb...)
		}
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// wireReader is a cursor over an encoded buffer.
type wireReader struct {
	buf []byte
	off int
}

var errWireShort = fmt.Errorf("field: truncated wire value")

func (r *wireReader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.off {
		return nil, errWireShort
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wireReader) byte() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *wireReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errWireShort
	}
	r.off += n
	return x, nil
}

func (r *wireReader) varint() (int64, error) {
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, errWireShort
	}
	r.off += n
	return x, nil
}

func (r *wireReader) uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// AppendWireValue appends the wire-format v1 encoding of v to buf and
// returns the extended buffer, for embedding values inside larger frames (see
// runtime.StoreFrame): encoded values are self-delimiting, so no length
// prefix is needed.
func AppendWireValue(buf []byte, v Value) ([]byte, error) { return v.appendWire(buf) }

// DecodeWireValue decodes one wire-format value from the front of data and
// returns it together with the number of bytes consumed. Trailing bytes are
// left for the caller.
func DecodeWireValue(data []byte) (Value, int, error) {
	return DecodeWireValueInto(data, nil)
}

// DecodeWireValueInto is DecodeWireValue for a caller that uses the value and
// moves on: an array value is decoded into dst, reusing its extents and slab,
// and the returned Value wraps dst, so it is valid only until dst is reused.
// Scalars, and arrays nested inside an Any array, decode as DecodeWireValue
// decodes them. A nil dst allocates a fresh array.
func DecodeWireValueInto(data []byte, dst *Array) (Value, int, error) {
	r := wireReader{buf: data}
	var v Value
	if err := v.readWire(&r, dst); err != nil {
		return Value{}, 0, err
	}
	return v, r.off, nil
}

// readWire decodes one value; an array value lands in dst (nil: a fresh one).
func (v *Value) readWire(r *wireReader, dst *Array) error {
	ver, err := r.byte()
	if err != nil {
		return err
	}
	if ver != wireVersion {
		return fmt.Errorf("field: unknown wire version %d", ver)
	}
	kb, err := r.byte()
	if err != nil {
		return err
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	kind := Kind(kb)
	*v = Value{kind: kind}
	if flags&wireFlagArr != 0 {
		if dst == nil {
			dst = &Array{}
		}
		if err := readWireArray(r, kind, dst); err != nil {
			return err
		}
		v.arr = dst
		return nil
	}
	switch {
	case kind == String:
		if v.s, err = r.string(); err != nil {
			return err
		}
	case kind == Any || kind == Invalid:
		if v.i, err = r.varint(); err != nil {
			return err
		}
		bits, err := r.uint64()
		if err != nil {
			return err
		}
		v.f = math.Float64frombits(bits)
		if v.s, err = r.string(); err != nil {
			return err
		}
	case kind.Float():
		bits, err := r.uint64()
		if err != nil {
			return err
		}
		v.f = math.Float64frombits(bits)
	default:
		if v.i, err = r.varint(); err != nil {
			return err
		}
	}
	if flags&wireFlagObj != 0 {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		ob, err := r.take(int(n))
		if err != nil {
			return err
		}
		var box anyBox
		if err := gob.NewDecoder(bytes.NewReader(ob)).Decode(&box); err != nil {
			return fmt.Errorf("field: decoding payload: %w", err)
		}
		v.obj = box.V
	}
	return nil
}

func (r *wireReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// readWireArray decodes an array's extents and payload into a, which takes the
// decoded kind and shape whatever it held before.
func readWireArray(r *wireReader, kind Kind, a *Array) error {
	rank, err := r.uvarint()
	if err != nil {
		return err
	}
	if rank == 0 || rank > 64 {
		return fmt.Errorf("field: decoded array rank %d out of range", rank)
	}
	remaining := len(r.buf) - r.off
	var extBuf [8]int
	extents := extBuf[:0]
	zero := false
	for d := uint64(0); d < rank; d++ {
		e, err := r.uvarint()
		if err != nil {
			return err
		}
		if e > math.MaxInt {
			return fmt.Errorf("field: decoded array extent %d out of range", e)
		}
		extents = append(extents, int(e))
		zero = zero || e == 0
	}
	// An empty array carries no payload, whatever its other extents; every
	// element of a non-empty one costs at least a byte.
	if !zero {
		n := 1
		for _, e := range extents {
			if e > remaining {
				return errWireShort
			}
			n *= e
			if n > remaining {
				return errWireShort
			}
		}
	}
	// resetShape leaves String slots unset and Any slots zero, which the
	// payload loops below rely on; the typed classes are overwritten whole.
	a.resetShape(kind, extents)
	n := a.Len()
	switch a.data.class {
	case classU8:
		b, err := r.take(n)
		if err != nil {
			return err
		}
		copy(a.data.u8, b)
	case classI32:
		b, err := r.take(4 * n)
		if err != nil {
			return err
		}
		for i := range a.data.i32 {
			a.data.i32[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case classI64:
		b, err := r.take(8 * n)
		if err != nil {
			return err
		}
		for i := range a.data.i64 {
			a.data.i64[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case classF64:
		b, err := r.take(8 * n)
		if err != nil {
			return err
		}
		for i := range a.data.f64 {
			a.data.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case classStr:
		for i := 0; i < n; i++ {
			l, err := r.uvarint()
			if err != nil {
				return err
			}
			if l == 0 {
				continue // unset element
			}
			b, err := r.take(int(l - 1)) // bounds-checked against the buffer
			if err != nil {
				return err
			}
			a.data.off[i] = uint32(len(a.data.str))
			a.data.lens[i] = uint32(l)
			a.data.str = append(a.data.str, b...)
		}
	default:
		for i := range a.data.vs {
			en, err := r.uvarint()
			if err != nil {
				return err
			}
			eb, err := r.take(int(en))
			if err != nil {
				return err
			}
			er := &wireReader{buf: eb}
			if err := a.data.vs[i].readWire(er, nil); err != nil {
				return err
			}
			if er.off != len(eb) {
				return fmt.Errorf("field: trailing bytes in array element")
			}
		}
	}
	return nil
}
