package field

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The wire form of field data: values, and the store frames the runtime
// builds from them (runtime.StoreFrame), in one []byte codec. A value is
//
//	value := version(1B) | kind(1B) | flags(1B) | payload
//
// A scalar's payload is a varint (integers and bools), 8 little-endian bytes
// (floats), a uvarint length and the bytes (strings), or all three (Any and
// Invalid, whose representation is whatever they were converted from). An
// array's (flags wireFlagArr) is its rank and extents as uvarints, then its
// typed slab: raw bytes for uint8 and bool, fixed-width little-endian words
// for int32, int64 and the floats, a len+1 uvarint code and the bytes per
// string element (0: unset), and one value per Any element. A Go object in an
// Any value does not cross at all: encoding it fails with ErrGoObject.

const wireVersion = 2

// wireFlagArr marks an array value; no other flag is defined.
const wireFlagArr = 1

const (
	// MaxWireRank bounds an array's rank and a store frame's selector.
	MaxWireRank = 64
	// maxWireNesting bounds how deep Any arrays nest, and so the decoder's
	// recursion.
	maxWireNesting = 64
)

// wireLeastAny is the least an Any element takes on the wire: a value's
// version, kind and flags, and a byte of payload.
const wireLeastAny = 4

// wireLeast is the least an element of each slab class takes on the wire.
var wireLeast = [numSlabClasses]int{classVal: wireLeastAny, classU8: 1, classI32: 4, classI64: 8, classF64: 8, classStr: 1}

var (
	// ErrGoObject is the error of encoding an Any value that holds a Go
	// object: such values stay on the node that made them.
	ErrGoObject = errors.New("field: a Go object does not cross a node boundary")

	errWireShort = errors.New("field: truncated wire data")
)

// Codec moves field data between its Go form and its wire form over one
// []byte. An encoder (Encoder) appends to Buf; a decoder (Decoder) reads Buf
// from its start, checking every length before it reads or allocates for it
// against the bytes left, less the least that the later elements of each Any
// array being decoded take. Each layout passes every item through one call
// that does whichever, so it is written once for both directions:
// Codec.Value here, the store frame's header and box entry in the runtime.
// The first failure sticks in Err, and every later call is a no-op.
type Codec struct {
	Buf  []byte
	off  int // decoding: the bytes read
	keep int // decoding: the bytes kept back for Any elements to come
	Err  error

	dec   bool
	depth int // the Any arrays around the value being coded
}

// Encoder returns a codec that appends to buf.
func Encoder(buf []byte) Codec { return Codec{Buf: buf} }

// Decoder returns a codec that reads data from its start.
func Decoder(data []byte) Codec { return Codec{Buf: data, dec: true} }

// Decoding reports whether the codec reads.
func (c *Codec) Decoding() bool { return c.dec }

// Fail records err, unless a failure is recorded already.
func (c *Codec) Fail(err error) {
	if c.Err == nil {
		c.Err = err
	}
}

// rest returns the bytes a decoder may still read.
func (c *Codec) rest() []byte { return c.Buf[c.off : len(c.Buf)-c.keep] }

// Left returns the number of bytes a decoder may still read.
func (c *Codec) Left() int { return len(c.rest()) }

// bytes codes n raw bytes: encoding, it appends n bytes for the caller to
// fill; decoding, it returns the next n, or nil when fewer are left.
func (c *Codec) bytes(n int) []byte {
	if !c.dec {
		c.Buf = slices.Grow(c.Buf, n)[:len(c.Buf)+n]
		return c.Buf[len(c.Buf)-n:]
	}
	if c.Err != nil || n < 0 || n > c.Left() {
		c.Fail(errWireShort)
		return nil
	}
	c.off += n
	return c.Buf[c.off-n : c.off : c.off]
}

// Byte codes one byte.
func (c *Codec) Byte(v *byte) {
	if b := c.bytes(1); b != nil && c.dec {
		*v = b[0]
	} else if b != nil {
		b[0] = *v
	}
}

// Int codes an integer as a varint.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	if c.varint(&x); c.dec {
		*v = int(x)
	}
}

func (c *Codec) varint(v *int64) {
	if !c.dec {
		c.Buf = binary.AppendVarint(c.Buf, *v)
		return
	}
	if c.Err != nil {
		return
	}
	if x, n := binary.Varint(c.rest()); n > 0 {
		c.off += n
		*v = x
	} else {
		c.Fail(errWireShort)
	}
}

// Count codes a length as a uvarint. Decoded, one above limit fails.
func (c *Codec) Count(n *int, limit int) {
	if !c.dec {
		c.Buf = binary.AppendUvarint(c.Buf, uint64(*n))
		return
	}
	if c.Err != nil {
		return
	}
	x, k := binary.Uvarint(c.rest())
	switch {
	case k <= 0:
		c.Fail(errWireShort)
	case x > uint64(limit):
		c.Fail(fmt.Errorf("field: wire count %d past %d", x, limit))
	default:
		c.off += k
		*n = int(x)
	}
}

// f64 codes a float as 8 little-endian bytes.
func (c *Codec) f64(v *float64) {
	b := c.bytes(8)
	switch {
	case b == nil:
	case c.dec:
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	default:
		binary.LittleEndian.PutUint64(b, math.Float64bits(*v))
	}
}

// Str codes a string: its length, then its bytes.
func (c *Codec) Str(v *string) {
	n := len(*v)
	c.Count(&n, c.Left())
	if b := c.bytes(n); b != nil && c.dec {
		*v = string(b)
	} else if b != nil {
		copy(b, *v)
	}
}

// Value codes one value. Decoded, an array value lands in dst, which takes
// the decoded kind and shape whatever it held (nil: a fresh array); arrays
// nested in an Any array always decode fresh.
func (c *Codec) Value(v *Value, dst *Array) {
	ver, kind, flags := byte(wireVersion), byte(v.kind), byte(0)
	if v.arr != nil {
		flags = wireFlagArr
	}
	if v.obj != nil && !c.dec {
		c.Fail(fmt.Errorf("%w: %T", ErrGoObject, v.obj))
		return
	}
	c.Byte(&ver)
	c.Byte(&kind)
	c.Byte(&flags)
	if c.dec {
		switch {
		case c.Err != nil:
			return
		case ver != wireVersion || Kind(kind) > Any || flags&^wireFlagArr != 0:
			c.Fail(fmt.Errorf("field: unknown wire value of version %d, kind %d, flags %#x", ver, kind, flags))
			return
		}
		*v = Value{kind: Kind(kind)}
		if flags == wireFlagArr {
			if dst == nil {
				dst = &Array{}
			}
			v.arr = dst
		}
	}
	switch {
	case v.arr != nil:
		c.array(v.kind, v.arr)
	case v.kind == String:
		c.Str(&v.s)
	case v.kind == Any || v.kind == Invalid:
		c.varint(&v.i)
		c.f64(&v.f)
		c.Str(&v.s)
	case v.kind.Float():
		c.f64(&v.f)
	default:
		c.varint(&v.i)
	}
}

// array codes an array of the given kind: its rank and extents, then its
// slab, whose element count, decoded, is checked before it is allocated.
func (c *Codec) array(kind Kind, a *Array) {
	rank := len(a.extents)
	if c.Count(&rank, MaxWireRank); c.Err == nil && rank == 0 {
		c.Fail(errors.New("field: wire array of rank 0"))
	}
	if c.Err != nil {
		return
	}
	var buf [MaxWireRank]int
	ext := a.extents
	if c.dec {
		ext = buf[:rank]
	}
	for d := range ext {
		c.Count(&ext[d], math.MaxInt)
	}
	if c.dec {
		// An empty array carries no payload, whatever its other extents.
		if !slices.Contains(ext, 0) {
			n, left := wireLeast[classOf(kind)], c.Left()
			for _, e := range ext {
				if n > left/e {
					c.Fail(errWireShort)
					break
				}
				n *= e
			}
		}
		if c.Err != nil {
			return
		}
		// resetShape leaves String slots unset and Any slots zero, which
		// the payload loops below rely on.
		a.resetShape(kind, ext)
	}
	s := &a.data
	switch s.class {
	case classU8:
		if b := c.bytes(len(s.u8)); c.dec {
			copy(s.u8, b)
		} else {
			copy(b, s.u8)
		}
	case classI32:
		b := c.bytes(4 * len(s.i32))
		switch {
		case c.Err != nil:
		case c.dec:
			for i := range s.i32 {
				s.i32[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
		default:
			// Appending into the bytes just reserved runs faster than
			// putting at offsets into them.
			b = b[:0]
			for _, x := range s.i32 {
				b = binary.LittleEndian.AppendUint32(b, uint32(x))
			}
		}
	case classI64:
		b := c.bytes(8 * len(s.i64))
		switch {
		case c.Err != nil:
		case c.dec:
			for i := range s.i64 {
				s.i64[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
			}
		default:
			b = b[:0]
			for _, x := range s.i64 {
				b = binary.LittleEndian.AppendUint64(b, uint64(x))
			}
		}
	case classF64:
		b := c.bytes(8 * len(s.f64))
		switch {
		case c.Err != nil:
		case c.dec:
			for i := range s.f64 {
				s.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		default:
			b = b[:0]
			for _, x := range s.f64 {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
		}
	case classStr:
		// Unset (0) and empty ("" → 1) stay distinct, as in memory.
		for i := range s.lens {
			l := int(s.lens[i])
			if c.Count(&l, c.Left()+1); l == 0 || c.Err != nil {
				continue
			}
			if b := c.bytes(l - 1); c.dec {
				s.off[i], s.lens[i] = uint32(len(s.str)), uint32(l)
				s.str = append(s.str, b...)
			} else {
				copy(b, s.str[s.off[i]:])
			}
		}
	default:
		if c.depth++; c.depth > maxWireNesting {
			c.Fail(fmt.Errorf("field: Any arrays nested past %d", maxWireNesting))
		}
		for i := range s.vs {
			// Element i may not read, or count on, what the rest take.
			keep := 0
			if c.dec {
				if keep = (len(s.vs) - i - 1) * wireLeastAny; c.Left() < keep+wireLeastAny {
					c.Fail(errWireShort)
				}
			}
			if c.Err != nil {
				break
			}
			c.keep += keep
			c.Value(&s.vs[i], nil)
			c.keep -= keep
		}
		c.depth--
	}
}

// AppendWireValue appends the wire encoding of v to buf. Encoded values are
// self-delimiting, so they embed in larger frames (runtime.StoreFrame)
// without a length prefix. A Go object in v fails with ErrGoObject.
func AppendWireValue(buf []byte, v Value) ([]byte, error) {
	c := Encoder(buf)
	if c.Value(&v, nil); c.Err != nil {
		return nil, c.Err
	}
	return c.Buf, nil
}

// DecodeWireValue decodes one value from the front of data and returns it
// with the number of bytes consumed. Trailing bytes are left for the caller.
func DecodeWireValue(data []byte) (Value, int, error) {
	c := Decoder(data)
	var v Value
	if c.Value(&v, nil); c.Err != nil {
		return Value{}, 0, c.Err
	}
	return v, c.off, nil
}
