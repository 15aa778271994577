package runtime

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"repro/internal/field"
)

// Store frames: the batched wire form of store notices. A frame carries every
// store of one field generation that a node produced since the last flush,
// encoded back-to-back in the typed wire format v1 (internal/field/wire.go),
// so a generation crosses the dist transport as one typed block instead of a
// gob-encoded boxed Value per store. The header names the field and age once;
// each entry then holds only its addressing mode (element coordinates or slab
// selector — a whole-field store is the selector that fixes no dimension) and
// the raw typed payload.
//
// Layout:
//
//	frame := version(1B) | len(field) uvarint | field bytes | age varint | entry*
//	entry := mode(1B) | mode header | wire value (self-delimiting)
//	  mode 0 (element): rank uvarint, rank coordinates (varint each)
//	  mode 2 (slab):    rank uvarint, per dim: fixed(1B), index varint if fixed
//
// Entries run to the end of the buffer; wire values are self-delimiting so no
// per-entry length prefix is needed. Decode is overflow-guarded: ranks are
// bounded and every count is checked against the remaining bytes before
// allocation.

// storeFrameVersion is the frame header version byte. The value format inside
// entries is versioned separately (wire format v1).
const storeFrameVersion = 1

// Entry addressing modes. Mode 1, a whole-field entry without a selector, is
// retired and refused by the decoder.
const (
	frameModeElem byte = 0
	frameModeSlab byte = 2
)

// frameMaxRank bounds coordinate and selector ranks during decode, mirroring
// the wire format's array-rank guard.
const frameMaxRank = 64

// StoreFrame accumulates store notices for one field generation into a single
// wire frame. The zero value is unusable; call Reset first. A StoreFrame is
// not safe for concurrent use (the dist batcher serializes access).
//
// Large typed-slab payloads are recorded scatter-gather style: instead of
// copying the slab bytes into buf, Add appends only the wire header and keeps
// a segment referencing the slab directly. Segments() exposes the frame as a
// net.Buffers vector so a transport can writev it straight to the socket;
// AppendTo flattens it when a contiguous copy is needed. Either way the bytes
// are identical to the all-copying encoder.
type StoreFrame struct {
	buf      []byte
	entries  int
	segs     []frameSeg
	segBytes int
}

// frameSeg is one zero-copy payload segment: data (aliasing a field slab, not
// owned by the frame) belongs between buf[:bufOff] and buf[bufOff:]. Offsets
// are recorded instead of sub-slices of buf because buf may grow (and move)
// as later entries append.
type frameSeg struct {
	bufOff int
	data   []byte
}

// frameSegMin is the minimum payload size Add records as a segment; smaller
// payloads copy inline, where the two extra vector entries would cost more
// than the copy.
const frameSegMin = 64

// Reset re-targets the frame at one field generation, dropping any previous
// contents but keeping the buffer capacity.
func (f *StoreFrame) Reset(fieldName string, age int) {
	f.buf = append(f.buf[:0], storeFrameVersion)
	f.buf = binary.AppendUvarint(f.buf, uint64(len(fieldName)))
	f.buf = append(f.buf, fieldName...)
	f.buf = binary.AppendVarint(f.buf, int64(age))
	f.entries = 0
	f.clearSegs()
}

func (f *StoreFrame) clearSegs() {
	for i := range f.segs {
		f.segs[i].data = nil // drop the slab references
	}
	f.segs = f.segs[:0]
	f.segBytes = 0
}

// Add appends one store notice. The notice must target the generation the
// frame was Reset to; mixing generations corrupts nothing but delivers the
// stores to the wrong age, so callers key frames by (field, age).
func (f *StoreFrame) Add(sn StoreNotice) error {
	sn = sn.normalize()
	if sn.Sel != nil {
		f.buf = append(f.buf, frameModeSlab)
		f.buf = binary.AppendUvarint(f.buf, uint64(len(sn.Sel)))
		for _, sd := range sn.Sel {
			if sd.Fixed {
				f.buf = append(f.buf, 1)
				f.buf = binary.AppendVarint(f.buf, int64(sd.Index))
			} else {
				f.buf = append(f.buf, 0)
			}
		}
	} else {
		f.buf = append(f.buf, frameModeElem)
		f.buf = binary.AppendUvarint(f.buf, uint64(len(sn.Elem)))
		for _, i := range sn.Elem {
			f.buf = binary.AppendVarint(f.buf, int64(i))
		}
	}
	// Scatter-gather: large typed-slab payloads keep their bytes in the
	// slab and record a segment instead of copying into buf. The segment
	// aliases sn.Value's backing; the caller must keep the value alive
	// until the frame is flattened or sent (the dist batcher holds the
	// cloned notice value via the segment slice itself).
	if buf, payload, ok := field.SplitWireArray(f.buf, sn.Value); ok && len(payload) >= frameSegMin {
		f.buf = buf
		f.segs = append(f.segs, frameSeg{bufOff: len(f.buf), data: payload})
		f.segBytes += len(payload)
		f.entries++
		return nil
	}
	var err error
	f.buf, err = field.AppendWireValue(f.buf, sn.Value)
	if err != nil {
		return fmt.Errorf("p2g: encoding store frame for %s: %w", sn.Field, err)
	}
	f.entries++
	return nil
}

// Entries returns the number of stores added since the last Reset.
func (f *StoreFrame) Entries() int { return f.entries }

// Len returns the current encoded size in bytes, including segment bytes.
func (f *StoreFrame) Len() int { return len(f.buf) + f.segBytes }

// Bytes returns the encoded frame. With no pending segments the slice
// aliases the frame's buffer and is invalidated by the next Reset or Add;
// with segments it is a freshly flattened copy (transports that can writev
// should use Segments instead).
func (f *StoreFrame) Bytes() []byte {
	if len(f.segs) == 0 {
		return f.buf
	}
	return f.AppendTo(make([]byte, 0, f.Len()))
}

// AppendTo appends the full encoded frame to dst — buffer bytes interleaved
// with the zero-copy segments in offset order — and returns the extended
// slice. The result is bit-identical to an all-copying encode.
func (f *StoreFrame) AppendTo(dst []byte) []byte {
	prev := 0
	for _, s := range f.segs {
		dst = append(dst, f.buf[prev:s.bufOff]...)
		dst = append(dst, s.data...)
		prev = s.bufOff
	}
	return append(dst, f.buf[prev:]...)
}

// Segments returns the frame as an ordered vector of byte slices suitable for
// net.Buffers writev-style transmission. The slices alias the frame buffer
// and the referenced slabs: they are invalidated by the next Reset or Add and
// must be fully written before the frame is recycled.
func (f *StoreFrame) Segments() net.Buffers {
	segs := make(net.Buffers, 0, 2*len(f.segs)+1)
	prev := 0
	for _, s := range f.segs {
		if s.bufOff > prev {
			segs = append(segs, f.buf[prev:s.bufOff])
		}
		segs = append(segs, s.data)
		prev = s.bufOff
	}
	if prev < len(f.buf) {
		segs = append(segs, f.buf[prev:])
	}
	return segs
}

// maxPooledFrameBytes caps the buffer capacity PutStoreFrame keeps: a frame
// whose buffer grew beyond it (one huge generation) is dropped instead of
// pinning that memory in the pool for the rest of the run.
const maxPooledFrameBytes = 256 << 10

var framePool = sync.Pool{New: func() any { return new(StoreFrame) }}

// GetStoreFrame checks a StoreFrame out of the process-wide pool. The frame
// must still be Reset before use.
func GetStoreFrame() *StoreFrame { return framePool.Get().(*StoreFrame) }

// poolable reports whether PutStoreFrame will keep the frame: buffers that
// grew past maxPooledFrameBytes are dropped instead of pinning memory.
func (f *StoreFrame) poolable() bool { return cap(f.buf) <= maxPooledFrameBytes }

// PutStoreFrame returns a frame to the pool, dropping slab references so
// recycled frames never pin field memory, and dropping the frame entirely
// when its buffer has grown past maxPooledFrameBytes.
func PutStoreFrame(f *StoreFrame) {
	f.clearSegs()
	f.entries = 0
	if !f.poolable() {
		return // let the oversized buffer be collected
	}
	f.buf = f.buf[:0]
	framePool.Put(f)
}

// frameCursor is a bounds-checked decode cursor.
type frameCursor struct {
	buf []byte
	off int
}

var errFrameShort = fmt.Errorf("p2g: truncated store frame")

func (c *frameCursor) byte() (byte, error) {
	if c.off >= len(c.buf) {
		return 0, errFrameShort
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

func (c *frameCursor) uvarint() (uint64, error) {
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, errFrameShort
	}
	c.off += n
	return x, nil
}

func (c *frameCursor) varint() (int64, error) {
	x, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		return 0, errFrameShort
	}
	c.off += n
	return x, nil
}

// DecodeStoreFrame decodes a frame produced by StoreFrame, invoking apply for
// each store notice in encoding order. Decode stops at the first apply error.
// The notices passed to apply reference memory decoded from the frame, not
// the frame buffer itself, so apply may retain them.
func DecodeStoreFrame(frame []byte, apply func(StoreNotice) error) error {
	c := &frameCursor{buf: frame}
	ver, err := c.byte()
	if err != nil {
		return err
	}
	if ver != storeFrameVersion {
		return fmt.Errorf("p2g: unknown store frame version %d", ver)
	}
	nameLen, err := c.uvarint()
	if err != nil {
		return err
	}
	if nameLen > uint64(len(frame)-c.off) {
		return errFrameShort
	}
	fieldName := string(frame[c.off : c.off+int(nameLen)])
	c.off += int(nameLen)
	age64, err := c.varint()
	if err != nil {
		return err
	}
	age := int(age64)

	for c.off < len(frame) {
		mode, err := c.byte()
		if err != nil {
			return err
		}
		sn := StoreNotice{Field: fieldName, Age: age}
		switch mode {
		case frameModeElem:
			rank, err := c.uvarint()
			if err != nil {
				return err
			}
			if rank > frameMaxRank || rank > uint64(len(frame)-c.off) {
				return fmt.Errorf("p2g: store frame coordinate rank %d out of range", rank)
			}
			if rank > 0 {
				sn.Elem = make([]int, rank)
				for d := range sn.Elem {
					x, err := c.varint()
					if err != nil {
						return err
					}
					sn.Elem[d] = int(x)
				}
			}
		case frameModeSlab:
			rank, err := c.uvarint()
			if err != nil {
				return err
			}
			if rank == 0 || rank > frameMaxRank || rank > uint64(len(frame)-c.off) {
				return fmt.Errorf("p2g: store frame selector rank %d out of range", rank)
			}
			sn.Sel = make([]field.SlabDim, rank)
			for d := range sn.Sel {
				fixed, err := c.byte()
				if err != nil {
					return err
				}
				if fixed != 0 {
					x, err := c.varint()
					if err != nil {
						return err
					}
					sn.Sel[d] = field.SlabDim{Fixed: true, Index: int(x)}
				}
			}
		default:
			return fmt.Errorf("p2g: unknown store frame entry mode %d", mode)
		}
		v, n, err := field.DecodeWireValue(frame[c.off:])
		if err != nil {
			return err
		}
		c.off += n
		sn.Value = v
		if err := apply(sn); err != nil {
			return err
		}
	}
	return nil
}

// InjectStoreFrame applies a batched store frame received from a remote node:
// each entry is written to the local field replica and the analyzer notified,
// exactly as InjectStore does for a single notice.
func (n *Node) InjectStoreFrame(frame []byte) error {
	return DecodeStoreFrame(frame, n.InjectStore)
}
