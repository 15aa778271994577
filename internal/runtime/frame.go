package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/field"
)

// Store frames: the batched wire form of store notices. A frame carries every
// store of one field generation that a node produced since the last flush,
// encoded back-to-back in the typed wire format v1 (internal/field/wire.go),
// so a generation crosses the dist transport as one typed block instead of a
// gob-encoded boxed Value per store. The header names the field and age once;
// each entry then holds only its box's selector — a whole-field store is the
// selector that fixes no dimension — and the box's cells as a typed array.
//
// Layout:
//
//	frame := version(1B) | len(field) uvarint | field bytes | age varint | entry*
//	entry := mode(1B) | mode header | wire value (self-delimiting)
//	  mode 2 (box): rank uvarint, per dim: flag(1B), then
//	    flag 0: a free dimension from 0
//	    flag 1: a fixed dimension, its coordinate varint
//	    flag 2: a free dimension, its origin varint
//
// Entries run to the end of the buffer; wire values are self-delimiting so no
// per-entry length prefix is needed. Decode is overflow-guarded: ranks are
// bounded and every count is checked against the remaining bytes before
// allocation.

// storeFrameVersion is the frame header version byte. The value format inside
// entries is versioned separately (wire format v1).
const storeFrameVersion = 1

// frameModeBox is the one entry mode, and frameDim* the selector flags of its
// dimensions. The decoder refuses the retired modes — 0, an element with its
// coordinates, and 1, a whole-field entry without a selector — with
// errFrameMode, and a negative origin with errFrameOrigin.
const (
	frameModeBox   byte = 2
	frameDimFree   byte = 0
	frameDimFixed  byte = 1
	frameDimOrigin byte = 2
)

var (
	errFrameMode   = errors.New("p2g: store frame entry mode")
	errFrameOrigin = errors.New("p2g: store frame origin is negative")
)

// frameMaxRank bounds coordinate and selector ranks during decode, mirroring
// the wire format's array-rank guard.
const frameMaxRank = 64

// MaxRemoteCells bounds the cells a remote store may grow a field generation
// to: InjectStore, InjectStoreFrame and DecodeStoreFrame refuse a box whose
// coordinates, origins and extents reach past it with ErrRemoteGrowth, so a corrupt or
// hostile notice cannot make the receiver allocate without limit. It sits far
// above the largest generation any workload stores (a CIF frame's 101 376
// luma samples).
const MaxRemoteCells = 1 << 26

// ErrRemoteGrowth is the error of a remote store refused by MaxRemoteCells.
var ErrRemoteGrowth = errors.New("p2g: remote store grows a generation past MaxRemoteCells")

// checkGrowth refuses store sn when the generation it lands in — extent(d)
// per dimension now, grown to hold the store's box — would hold more than
// MaxRemoteCells cells.
func checkGrowth(sn StoreNotice, extent func(d int) int) error {
	cells := 1
	arr := sn.Value.Array()
	j := 0
	for d, sd := range sn.Sel {
		// Coordinates and origins saturate past the bound, so no sum
		// overflows. A malformed store, without an array or with too few
		// dimensions, counts an empty box; the field refuses it.
		want := min(sd.Index, MaxRemoteCells) + 1
		if !sd.Fixed {
			want = min(sd.Index, MaxRemoteCells+1)
			if arr != nil {
				want += arr.Extent(j)
			}
			j++
		}
		if have := extent(d); have > want {
			want = have
		}
		if want > 0 && cells > MaxRemoteCells/want {
			cells = MaxRemoteCells + 1 // saturate: no product overflows
		} else {
			cells *= max(want, 0)
		}
	}
	if cells > MaxRemoteCells {
		return fmt.Errorf("%w: %s(%d)", ErrRemoteGrowth, sn.Field, sn.Age)
	}
	return nil
}

// StoreFrame accumulates store notices for one field generation into a single
// wire frame. The zero value is unusable; call Reset first. A StoreFrame is
// not safe for concurrent use (the dist batcher serializes access).
type StoreFrame struct {
	buf     []byte
	entries int
}

// Reset re-targets the frame at one field generation, dropping any previous
// contents but keeping the buffer capacity.
func (f *StoreFrame) Reset(fieldName string, age int) {
	f.buf = append(f.buf[:0], storeFrameVersion)
	f.buf = binary.AppendUvarint(f.buf, uint64(len(fieldName)))
	f.buf = append(f.buf, fieldName...)
	f.buf = binary.AppendVarint(f.buf, int64(age))
	f.entries = 0
}

// Add appends one store notice, copying its selector and its payload into
// the frame's buffer: nothing of the notice is referenced after
// the call, so a borrowed notice (see Options.OnStore) may be added. The
// notice must target the generation the frame was Reset to; mixing
// generations corrupts nothing but delivers the stores to the wrong age, so
// callers key frames by (field, age).
func (f *StoreFrame) Add(sn StoreNotice) error {
	sn = sn.normalize()
	f.buf = append(f.buf, frameModeBox)
	f.buf = binary.AppendUvarint(f.buf, uint64(len(sn.Sel)))
	for _, sd := range sn.Sel {
		switch {
		case sd.Fixed:
			f.buf = append(f.buf, frameDimFixed)
		case sd.Index != 0:
			f.buf = append(f.buf, frameDimOrigin)
		default:
			f.buf = append(f.buf, frameDimFree)
			continue
		}
		f.buf = binary.AppendVarint(f.buf, int64(sd.Index))
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

// Len returns the current encoded size in bytes.
func (f *StoreFrame) Len() int { return len(f.buf) }

// Bytes returns the encoded frame. The slice aliases the frame's buffer and
// is invalidated by the next Reset or Add, and by PutStoreFrame.
func (f *StoreFrame) Bytes() []byte { return f.buf }

// AppendTo appends the encoded frame to dst and returns the extended slice.
func (f *StoreFrame) AppendTo(dst []byte) []byte { return append(dst, f.buf...) }

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

// PutStoreFrame returns a frame to the pool, dropping the frame entirely when
// its buffer has grown past maxPooledFrameBytes.
func PutStoreFrame(f *StoreFrame) {
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
// each store notice in encoding order. Decode stops at the first apply error,
// at an entry of a retired mode or with a negative origin, and before an
// entry whose own box reaches past MaxRemoteCells cells (ErrRemoteGrowth).
//
// The notices are borrowed, like OnStore's: an entry's Sel and its array
// Value live in scratch that the next entry reuses, so apply copies what it
// keeps — InjectStore copies the entry into the field replica, and a frame of
// boxes decodes without allocating per box.
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

	// The per-frame scratch every entry reuses.
	var (
		sel     []field.SlabDim
		scratch field.Array
	)
	for c.off < len(frame) {
		mode, err := c.byte()
		if err != nil {
			return err
		}
		if mode != frameModeBox {
			return fmt.Errorf("%w %d is retired or unknown", errFrameMode, mode)
		}
		rank, err := c.uvarint()
		if err != nil {
			return err
		}
		if rank == 0 || rank > frameMaxRank || rank > uint64(len(frame)-c.off) {
			return fmt.Errorf("p2g: store frame selector rank %d out of range", rank)
		}
		sel = slices.Grow(sel[:0], int(rank))[:rank]
		for d := range sel {
			flag, err := c.byte()
			if err != nil {
				return err
			}
			if flag > frameDimOrigin {
				return fmt.Errorf("p2g: store frame selector flag %d unknown", flag)
			}
			sel[d] = field.SlabDim{Fixed: flag == frameDimFixed}
			if flag == frameDimFree {
				continue
			}
			x, err := c.varint()
			if err != nil {
				return err
			}
			if flag != frameDimFixed && x < 0 {
				return fmt.Errorf("%w: %d", errFrameOrigin, x)
			}
			sel[d].Index = int(x)
		}
		sn := StoreNotice{Field: fieldName, Age: age, Sel: sel}
		v, n, err := field.DecodeWireValueInto(frame[c.off:], &scratch)
		if err != nil {
			return err
		}
		c.off += n
		sn.Value = v
		if err := checkGrowth(sn, func(int) int { return 0 }); err != nil {
			return err
		}
		if err := apply(sn); err != nil {
			return err
		}
	}
	return nil
}

// InjectStoreFrame applies a batched store frame received from a remote node:
// each entry is written to the local field replica exactly as InjectStore
// writes a single notice, and the analyzer events announcing the entries
// travel in batches.
func (n *Node) InjectStoreFrame(frame []byte) error {
	in := injector{n: n}
	err := DecodeStoreFrame(frame, func(sn StoreNotice) error {
		ev, err := n.applyStore(sn)
		if err == nil {
			in.add(&ev)
		}
		return err
	})
	in.flush()
	return err
}
