package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/field"
)

// Store frames: the batched wire form of store notices. A frame carries every
// store of one field generation that a node produced since the last flush, in
// the field codec (internal/field/wire.go), so a generation crosses the dist
// transport as one typed block. The header names the field and age once; each
// entry then holds only its box's selector — a whole-field store is the
// selector that fixes no dimension — and the box's cells as a typed array.
//
// Layout:
//
//	frame := version(1B) | len(field) uvarint | field bytes | age varint | entry*
//	entry := rank uvarint | per dim: flag(1B), then
//	    flag 0: a free dimension from 0
//	    flag 1: a fixed dimension, its coordinate varint
//	    flag 2: a free dimension, its origin varint
//	  | wire value (self-delimiting)
//
// Entries run to the end of the buffer. frameHeader and frameEntry write each
// layout once for both directions; decoding refuses a negative origin
// (errFrameOrigin), and DecodeStoreFrame a box past MaxRemoteCells.

// storeFrameVersion is the frame header version byte.
const storeFrameVersion = 2

// The selector flags of a box entry's dimensions.
const (
	frameDimFree   byte = 0
	frameDimFixed  byte = 1
	frameDimOrigin byte = 2
)

var errFrameOrigin = errors.New("p2g: store frame origin is negative")

// frameHeader codes a frame's header.
func frameHeader(c *field.Codec, fieldName *string, age *int) {
	ver := byte(storeFrameVersion)
	if c.Byte(&ver); c.Err == nil && ver != storeFrameVersion {
		c.Fail(fmt.Errorf("p2g: unknown store frame version %d", ver))
	}
	c.Str(fieldName)
	c.Int(age)
}

// frameEntry codes one box entry. Decoded, the selector reuses sel's backing
// and the value lands in cells, or fresh in v when cells is nil.
func frameEntry(c *field.Codec, sel *[]field.SlabDim, v *field.Value, cells *field.WireCells) {
	rank := len(*sel)
	if c.Count(&rank, field.MaxWireRank); c.Decoding() {
		if c.Err == nil && (rank == 0 || rank > c.Left()) {
			c.Fail(fmt.Errorf("p2g: store frame selector rank %d out of range", rank))
		}
		*sel = slices.Grow((*sel)[:0], rank)[:rank]
	}
	for d := range *sel {
		sd := &(*sel)[d]
		flag := frameDimFree
		if sd.Fixed {
			flag = frameDimFixed
		} else if sd.Index != 0 {
			flag = frameDimOrigin
		}
		if c.Byte(&flag); c.Decoding() {
			if c.Err == nil && flag > frameDimOrigin {
				c.Fail(fmt.Errorf("p2g: store frame selector flag %d unknown", flag))
			}
			*sd = field.SlabDim{Fixed: flag == frameDimFixed}
		}
		if flag != frameDimFree {
			c.Int(&sd.Index)
		}
		if c.Decoding() && c.Err == nil && flag == frameDimOrigin && sd.Index < 0 {
			c.Fail(fmt.Errorf("%w: %d", errFrameOrigin, sd.Index))
		}
		if c.Err != nil {
			return
		}
	}
	if cells != nil {
		c.Cells(cells)
	} else {
		c.Value(v, nil)
	}
}

// MaxRemoteCells bounds the cells a remote store may grow a field generation
// to: InjectStore, InjectStoreFrame and DecodeStoreFrame refuse a box whose
// coordinates, origins and extents reach past it with ErrRemoteGrowth, so a corrupt or
// hostile notice cannot make the receiver allocate without limit. It sits far
// above the largest generation any workload stores (a CIF frame's 101 376
// luma samples).
const MaxRemoteCells = 1 << 26

// ErrRemoteGrowth is the error of a remote store refused by MaxRemoteCells.
var ErrRemoteGrowth = errors.New("p2g: remote store grows a generation past MaxRemoteCells")

// cellShape is the shape of a store's cells: a decoded array, or cells still
// in their wire form.
type cellShape interface{ Extent(d int) int }

// checkGrowth refuses store sn of cells when the generation it lands in —
// extent(d) per dimension now, grown to hold the store's box — would hold
// more than MaxRemoteCells cells.
func checkGrowth(sn StoreNotice, cells cellShape, extent func(d int) int) error {
	n := 1
	j := 0
	for d, sd := range sn.Sel {
		// Coordinates and origins saturate past the bound, so no sum
		// overflows. A malformed store, with a scalar or with too few
		// dimensions, counts an empty box; the field refuses it.
		want := min(sd.Index, MaxRemoteCells) + 1
		if !sd.Fixed {
			want = min(sd.Index, MaxRemoteCells+1) + cells.Extent(j)
			j++
		}
		if have := extent(d); have > want {
			want = have
		}
		if want > 0 && n > MaxRemoteCells/want {
			n = MaxRemoteCells + 1 // saturate: no product overflows
		} else {
			n *= max(want, 0)
		}
	}
	if n > MaxRemoteCells {
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
	c := field.Encoder(f.buf[:0])
	frameHeader(&c, &fieldName, &age)
	f.buf, f.entries = c.Buf, 0
}

// Add appends one store notice, copying its selector and its payload into
// the frame's buffer: nothing of the notice is referenced after
// the call, so a borrowed notice (see Options.OnStore) may be added. The
// notice must target the generation the frame was Reset to; mixing
// generations corrupts nothing but delivers the stores to the wrong age, so
// callers key frames by (field, age). A notice that does not encode (a Go
// object, field.ErrGoObject) leaves the frame as it was.
func (f *StoreFrame) Add(sn StoreNotice) error {
	sn = sn.normalize()
	c := field.Encoder(f.buf)
	if frameEntry(&c, &sn.Sel, &sn.Value, nil); c.Err != nil {
		return fmt.Errorf("p2g: encoding store frame for %s: %w", sn.Field, c.Err)
	}
	f.buf = c.Buf
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

// poolable reports whether PutStoreFrame will keep the frame.
func (f *StoreFrame) poolable() bool { return cap(f.buf) <= maxPooledFrameBytes }

// PutStoreFrame returns a frame to the pool, unless its buffer is too big.
func PutStoreFrame(f *StoreFrame) {
	f.entries = 0
	if !f.poolable() {
		return // let the oversized buffer be collected
	}
	f.buf = f.buf[:0]
	framePool.Put(f)
}

// entryPool recycles frameScratch, so decoding a frame allocates nothing
// once warm.
var entryPool = sync.Pool{New: func() any { return new(frameScratch) }}

// frameScratch is what a frame's entries are decoded into, one after another.
type frameScratch struct {
	sel   []field.SlabDim
	cells field.WireCells
}

// eachEntry decodes a frame produced by StoreFrame and calls entry for each
// box in encoding order: sn names the header's field and age and holds the
// entry's selector, and cells its value, an array's cells still in their wire
// bytes. Both are borrowed; the next entry reuses them. Decoding stops at the
// first entry error, at a malformed entry and at one with a negative origin.
func eachEntry(frame []byte, entry func(sn StoreNotice, cells *field.WireCells) error) error {
	c := field.Decoder(frame)
	fs := entryPool.Get().(*frameScratch)
	defer entryPool.Put(fs)
	var sn StoreNotice
	frameHeader(&c, &sn.Field, &sn.Age)
	for c.Err == nil && c.Left() > 0 {
		if frameEntry(&c, &fs.sel, nil, &fs.cells); c.Err != nil {
			break
		}
		sn.Sel = fs.sel
		if err := entry(sn, &fs.cells); err != nil {
			return err
		}
	}
	return c.Err
}

// DecodeStoreFrame decodes a frame produced by StoreFrame, invoking apply for
// each store notice in encoding order. Decode stops at the first apply error,
// at a malformed entry or one with a negative origin, and before an entry
// whose own box reaches past MaxRemoteCells cells (ErrRemoteGrowth).
//
// The notices are borrowed, like OnStore's: an entry's Sel and its array
// Value live in scratch that the next entry reuses, so apply copies what it
// keeps.
func DecodeStoreFrame(frame []byte, apply func(StoreNotice) error) error {
	return eachEntry(frame, func(sn StoreNotice, cells *field.WireCells) error {
		if err := checkGrowth(sn, cells, func(int) int { return 0 }); err != nil {
			return err
		}
		sn.Value = cells.Value()
		return apply(sn)
	})
}

// storeEntry writes one decoded frame entry into f, the replica of its field,
// as applyStore writes a notice: a fixed-width array's cells are copied once,
// from the frame into the generation (field.Field.StoreWire).
func storeEntry(f *field.Field, sn StoreNotice, cells *field.WireCells) (field.StoreResult, error) {
	if !cells.IsArray() {
		return field.StoreResult{}, errNoArray(sn.Field)
	}
	if err := checkGrowth(sn, cells, func(d int) int { return f.Extent(sn.Age, d) }); err != nil {
		return field.StoreResult{}, err
	}
	return f.StoreWire(sn.Age, sn.Sel, cells)
}

// errNoArray is the error of a remote store whose value is not an array.
func errNoArray(fieldName string) error {
	return fmt.Errorf("p2g: remote store to %q without a selector and an array payload", fieldName)
}

// ApplyStoreFrame writes every entry of a store frame into f, the replica of
// the frame's field, exactly as a node applies a frame it receives
// (InjectStoreFrame).
func ApplyStoreFrame(f *field.Field, frame []byte) error {
	return eachEntry(frame, func(sn StoreNotice, cells *field.WireCells) error {
		if sn.Field != f.Name() {
			return fmt.Errorf("p2g: store frame of %q applied to field %q", sn.Field, f.Name())
		}
		_, err := storeEntry(f, sn, cells)
		return err
	})
}

// InjectStoreFrame applies a batched store frame received from a remote node:
// each entry is written to the local field replica as InjectStore writes a
// single notice, the cells of a fixed-width array copied once, from the frame
// into the generation, and the analyzer events announcing the entries travel
// in batches. Nothing of frame is retained: the caller may reuse it once the
// call returns.
func (n *Node) InjectStoreFrame(frame []byte) error {
	in := injector{n: n}
	err := eachEntry(frame, func(sn StoreNotice, cells *field.WireCells) error {
		fs, ok := n.fields[sn.Field]
		if !ok {
			return fmt.Errorf("p2g: remote store to unknown field %q", sn.Field)
		}
		res, err := storeEntry(fs.f, sn, cells)
		if err != nil {
			return err
		}
		ev := event{fs: fs, age: sn.Age}
		ev.setBox(sn.Sel, cells)
		ev.setGrowth(&res)
		in.add(&ev)
		return nil
	})
	in.flush()
	return err
}
