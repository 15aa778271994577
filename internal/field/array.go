package field

import (
	"fmt"
	"strings"
)

// Array is a local, mutable, rank-N array of elements. Kernel bodies use
// Arrays for `local` fields and for whole-field fetches; unlike global Fields,
// Arrays have no write-once restriction and no ages. Arrays grow implicitly:
// Put past the current extent resizes the array, mirroring the implicit
// resizing of global fields.
//
// Storage is a kind-specialized flat slab (see slab.go). Scalar access via
// At/Set boxes and unboxes Values at the boundary; the typed accessors
// (Uint8s, Int32s, Int64s, Float64s) expose the live flat backing so kernels
// can read and write whole rows with plain Go slice operations.
type Array struct {
	kind    Kind
	extents []int
	data    slab

	// view marks an array whose slab aliases a field generation (a view
	// fetch, see Field.PinView) instead of owning its storage.
	// Boxed mutations (Set/SetFlat/Put/Grow) copy-on-write through unshare;
	// the typed accessors expose the aliased backing and must be treated as
	// read-only by view holders.
	view bool
}

// NewArray creates an array with the given element kind and extents. A rank-1
// array with extent 0 is the canonical "empty local field" that grows via Put.
func NewArray(kind Kind, extents ...int) *Array {
	if len(extents) == 0 {
		extents = []int{0}
	}
	n := 1
	for _, e := range extents {
		if e < 0 {
			panic(fmt.Sprintf("field: negative extent %d", e))
		}
		n *= e
	}
	return &Array{kind: kind, extents: append([]int(nil), extents...), data: newSlab(classOf(kind), n)}
}

// ArrayFromInt32 builds a rank-1 int32 array from a Go slice (copied).
func ArrayFromInt32(vs []int32) *Array {
	a := NewArray(Int32, len(vs))
	copy(a.data.i32, vs)
	return a
}

// ArrayFromUint8 builds a rank-1 uint8 array from a Go slice (copied).
func ArrayFromUint8(vs []uint8) *Array {
	a := NewArray(Uint8, len(vs))
	copy(a.data.u8, vs)
	return a
}

// Uint8s returns the live flat backing of a uint8/bool-kind array in row-major
// order. Mutations are visible to the array; the slice is invalidated by
// Grow/Put past the extent. It panics for other kinds.
func (a *Array) Uint8s() []uint8 {
	if a.data.class != classU8 {
		panic(fmt.Sprintf("field: Uint8s on %s array", a.kind))
	}
	return a.data.u8
}

// Int32s returns the live flat backing of an int32-kind array in row-major
// order. Mutations are visible to the array; the slice is invalidated by
// Grow/Put past the extent. It panics for other kinds.
func (a *Array) Int32s() []int32 {
	if a.data.class != classI32 {
		panic(fmt.Sprintf("field: Int32s on %s array", a.kind))
	}
	return a.data.i32
}

// Int64s returns the live flat backing of an int64-kind array in row-major
// order. Mutations are visible to the array; the slice is invalidated by
// Grow/Put past the extent. It panics for other kinds.
func (a *Array) Int64s() []int64 {
	if a.data.class != classI64 {
		panic(fmt.Sprintf("field: Int64s on %s array", a.kind))
	}
	return a.data.i64
}

// Float64s returns the live flat backing of a float32/float64-kind array in
// row-major order. Mutations are visible to the array; the slice is
// invalidated by Grow/Put past the extent. It panics for other kinds.
func (a *Array) Float64s() []float64 {
	if a.data.class != classF64 {
		panic(fmt.Sprintf("field: Float64s on %s array", a.kind))
	}
	return a.data.f64
}

// Kind returns the element kind.
func (a *Array) Kind() Kind { return a.kind }

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.extents) }

// Extent returns the size of dimension d. It returns 0 for out-of-range
// dimensions, matching the kernel language's permissive extent() builtin.
func (a *Array) Extent(d int) int {
	if d < 0 || d >= len(a.extents) {
		return 0
	}
	return a.extents[d]
}

// Extents returns a copy of all dimension sizes.
func (a *Array) Extents() []int { return append([]int(nil), a.extents...) }

// Len returns the total number of elements.
func (a *Array) Len() int { return a.data.len() }

// flatten converts a multi-dimensional index to a flat offset, or -1 if any
// coordinate is out of bounds.
func (a *Array) flatten(idx []int) int {
	if len(idx) != len(a.extents) {
		return -1
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= a.extents[d] {
			return -1
		}
		off = off*a.extents[d] + i
	}
	return off
}

// At returns the element at the given coordinates. It panics on rank mismatch
// or out-of-bounds access, as the kernel language's get() does.
func (a *Array) At(idx ...int) Value {
	off := a.flatten(idx)
	if off < 0 {
		panic(fmt.Sprintf("field: get %v out of bounds for extents %v", idx, a.extents))
	}
	return a.data.get(a.kind, off)
}

// AtFlat returns the element at flat offset i in row-major order.
func (a *Array) AtFlat(i int) Value { return a.data.get(a.kind, i) }

// Set stores v at the given coordinates. It panics if idx is out of bounds;
// use Put for the growing store.
func (a *Array) Set(v Value, idx ...int) {
	off := a.flatten(idx)
	if off < 0 {
		panic(fmt.Sprintf("field: set %v out of bounds for extents %v", idx, a.extents))
	}
	a.unshare()
	a.data.set(a.kind, off, v)
}

// SetFlat stores v at flat offset i in row-major order.
func (a *Array) SetFlat(v Value, i int) {
	a.unshare()
	a.data.set(a.kind, i, v)
}

// Append adds v as the new last element of a rank-1 array, converted as Set
// converts it. The runtime stages a slice's element stores this way.
func (a *Array) Append(v Value) {
	a.unshare()
	d := &a.data
	switch d.class {
	case classI32:
		d.i32 = append(d.i32, int32(v.Int64()))
	case classI64:
		d.i64 = append(d.i64, v.Int64())
	case classF64:
		d.f64 = append(d.f64, v.Float64())
	default:
		n := d.len()
		d.resize(n+1, 2*n+1)
		d.set(a.kind, n, v)
	}
	a.extents[0]++
}

// AppendInt64s adds xs, canonical payloads of integer or bool kind k (see
// IntValOf), as the new last elements of a rank-1 array, converted as Append
// converts them. The runtime stages a slice's column of an element store
// this way.
func (a *Array) AppendInt64s(k Kind, xs []int64) {
	a.unshare()
	switch d := &a.data; d.class {
	case classI64:
		d.i64 = append(d.i64, xs...)
	case classI32:
		for _, x := range xs {
			d.i32 = append(d.i32, int32(x))
		}
	default:
		for _, x := range xs {
			a.Append(IntValOf(k, x))
		}
		return
	}
	a.extents[0] += len(xs)
}

// AppendFloat64s is AppendInt64s for payloads of float kind k.
func (a *Array) AppendFloat64s(k Kind, xs []float64) {
	a.unshare()
	if d := &a.data; d.class == classF64 {
		d.f64 = append(d.f64, xs...)
		a.extents[0] += len(xs)
		return
	}
	for _, x := range xs {
		a.Append(FloatValOf(k, x))
	}
}

// AppendCells adds src's cells, in row-major order, as the new last elements
// of a rank-1 array, converted as a store converts them (slab.copyCells). A
// reallocation makes room for room elements, if that is more than the new
// length. The runtime stages a slice's slab stores this way, room sized for
// the whole slice.
func (a *Array) AppendCells(src *Array, room int) {
	a.unshare()
	n, k := a.data.len(), src.Len()
	a.data.resize(n+k, room)
	a.data.copyCells(a.kind, n, src, 0, k)
	a.extents[0] += k
}

// unshare materializes a private copy of a view array's aliased backing
// before a mutation, so writes never reach the field generation the view
// came from.
func (a *Array) unshare() {
	if !a.view {
		return
	}
	src := a.data
	a.view = false
	a.data = slab{class: src.class}
	a.data.alloc(src.len(), src.len())
	a.data.copyRange(0, &src, 0, src.len())
}

// Put stores v at the given coordinates, growing the array as needed so that
// every coordinate is in range. This implements the kernel language's
// put(values, v, i) builtin and the implicit-resize semantics of fields.
func (a *Array) Put(v Value, idx ...int) {
	if len(idx) != len(a.extents) {
		panic(fmt.Sprintf("field: put rank mismatch: %d coordinates for rank-%d array", len(idx), len(a.extents)))
	}
	grew := false
	for d, i := range idx {
		if i < 0 {
			panic(fmt.Sprintf("field: put negative index %d", i))
		}
		if i >= a.extents[d] {
			grew = true
		}
	}
	if grew {
		newExt := make([]int, len(a.extents))
		for d := range newExt {
			newExt[d] = a.extents[d]
			if idx[d] >= newExt[d] {
				newExt[d] = idx[d] + 1
			}
		}
		a.Grow(newExt...)
	}
	a.Set(v, idx...)
}

// Grow resizes the array to the given extents, which must be at least the
// current extents in every dimension. Existing elements keep their
// coordinates; new elements are zero values.
func (a *Array) Grow(extents ...int) {
	if len(extents) != len(a.extents) {
		panic(fmt.Sprintf("field: grow rank mismatch: %d extents for rank-%d array", len(extents), len(a.extents)))
	}
	same := true
	for d, e := range extents {
		if e < a.extents[d] {
			panic(fmt.Sprintf("field: grow would shrink dimension %d from %d to %d", d, a.extents[d], e))
		}
		if e != a.extents[d] {
			same = false
		}
	}
	if same {
		return
	}
	// Growing a view must not touch the aliased generation (in particular a
	// classStr resize appends to the shared arena); take a private copy
	// first.
	a.unshare()
	n := 1
	onlyOuter := true
	for d, e := range extents {
		n *= e
		if d > 0 && e != a.extents[d] {
			onlyOuter = false
		}
	}
	// Fast path: growth confined to the outermost dimension (or an empty
	// array taking any shape) preserves flat row-major offsets, so the slab
	// resizes in place with amortized doubling instead of remapping — this
	// also keeps pooled/cached backing capacity alive across reuse.
	if onlyOuter || a.data.len() == 0 {
		a.data.resize(n, 2*a.data.capacity())
		copy(a.extents, extents)
		return
	}
	nd := newSlab(a.data.class, n)
	remapSlab(&nd, extents, &a.data, a.extents)
	a.extents = append([]int(nil), extents...)
	a.data = nd
}

// remapSlab copies every element of src (laid out with srcExt) into dst (laid
// out with the elementwise-larger dstExt), preserving coordinates. Both slabs
// must share a class.
func remapSlab(dst *slab, dstExt []int, src *slab, srcExt []int) {
	n := src.len()
	if n == 0 {
		return
	}
	// Rows along the innermost dimension stay contiguous in both layouts, so
	// copy a row at a time.
	last := len(srcExt) - 1
	rowLen := srcExt[last]
	if rowLen == 0 {
		return
	}
	idx := make([]int, len(srcExt))
	for off := 0; off < n; off += rowLen {
		noff := 0
		for d := range idx {
			noff = noff*dstExt[d] + idx[d]
		}
		dst.copyRange(noff, src, off, rowLen)
		for d := last - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < srcExt[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// FlatOffset64 converts int64 coordinates (the bytecode VM's register
// representation) to a flat row-major offset, or -1 on rank mismatch or any
// out-of-bounds coordinate — the same contract as the internal flatten.
func (a *Array) FlatOffset64(idx []int64) int {
	if len(idx) != len(a.extents) {
		return -1
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= int64(a.extents[d]) {
			return -1
		}
		off = off*a.extents[d] + int(i)
	}
	return off
}

// Backing is the live typed flat backing of an array in row-major order, for
// compiled kernel back-ends that index elements without boxing. At most one
// slice is non-nil, chosen by the element kind's storage class; string and
// Any arrays have none. The slices are invalidated by Grow/Put past the
// extent and by the copy-on-write a boxed mutation of a Shared array does.
type Backing struct {
	F64 []float64 // Float32, Float64
	I64 []int64   // Int64
	I32 []int32   // Int32
	U8  []uint8   // Uint8, Bool (0/1)
	// Shared reports that the backing aliases a field generation (a view
	// fetch): it must not be written through these slices. Set/SetFlat/Put
	// take a private copy first.
	Shared bool
}

// Backing returns the array's typed flat backing.
func (a *Array) Backing() Backing {
	d := &a.data
	return Backing{F64: d.f64, I64: d.i64, I32: d.i32, U8: d.u8, Shared: a.view}
}

// Clone returns a deep copy of the array. Element payloads of kind Any are
// shared (they are treated as immutable once stored), but nested array values
// are cloned.
func (a *Array) Clone() *Array {
	c := &Array{kind: a.kind, extents: append([]int(nil), a.extents...), data: newSlab(a.data.class, a.data.len())}
	if a.data.class == classVal {
		for i, v := range a.data.vs {
			if v.IsArray() {
				c.data.vs[i] = ArrayVal(v.Array().Clone())
			} else {
				c.data.vs[i] = v
			}
		}
	} else {
		c.data.copyRange(0, &a.data, 0, a.data.len())
	}
	return c
}

// resetShape repurposes the array in place: kind set to k, extents copied from
// ext, backing slab resized to the product of ext. Contents are unspecified
// after the call (callers overwrite every element); reuses the extents slice
// and slab capacity when possible.
func (a *Array) resetShape(k Kind, ext []int) {
	n := 1
	for _, e := range ext {
		n *= e
	}
	if cap(a.extents) >= len(ext) {
		a.extents = a.extents[:len(ext)]
		copy(a.extents, ext)
	} else {
		a.extents = append([]int(nil), ext...)
	}
	cls := classOf(k)
	a.kind = k
	if a.view {
		// A view's slab belongs to a field generation: never reuse it as a
		// copy destination. Drop the alias and allocate privately below.
		a.view = false
		a.data = slab{class: cls}
	}
	if a.data.class != cls {
		a.data = newSlab(cls, n)
		return
	}
	if n <= a.data.capacity() {
		// Zero only matters for callers that do not overwrite every slot;
		// all resetShape callers overwrite, but stale classVal references
		// would pin memory (and a stale classStr arena would grow without
		// bound), so drop them.
		if cls == classVal || cls == classStr {
			a.data.clearFull()
		}
		a.data.reslice(n)
		return
	}
	a.data.alloc(n, n)
}

// aliasSlab points the array at n elements of src starting at flat offset
// base, without copying: the backing slices alias src (three-index sliced so
// appends can never spill into the generation), extents are copied from ext,
// and the array is marked as a view (see Field.PinView and Window).
func (a *Array) aliasSlab(k Kind, ext []int, src *slab, base, n int) {
	if cap(a.extents) >= len(ext) {
		a.extents = a.extents[:len(ext)]
		copy(a.extents, ext)
	} else {
		a.extents = append([]int(nil), ext...)
	}
	a.kind = k
	// Re-aliasing a view of the same class only overwrites the class's own
	// slices below; the rest of the slab is nil already.
	if !a.view || a.data.class != src.class {
		a.data = slab{class: src.class}
	}
	a.view = true
	d := &a.data
	switch src.class {
	case classU8:
		d.u8 = src.u8[base : base+n : base+n]
	case classI32:
		d.i32 = src.i32[base : base+n : base+n]
	case classI64:
		d.i64 = src.i64[base : base+n : base+n]
	case classF64:
		d.f64 = src.f64[base : base+n : base+n]
	case classStr:
		d.off = src.off[base : base+n : base+n]
		d.lens = src.lens[base : base+n : base+n]
		d.str = src.str // offsets are arena-absolute
	default:
		d.vs = src.vs[base : base+n : base+n]
	}
}

// Window points a at the cells of src from flat offset off on, shaped ext,
// without copying: a becomes a view of src's storage (see aliasSlab).
func (a *Array) Window(src *Array, off int, ext []int) {
	n := 1
	for _, e := range ext {
		n *= e
	}
	a.aliasSlab(src.kind, ext, &src.data, off, n)
}

// ResetEmpty repurposes the array in place as an empty array of the given
// kind and rank (all extents zero), reusing backing capacity and allocating
// nothing for small ranks. Pooled kernel contexts use it to recycle
// local-array storage across instances.
func (a *Array) ResetEmpty(k Kind, rank int) {
	var buf [4]int
	var ext []int
	if rank <= len(buf) {
		ext = buf[:rank]
	} else {
		ext = make([]int, rank)
	}
	a.resetShape(k, ext)
}

// Equal reports element-wise equality of two arrays.
func (a *Array) Equal(o *Array) bool {
	if a == nil || o == nil {
		return a == o
	}
	if a.kind != o.kind || len(a.extents) != len(o.extents) {
		return false
	}
	for d := range a.extents {
		if a.extents[d] != o.extents[d] {
			return false
		}
	}
	return a.data.equalRange(&o.data, a.data.len())
}

// String formats the array like {1, 2, 3} (rank-1) or nested braces.
func (a *Array) String() string {
	var b strings.Builder
	a.format(&b, 0, 0)
	return b.String()
}

func (a *Array) format(b *strings.Builder, dim, base int) {
	b.WriteByte('{')
	stride := 1
	for d := dim + 1; d < len(a.extents); d++ {
		stride *= a.extents[d]
	}
	for i := 0; i < a.extents[dim]; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		if dim == len(a.extents)-1 {
			b.WriteString(a.data.get(a.kind, base+i).String())
		} else {
			a.format(b, dim+1, base+i*stride)
		}
	}
	b.WriteByte('}')
}
