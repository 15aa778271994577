package field

// Slab storage: kind-specialized flat backing for Field generations and local
// Arrays. Instead of a []Value (a ~64-byte boxed struct per element), each
// storage class keeps a flat typed slice — []uint8, []int32, []int64,
// []float64 — with []Value retained only as the fallback for Any elements.
// String elements live in an offset+length byte arena (classStr) so string
// rows neither box nor allocate per element. Scalar Get/Put boundaries still
// speak boxed Values; bulk paths (whole-generation snapshots, slab fetches,
// slice stores, the wire format) move the typed representation directly with
// copy.

// slabClass partitions element kinds into storage classes.
type slabClass uint8

const (
	classVal slabClass = iota // Any, Invalid: boxed fallback
	classU8                   // Uint8, Bool (bools normalize to 0/1)
	classI32                  // Int32
	classI64                  // Int64
	classF64                  // Float32, Float64 (float32 keeps the full
	// float64 representation, matching the boxed Value layout)
	classStr // String: offset+length views into a shared byte arena
	numSlabClasses
)

func classOf(k Kind) slabClass {
	switch k {
	case Uint8, Bool:
		return classU8
	case Int32:
		return classI32
	case Int64:
		return classI64
	case Float32, Float64:
		return classF64
	case String:
		return classStr
	default:
		return classVal
	}
}

// slab is the flat storage for one generation or one local array. Exactly one
// of the slices (chosen by class) is in use; the others stay nil.
//
// classStr layout: element i occupies str[off[i] : off[i]+lens[i]-1]. The
// length field uses len+1 coding so the zero value means "unset" (the boxed
// Value{} an untouched slot reports): lens[i] == 0 is unset, lens[i] == k+1 is
// a string of k bytes. The arena is append-only — overwriting an element
// orphans its old bytes until the slab is cleared, which write-once fields
// never do and local string arrays do rarely.
type slab struct {
	class slabClass
	u8    []uint8
	i32   []int32
	i64   []int64
	f64   []float64
	vs    []Value
	off   []uint32
	lens  []uint32
	str   []byte
}

func newSlab(cls slabClass, n int) slab {
	s := slab{class: cls}
	s.alloc(n, n)
	return s
}

func (s *slab) alloc(n, c int) {
	switch s.class {
	case classU8:
		s.u8 = make([]uint8, n, c)
	case classI32:
		s.i32 = make([]int32, n, c)
	case classI64:
		s.i64 = make([]int64, n, c)
	case classF64:
		s.f64 = make([]float64, n, c)
	case classStr:
		s.off = make([]uint32, n, c)
		s.lens = make([]uint32, n, c)
		s.str = s.str[:0] // keep any recycled arena capacity
	default:
		s.vs = make([]Value, n, c)
	}
}

func (s *slab) len() int {
	switch s.class {
	case classU8:
		return len(s.u8)
	case classI32:
		return len(s.i32)
	case classI64:
		return len(s.i64)
	case classF64:
		return len(s.f64)
	case classStr:
		return len(s.lens)
	default:
		return len(s.vs)
	}
}

func (s *slab) capacity() int {
	switch s.class {
	case classU8:
		return cap(s.u8)
	case classI32:
		return cap(s.i32)
	case classI64:
		return cap(s.i64)
	case classF64:
		return cap(s.f64)
	case classStr:
		return cap(s.lens)
	default:
		return cap(s.vs)
	}
}

// reslice sets the length to n, which must be within capacity. Newly exposed
// elements must already be zero (guaranteed by alloc and by clearFull on pool
// checkout).
func (s *slab) reslice(n int) {
	switch s.class {
	case classU8:
		s.u8 = s.u8[:n]
	case classI32:
		s.i32 = s.i32[:n]
	case classI64:
		s.i64 = s.i64[:n]
	case classF64:
		s.f64 = s.f64[:n]
	case classStr:
		s.off = s.off[:n]
		s.lens = s.lens[:n]
	default:
		s.vs = s.vs[:n]
	}
}

// zeroRange zeroes elements [i, j). classStr arena bytes stay in place (the
// offset/length entries going zero makes them unreachable).
func (s *slab) zeroRange(i, j int) {
	switch s.class {
	case classU8:
		clear(s.u8[i:j])
	case classI32:
		clear(s.i32[i:j])
	case classI64:
		clear(s.i64[i:j])
	case classF64:
		clear(s.f64[i:j])
	case classStr:
		clear(s.off[i:j])
		clear(s.lens[i:j])
	default:
		clear(s.vs[i:j])
	}
}

// resize grows the slab to length n, reallocating with the given capacity if
// the current capacity is too small. Existing elements are preserved; newly
// exposed elements are zeroed even when the backing capacity is recycled.
func (s *slab) resize(n, c int) {
	if n <= s.capacity() {
		old := s.len()
		s.reslice(n)
		s.zeroRange(old, n)
		return
	}
	if c < n {
		c = n
	}
	switch s.class {
	case classU8:
		nd := make([]uint8, n, c)
		copy(nd, s.u8)
		s.u8 = nd
	case classI32:
		nd := make([]int32, n, c)
		copy(nd, s.i32)
		s.i32 = nd
	case classI64:
		nd := make([]int64, n, c)
		copy(nd, s.i64)
		s.i64 = nd
	case classF64:
		nd := make([]float64, n, c)
		copy(nd, s.f64)
		s.f64 = nd
	case classStr:
		no := make([]uint32, n, c)
		copy(no, s.off)
		s.off = no
		nl := make([]uint32, n, c)
		copy(nl, s.lens)
		s.lens = nl
		// The arena carries over: offsets stay valid across a resize.
	default:
		nd := make([]Value, n, c)
		copy(nd, s.vs)
		s.vs = nd
	}
}

// clearFull zeroes the slab out to its full capacity and sets the length to
// zero, so later within-capacity reslices expose zeroed memory. Used when a
// slab is recycled through an age pool.
func (s *slab) clearFull() {
	switch s.class {
	case classU8:
		s.u8 = s.u8[:cap(s.u8)]
		clear(s.u8)
		s.u8 = s.u8[:0]
	case classI32:
		s.i32 = s.i32[:cap(s.i32)]
		clear(s.i32)
		s.i32 = s.i32[:0]
	case classI64:
		s.i64 = s.i64[:cap(s.i64)]
		clear(s.i64)
		s.i64 = s.i64[:0]
	case classF64:
		s.f64 = s.f64[:cap(s.f64)]
		clear(s.f64)
		s.f64 = s.f64[:0]
	case classStr:
		s.off = s.off[:cap(s.off)]
		clear(s.off)
		s.off = s.off[:0]
		s.lens = s.lens[:cap(s.lens)]
		clear(s.lens)
		s.lens = s.lens[:0]
		// Truncate the arena but keep its capacity for reuse; gets copy out,
		// so stale bytes beyond the length are never observable.
		s.str = s.str[:0]
	default:
		s.vs = s.vs[:cap(s.vs)]
		clear(s.vs)
		s.vs = s.vs[:0]
	}
}

// rawCopyCompatible reports whether elements of kind src can be copied into
// storage of kind dst without per-element conversion: the kinds share a slab
// class and the conversion is the identity on the stored representation.
func rawCopyCompatible(dst, src Kind) bool {
	if dst == src {
		return true
	}
	dc := classOf(dst)
	if dc != classOf(src) {
		return false
	}
	switch dc {
	case classF64:
		return true // float32 and float64 share the float64 representation
	case classU8:
		return dst == Uint8 // bool slabs hold 0/1, valid uint8 values
	default:
		return false
	}
}

// get boxes element i as a Value of kind k.
func (s *slab) get(k Kind, i int) Value {
	switch s.class {
	case classU8:
		return Value{kind: k, i: int64(s.u8[i])}
	case classI32:
		return Value{kind: k, i: int64(s.i32[i])}
	case classI64:
		return Value{kind: k, i: s.i64[i]}
	case classF64:
		return Value{kind: k, f: s.f64[i]}
	case classStr:
		l := s.lens[i]
		if l == 0 {
			return Value{} // unset, like an untouched boxed slot
		}
		o := s.off[i]
		// Copy out: the arena is zeroed/reused on recycle, so the returned
		// string must not alias it.
		return Value{kind: k, s: string(s.str[o : o+l-1])}
	default:
		return s.vs[i]
	}
}

// set unboxes v into slot i with the same coercion semantics as
// Value.Convert(k): integer kinds truncate to their width, Bool normalizes to
// 0/1, float kinds keep the full float64 representation.
func (s *slab) set(k Kind, i int, v Value) {
	switch s.class {
	case classU8:
		if k == Bool {
			if v.Bool() {
				s.u8[i] = 1
			} else {
				s.u8[i] = 0
			}
		} else {
			s.u8[i] = uint8(v.Int64())
		}
	case classI32:
		s.i32[i] = int32(v.Int64())
	case classI64:
		s.i64[i] = v.Int64()
	case classF64:
		s.f64[i] = v.Float64()
	case classStr:
		if v.IsArray() {
			// Boxed storage kept array values verbatim in String slots; the
			// arena cannot. No code path stores arrays into String fields.
			panic("field: array value stored into a String slab element")
		}
		cs := v.Convert(k).s
		s.off[i] = uint32(len(s.str))
		s.lens[i] = uint32(len(cs) + 1)
		s.str = append(s.str, cs...)
	default:
		s.vs[i] = v.Convert(k)
	}
}

// copyRange copies n elements from src[soff:] into s[doff:] with a single
// typed copy. Both slabs must have the same class.
func (s *slab) copyRange(doff int, src *slab, soff, n int) {
	switch s.class {
	case classU8:
		copy(s.u8[doff:doff+n], src.u8[soff:soff+n])
	case classI32:
		copy(s.i32[doff:doff+n], src.i32[soff:soff+n])
	case classI64:
		copy(s.i64[doff:doff+n], src.i64[soff:soff+n])
	case classF64:
		copy(s.f64[doff:doff+n], src.f64[soff:soff+n])
	case classStr:
		for i := 0; i < n; i++ {
			l := src.lens[soff+i]
			if l == 0 {
				s.off[doff+i], s.lens[doff+i] = 0, 0
				continue
			}
			o := src.off[soff+i]
			s.off[doff+i] = uint32(len(s.str))
			s.lens[doff+i] = l
			s.str = append(s.str, src.str[o:o+l-1]...)
		}
	default:
		copy(s.vs[doff:doff+n], src.vs[soff:soff+n])
	}
}

// copyCells writes n cells of src, from cell from on, to s[doff:] as
// elements of kind k: one typed copy when the kinds share a representation
// (rawCopyCompatible), else converted one by one.
func (s *slab) copyCells(k Kind, doff int, src *Array, from, n int) {
	if rawCopyCompatible(k, src.kind) {
		s.copyRange(doff, &src.data, from, n)
		return
	}
	for i := 0; i < n; i++ {
		s.set(k, doff+i, src.data.get(src.kind, from+i))
	}
}

// equalRange reports element-wise equality of the first n elements of s and
// o. Both slabs must have the same class; classVal elements compare with
// Value.Equal.
func (s *slab) equalRange(o *slab, n int) bool {
	switch s.class {
	case classU8:
		for i := 0; i < n; i++ {
			if s.u8[i] != o.u8[i] {
				return false
			}
		}
	case classI32:
		for i := 0; i < n; i++ {
			if s.i32[i] != o.i32[i] {
				return false
			}
		}
	case classI64:
		for i := 0; i < n; i++ {
			if s.i64[i] != o.i64[i] {
				return false
			}
		}
	case classF64:
		for i := 0; i < n; i++ {
			if s.f64[i] != o.f64[i] {
				return false
			}
		}
	case classStr:
		for i := 0; i < n; i++ {
			sl, ol := s.lens[i], o.lens[i]
			if sl != ol {
				return false
			}
			if sl == 0 {
				continue
			}
			if string(s.str[s.off[i]:s.off[i]+sl-1]) != string(o.str[o.off[i]:o.off[i]+ol-1]) {
				return false
			}
		}
	default:
		for i := 0; i < n; i++ {
			if !s.vs[i].Equal(o.vs[i]) {
				return false
			}
		}
	}
	return true
}
