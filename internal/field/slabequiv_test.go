package field

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// boxedRef is the pre-slab reference implementation of one field generation:
// a flat []Value with elementwise growth, exactly the storage the Field used
// before kind-specialized slabs. The property test drives a Field and a
// boxedRef with the same randomized operation sequence and requires identical
// observable behavior, which pins the slab representation to the boxed
// semantics for every kind.
type boxedRef struct {
	kind    Kind
	extents []int
	data    []Value
	written []bool
}

func newBoxedRef(kind Kind, rank int) *boxedRef {
	return &boxedRef{kind: kind, extents: make([]int, rank)}
}

func (r *boxedRef) flatten(idx []int) int {
	off := 0
	for d, i := range idx {
		if i < 0 || i >= r.extents[d] {
			return -1
		}
		off = off*r.extents[d] + i
	}
	return off
}

func (r *boxedRef) grow(want []int) {
	same := true
	ext := make([]int, len(r.extents))
	for d := range ext {
		ext[d] = r.extents[d]
		if want[d] > ext[d] {
			ext[d] = want[d]
			same = false
		}
	}
	if same {
		return
	}
	n := 1
	for _, e := range ext {
		n *= e
	}
	nd := make([]Value, n)
	nw := make([]bool, n)
	if len(r.data) > 0 {
		idx := make([]int, len(r.extents))
		for off := range r.data {
			noff := 0
			for d := range idx {
				noff = noff*ext[d] + idx[d]
			}
			nd[noff] = r.data[off]
			nw[noff] = r.written[off]
			for d := len(idx) - 1; d >= 0; d-- {
				idx[d]++
				if idx[d] < r.extents[d] {
					break
				}
				idx[d] = 0
			}
		}
	}
	r.extents = ext
	r.data = nd
	r.written = nw
}

func (r *boxedRef) store(v Value, idx []int) {
	want := make([]int, len(idx))
	for d, i := range idx {
		want[d] = i + 1
	}
	r.grow(want)
	off := r.flatten(idx)
	r.data[off] = v.Convert(r.kind)
	r.written[off] = true
}

// covered visits every position a slice store with the given selector and
// free-dimension extents would write, returning false from the visitor to
// stop early.
func (r *boxedRef) coveredBySlice(sel []SlabDim, freeExt []int, visit func(idx []int) bool) {
	idx := make([]int, len(sel))
	var rec func(d, j int) bool
	rec = func(d, j int) bool {
		if d == len(sel) {
			return visit(idx)
		}
		if sel[d].Fixed {
			idx[d] = sel[d].Index
			return rec(d+1, j)
		}
		for i := 0; i < freeExt[j]; i++ {
			idx[d] = i
			if !rec(d+1, j+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// refZero is the value an unwritten position reads as in the boxed model: the
// zero Value for reference-kind storage, the kind's zero for numeric slabs.
func refZero(k Kind) Value {
	if cls := classOf(k); cls == classVal || cls == classStr {
		return Value{}
	}
	return Zero(k)
}

// randValue draws a value whose payload exercises the kind's full range —
// including out-of-range integers, so canonical truncation is covered.
func randValue(rng *rand.Rand, k Kind) Value {
	switch k {
	case Uint8, Int32, Int64:
		return Int64Val(int64(rng.Uint64()))
	case Bool:
		return BoolVal(rng.Intn(2) == 1)
	case Float32, Float64:
		return Float64Val(rng.NormFloat64() * 1e6)
	case String:
		return StringVal(fmt.Sprintf("s%d", rng.Intn(1000)))
	default:
		return AnyVal(rng.Intn(1000))
	}
}

func valEq(a, b Value) bool { return a.String() == b.String() && a.Kind() == b.Kind() }

// TestSlabMatchesBoxedReference drives every element kind through randomized
// store/fetch/slice/grow sequences against the boxed reference model.
func TestSlabMatchesBoxedReference(t *testing.T) {
	kinds := []Kind{Uint8, Bool, Int32, Int64, Float32, Float64, String, Any}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, rank := range []int{1, 2, 3} {
				rng := rand.New(rand.NewSource(int64(42 + rank + int(k)<<4)))
				f := New("equiv", k, rank, false)
				ref := newBoxedRef(k, rank)
				dst := &Array{}

				randIdx := func() []int {
					idx := make([]int, rank)
					for d := range idx {
						idx[d] = rng.Intn(6)
					}
					return idx
				}
				randSel := func() ([]SlabDim, int) {
					for {
						sel := make([]SlabDim, rank)
						free := 0
						for d := range sel {
							if rng.Intn(2) == 0 {
								sel[d] = SlabDim{Fixed: true, Index: rng.Intn(5)}
							} else {
								free++
							}
						}
						if free > 0 {
							return sel, free
						}
					}
				}

				for op := 0; op < 300; op++ {
					switch rng.Intn(6) {
					case 0: // element store
						idx := randIdx()
						v := randValue(rng, k)
						off := ref.flatten(idx)
						if off >= 0 && ref.written[off] {
							if _, err := storeCell(f, 0, v, idx...); err == nil {
								t.Fatalf("rank %d op %d: store at written %v did not error", rank, op, idx)
							}
							continue
						}
						if _, err := storeCell(f, 0, v, idx...); err != nil {
							t.Fatalf("rank %d op %d: store %v: %v", rank, op, idx, err)
						}
						ref.store(v, idx)
					case 1: // slice store
						sel, free := randSel()
						freeExt := make([]int, free)
						for j := range freeExt {
							freeExt[j] = 1 + rng.Intn(4)
						}
						conflict := false
						ref.coveredBySlice(sel, freeExt, func(idx []int) bool {
							if off := ref.flatten(idx); off >= 0 && ref.written[off] {
								conflict = true
								return false
							}
							return true
						})
						if conflict {
							continue // partial-failure states are not modeled
						}
						a := NewArray(k, freeExt...)
						vals := make([]Value, a.Len())
						for i := range vals {
							vals[i] = randValue(rng, k)
							a.SetFlat(vals[i], i)
						}
						if _, err := f.StoreSlice(0, sel, a); err != nil {
							t.Fatalf("rank %d op %d: slice store %v: %v", rank, op, sel, err)
						}
						i := 0
						ref.coveredBySlice(sel, freeExt, func(idx []int) bool {
							ref.store(vals[i], idx)
							i++
							return true
						})
					case 2: // element fetch
						idx := randIdx()
						got, ok := f.At(0, idx...)
						off := ref.flatten(idx)
						wantOK := off >= 0 && ref.written[off]
						if ok != wantOK {
							t.Fatalf("rank %d op %d: At%v ok=%v, ref %v", rank, op, idx, ok, wantOK)
						}
						if ok && !valEq(got, ref.data[off]) {
							t.Fatalf("rank %d op %d: At%v = %v, ref %v", rank, op, idx, got, ref.data[off])
						}
					case 3: // whole fetch
						f.SnapshotInto(0, dst)
						if !slices.Equal(dst.Extents(), ref.extents) {
							t.Fatalf("rank %d op %d: snapshot extents %v, ref %v", rank, op, dst.Extents(), ref.extents)
						}
						for i := 0; i < dst.Len(); i++ {
							want := refZero(k)
							if ref.written[i] {
								want = ref.data[i]
							}
							if got := dst.AtFlat(i); !valEq(got, want) {
								t.Fatalf("rank %d op %d: snapshot[%d] = %v, ref %v", rank, op, i, got, want)
							}
						}
					case 4: // slice fetch
						sel, _ := randSel()
						f.FetchSlice(0, sel, dst)
						outOfRange := false
						wantExt := []int{}
						for d, sd := range sel {
							if sd.Fixed {
								if sd.Index >= ref.extents[d] {
									outOfRange = true
								}
								continue
							}
							wantExt = append(wantExt, ref.extents[d])
						}
						if outOfRange {
							if dst.Len() != 0 {
								t.Fatalf("rank %d op %d: out-of-range slab has %d elems", rank, op, dst.Len())
							}
							continue
						}
						if len(wantExt) == 0 {
							wantExt = []int{0}
						}
						for j, e := range wantExt {
							if dst.Extent(j) != e {
								t.Fatalf("rank %d op %d: slab extent %d = %d, want %d", rank, op, j, dst.Extent(j), e)
							}
						}
						flat := 0
						ref.coveredBySlice(sel, wantExt, func(idx []int) bool {
							off := ref.flatten(idx)
							want := refZero(k)
							if off >= 0 && ref.written[off] {
								want = ref.data[off]
							}
							if got := dst.AtFlat(flat); !valEq(got, want) {
								t.Fatalf("rank %d op %d: slab[%d]%v = %v, ref %v", rank, op, flat, idx, got, want)
							}
							flat++
							return true
						})
					case 5: // extents
						for d := 0; d < rank; d++ {
							if got := f.Extent(0, d); got != ref.extents[d] {
								t.Fatalf("rank %d op %d: extent %d = %d, ref %d", rank, op, d, got, ref.extents[d])
							}
						}
					}
				}
			}
		})
	}
}
