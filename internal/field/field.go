package field

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrWriteTwice is wrapped by errors returned when write-once semantics are
// violated (a second store to the same field position within one age).
var ErrWriteTwice = fmt.Errorf("write-once violation")

// Field is a global, aged, rank-N, write-once array — the central P2G data
// abstraction. Each age holds an independent generation of the field's data;
// a position may be stored once per age. Extents start at zero in every
// dimension (unless declared) and grow implicitly as stores land past the
// current extent. An age becomes "complete" when the runtime's dependency
// analyzer determines that every producer kernel instance for that age has
// finished; completeness gates whole-field fetches.
//
// Generation storage is a kind-specialized flat slab (see slab.go): typed Go
// slices for numeric/bool kinds, []Value only for String/Any. Dropped
// generations return their slabs to per-class pools so steady-state aged
// pipelines stop allocating generation storage.
type Field struct {
	name string
	kind Kind
	rank int
	aged bool

	mu   sync.RWMutex
	ages map[int]*ageStore

	// merge relaxes write-once enforcement for failover replay: a store to
	// an already-written position, or to a completed age, is silently
	// skipped instead of erroring. Replayed generations and re-executed
	// deterministic kernels then merge into identical state. See
	// SetMergeStores.
	merge bool
}

// ageStore holds one generation of field data.
type ageStore struct {
	extents  []int
	data     slab
	written  []bool
	writes   int
	complete bool

	// View lifetime: views counts live read-only views aliasing data (see
	// PinView); detached marks a generation dropped from its field while
	// views were still in flight. Recycling into the age pools happens
	// exactly once, by whichever of "last view released" and "generation
	// dropped" runs second — the CompareAndSwap on detached is the claim.
	views    atomic.Int32
	detached atomic.Bool
}

// agePools recycles dropped generations per storage class. Pooled stores are
// fully reset on checkout; slab growth re-zeroes recycled capacity (see
// slab.resize), so a recycled generation is indistinguishable from a fresh
// one.
var agePools [numSlabClasses]sync.Pool

func newAgeStore(kind Kind, rank int) *ageStore {
	cls := classOf(kind)
	if v := agePools[cls].Get(); v != nil {
		s := v.(*ageStore)
		s.reset(rank)
		return s
	}
	return &ageStore{extents: make([]int, rank), data: slab{class: cls}}
}

// reset prepares a pooled store for reuse as an empty generation.
func (s *ageStore) reset(rank int) {
	if cap(s.extents) >= rank {
		s.extents = s.extents[:rank]
		clear(s.extents)
	} else {
		s.extents = make([]int, rank)
	}
	s.data.reslice(0)
	s.written = s.written[:0]
	s.writes = 0
	s.complete = false
	// Defensive: a correctly recycled store reaches the pool with no views
	// and detached already consumed.
	s.views.Store(0)
	s.detached.Store(false)
}

// DrainAgePoolsForTest empties the package-level generation pools so a test
// starts from a deterministic pool state. The pools are shared by every Field
// in the process, so pool-reuse regression tests in dependent packages (e.g.
// dist's worker-release test) need this; it has no other use.
func DrainAgePoolsForTest() {
	for i := range agePools {
		for agePools[i].Get() != nil {
		}
	}
}

// recycle returns a dropped generation to its class pool. Any slabs are
// cleared eagerly so dropped payload references are released now, not at next
// reuse; String slabs truncate their arena for the same reason.
func recycleAge(s *ageStore) {
	if s.data.class == classVal || s.data.class == classStr {
		s.data.clearFull()
	}
	agePools[s.data.class].Put(s)
}

// detach removes a generation from circulation on the drop path: recycle
// immediately when no views alias its slab, otherwise leave the recycle to
// the last ViewToken.Release. New views cannot appear — the caller holds the
// field lock and has already unlinked the store from f.ages.
func (s *ageStore) detach() {
	if s.views.Load() == 0 {
		recycleAge(s)
		return
	}
	s.detached.Store(true)
	// A release may have dropped views to zero between the load above and
	// the detached store, in which case its CompareAndSwap saw false and did
	// not recycle; re-check and claim.
	if s.views.Load() == 0 && s.detached.CompareAndSwap(true, false) {
		recycleAge(s)
	}
}

// ViewToken pins one generation's slab against recycling while a read-only
// view (see PinView) aliases it. The zero token is a valid no-op. Release
// must be called exactly once per acquired token.
type ViewToken struct {
	s    *ageStore
	kind Kind
}

// Release drops the view's pin. If the generation was dropped from its field
// while this view was in flight, the last release recycles the slab.
func (t ViewToken) Release() {
	s := t.s
	if s == nil {
		return
	}
	if s.views.Add(-1) == 0 && s.detached.CompareAndSwap(true, false) {
		recycleAge(s)
	}
}

// New creates a field. Rank must be at least 1. Non-aged fields behave as a
// single age-0 generation; storing to any other age is an error.
func New(name string, kind Kind, rank int, aged bool) *Field {
	if rank < 1 {
		panic(fmt.Sprintf("field %s: rank must be >= 1, got %d", name, rank))
	}
	return &Field{name: name, kind: kind, rank: rank, aged: aged, ages: make(map[int]*ageStore)}
}

// Name returns the field's declared name.
func (f *Field) Name() string { return f.name }

// Kind returns the element kind.
func (f *Field) Kind() Kind { return f.kind }

// Rank returns the number of dimensions.
func (f *Field) Rank() int { return f.rank }

// Aged reports whether the field was declared with the `age` attribute.
func (f *Field) Aged() bool { return f.aged }

// SetMergeStores toggles merge-tolerant stores. With merge on, a store that
// would violate write-once (position already written, or the age already
// marked complete) becomes a silent no-op instead of an error: replaying a
// generation or re-executing a deterministic kernel after a node failure is
// then idempotent at the storage layer. The cost is that genuine write-twice
// program errors are masked while the mode is on, so the runtime only enables
// it when failover is requested.
func (f *Field) SetMergeStores(on bool) {
	f.mu.Lock()
	f.merge = on
	f.mu.Unlock()
}

func (f *Field) age(a int, create bool) *ageStore {
	if !f.aged && a != 0 {
		panic(fmt.Sprintf("field %s: access to age %d of non-aged field", f.name, a))
	}
	s := f.ages[a]
	if s == nil && create {
		s = newAgeStore(f.kind, f.rank)
		f.ages[a] = s
	}
	return s
}

// StoreResult describes the effect of a store for the dependency analyzer.
type StoreResult struct {
	// Grew is true if the store enlarged the field's extent at this age.
	Grew bool
	// Count is the number of elements written by this store.
	Count int
	// The extent after a growing store (see Extents): inline up to rank
	// four, so that rows arriving in order — each one growing the
	// generation — store without allocating; extBig holds higher ranks.
	rank   int
	ext    [4]int
	extBig []int
}

// Extents returns the extent after the store when it grew the generation,
// and nil when it did not. The slice aliases r.
func (r *StoreResult) Extents() []int {
	switch {
	case !r.Grew:
		return nil
	case r.extBig != nil:
		return r.extBig
	}
	return r.ext[:r.rank]
}

func (s *ageStore) grow(extents []int) {
	same := true
	onlyOuter := true
	for d, e := range extents {
		if e < s.extents[d] {
			extents[d] = s.extents[d]
		} else if e > s.extents[d] {
			same = false
			if d > 0 {
				onlyOuter = false
			}
		}
	}
	if same {
		return
	}
	n := 1
	for _, e := range extents {
		n *= e
	}
	// Fast path: growth confined to the outermost dimension preserves every
	// element's flat offset, and an empty generation has nothing to remap —
	// extend in place with amortized doubling (reusing pooled capacity).
	// Element-by-element and row-by-row stores — the dominant patterns for
	// per-macroblock kernels — cost O(n) total instead of O(n²) remapping.
	if onlyOuter || s.data.len() == 0 {
		s.data.resize(n, 2*s.data.capacity())
		s.written = growBools(s.written, n)
		copy(s.extents, extents)
		return
	}
	nd := newSlab0(s.data.class, n)
	nw := make([]bool, n)
	if s.data.len() > 0 {
		remapSlab(&nd, extents, &s.data, s.extents)
		idx := make([]int, len(s.extents))
		for off := range s.written {
			noff := 0
			for d := range idx {
				noff = noff*extents[d] + idx[d]
			}
			nw[noff] = s.written[off]
			for d := len(idx) - 1; d >= 0; d-- {
				idx[d]++
				if idx[d] < s.extents[d] {
					break
				}
				idx[d] = 0
			}
		}
	}
	copy(s.extents, extents)
	s.data = nd
	s.written = nw
}

// newSlab0 builds a zeroed slab of the given class directly.
func newSlab0(cls slabClass, n int) slab {
	s := slab{class: cls}
	s.alloc(n, n)
	return s
}

// growBools extends a bool slice to length n with amortized doubling,
// zeroing recycled capacity.
func growBools(b []bool, n int) []bool {
	if n <= cap(b) {
		old := len(b)
		b = b[:n]
		clear(b[old:n])
		return b
	}
	c := 2 * cap(b)
	if c < n {
		c = n
	}
	nb := make([]bool, n, c)
	copy(nb, b)
	return nb
}

func (s *ageStore) flatten(idx []int) int {
	off := 0
	for d, i := range idx {
		if i < 0 || i >= s.extents[d] {
			return -1
		}
		off = off*s.extents[d] + i
	}
	return off
}

// result builds the StoreResult of a store that wrote count elements.
func (s *ageStore) result(grew bool, count int) StoreResult {
	r := StoreResult{Grew: grew, Count: count}
	if grew {
		if len(s.extents) <= len(r.ext) {
			r.rank = copy(r.ext[:], s.extents)
		} else {
			r.extBig = append([]int(nil), s.extents...)
		}
	}
	return r
}

// ints returns n ints of scratch, in buf when they fit.
func ints(buf *[4]int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
}

// Store writes a single element at (age, idx...), growing the extent if the
// index lies past it. It returns ErrWriteTwice (wrapped) if the position was
// already written at this age.
func (f *Field) Store(age int, v Value, idx ...int) (StoreResult, error) {
	if len(idx) != f.rank {
		return StoreResult{}, fmt.Errorf("field %s: store rank mismatch: %d coordinates for rank-%d field", f.name, len(idx), f.rank)
	}
	vals := [1]Value{v}
	return f.StoreElems(age, idx, vals[:])
}

// StoreElems writes len(vals) single elements of one generation under one
// lock acquisition: element i lands at idx[i*rank:(i+1)*rank]. Every element
// obeys the same rules as Store (implicit growth, write-once, merge mode);
// the extent grows once, to cover the whole batch. The result describes the
// batch: Grew if the extent was enlarged, Extents the extent afterwards,
// Count the elements written. A negative coordinate fails the batch before
// anything is stored; on a write-once violation the elements before the
// offending one stay stored.
func (f *Field) StoreElems(age int, idx []int, vals []Value) (StoreResult, error) {
	rank := f.rank
	if len(idx) != len(vals)*rank {
		return StoreResult{}, fmt.Errorf("field %s: batch store of %d elements with %d coordinates for rank-%d field", f.name, len(vals), len(idx), rank)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, err := f.openForStore(age)
	if s == nil {
		return StoreResult{}, err
	}
	var extBuf [4]int
	ext := ints(&extBuf, rank)
	copy(ext, s.extents)
	grew := false
	for i, c := range idx {
		if c < 0 {
			return StoreResult{}, fmt.Errorf("field %s: negative index %d", f.name, c)
		}
		if d := i % rank; c >= ext[d] {
			ext[d] = c + 1
			grew = true
		}
	}
	if grew {
		s.grow(ext)
	}
	count := 0
	for i, v := range vals {
		at := idx[i*rank : (i+1)*rank]
		off := s.flatten(at)
		if s.written[off] {
			if f.merge {
				continue
			}
			// A copy: handing idx itself to the error would move every
			// caller's coordinate buffer to the heap.
			return s.result(grew, count), fmt.Errorf("field %s(%d)%v: %w", f.name, age, slices.Clone(at), ErrWriteTwice)
		}
		s.data.set(f.kind, off, v)
		s.written[off] = true
		s.writes++
		count++
	}
	return s.result(grew, count), nil
}

// openForStore returns the generation a store to age lands in, creating it on
// first use. A completed generation accepts no store: the result is nil, with
// a nil error under merge mode (the store is silently skipped). Caller holds
// f.mu.
func (f *Field) openForStore(age int) (*ageStore, error) {
	s := f.age(age, true)
	if s.complete {
		if f.merge {
			return nil, nil
		}
		return nil, fmt.Errorf("field %s(%d): store after age marked complete", f.name, age)
	}
	return s, nil
}

// StoreAll writes an entire generation from a local array: the slab store
// whose selector fixes no dimension (see StoreSlice).
func (f *Field) StoreAll(age int, a *Array) (StoreResult, error) {
	return f.StoreSlice(age, allFree(f.rank), a)
}

// allFree returns the selector that fixes none of rank dimensions — a whole
// generation as a slab. The result is shared: callers must not write it.
func allFree(rank int) []SlabDim {
	if rank <= len(allFreeBuf) {
		return allFreeBuf[:rank:rank]
	}
	return make([]SlabDim, rank)
}

// allFreeBuf backs allFree for the ranks programs use, so whole-field stores,
// fetches and views allocate no selector.
var allFreeBuf [8]SlabDim

// StoreSlice writes a sub-slab of the generation at (age, sel) from a local
// array: fixed selector dimensions pin a coordinate, free dimensions are
// covered by the array's extents in field order. The generation grows as
// needed; every covered position obeys write-once. When the fixed dimensions
// form a prefix and the trailing field extents match the array's (the
// store-one-row and whole-generation cases), the data moves with a single
// typed copy.
func (f *Field) StoreSlice(age int, sel []SlabDim, a *Array) (StoreResult, error) {
	if len(sel) != f.rank {
		return StoreResult{}, fmt.Errorf("field %s: slice store rank mismatch: %d selectors for rank-%d field", f.name, len(sel), f.rank)
	}
	free := 0
	fixedPrefix := true
	for _, sd := range sel {
		if sd.Fixed {
			if sd.Index < 0 {
				return StoreResult{}, fmt.Errorf("field %s: negative index %d", f.name, sd.Index)
			}
			if free > 0 {
				fixedPrefix = false
			}
		} else {
			free++
		}
	}
	if free == 0 {
		return StoreResult{}, fmt.Errorf("field %s: slice store with no free dimensions (use Store)", f.name)
	}
	if a.Rank() != free {
		return StoreResult{}, fmt.Errorf("field %s: slice store rank mismatch: rank-%d array for %d free dimensions", f.name, a.Rank(), free)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, err := f.openForStore(age)
	if s == nil {
		return StoreResult{}, err
	}
	// Required extent per dimension: fixed index + 1, or the array's extent
	// for the matching free dimension.
	var extBuf [4]int
	ext := ints(&extBuf, f.rank)
	copy(ext, s.extents)
	grew := false
	j := 0
	for d, sd := range sel {
		want := sd.Index + 1
		if !sd.Fixed {
			want = a.Extent(j)
			j++
		}
		if want > ext[d] {
			ext[d] = want
			grew = true
		}
	}
	if grew {
		s.grow(ext)
	}
	n := a.Len()
	if n == 0 {
		return s.result(grew, 0), nil
	}
	// Contiguous fast path: fixed dims form a prefix and every free field
	// dimension after the first matches the array's extent, so the covered
	// region is one flat run.
	contig := fixedPrefix && rawCopyCompatible(f.kind, a.kind)
	if contig {
		j = 0
		for d, sd := range sel {
			if sd.Fixed {
				continue
			}
			if j > 0 && s.extents[d] != a.Extent(j) {
				contig = false
				break
			}
			j++
		}
	}
	if contig {
		base := 0
		j = 0
		for d, sd := range sel {
			i := 0
			if sd.Fixed {
				i = sd.Index
			}
			base = base*s.extents[d] + i
		}
		// A generation with no writes yet (a whole-field store into a fresh
		// age) cannot overlap, so only a written one is scanned.
		overlap := false
		for i := base; s.writes > 0 && i < base+n; i++ {
			if s.written[i] {
				if !f.merge {
					return StoreResult{}, fmt.Errorf("field %s(%d) slice at %d: %w", f.name, age, i, ErrWriteTwice)
				}
				// Merge mode: an overlapping run needs the element-wise
				// walk below; undo nothing (no positions marked yet).
				overlap = true
				break
			}
		}
		if !overlap {
			for i := base; i < base+n; i++ {
				s.written[i] = true
			}
			s.data.copyRange(base, &a.data, 0, n)
			s.writes += n
			return s.result(grew, n), nil
		}
	}
	// General path: walk the array in row-major order, pinning fixed dims.
	var idxBuf, freeBuf [4]int
	idx := ints(&idxBuf, f.rank)
	freeDims := ints(&freeBuf, free)[:0]
	for d, sd := range sel {
		if sd.Fixed {
			idx[d] = sd.Index
		} else {
			freeDims = append(freeDims, d)
		}
	}
	count := 0
	for flat := 0; flat < n; flat++ {
		off := s.flatten(idx)
		if s.written[off] {
			if !f.merge {
				// A copy, so that idx can stay on the stack (see StoreElems).
				return StoreResult{}, fmt.Errorf("field %s(%d)%v: %w", f.name, age, slices.Clone(idx), ErrWriteTwice)
			}
		} else {
			s.data.set(f.kind, off, a.data.get(a.kind, flat))
			s.written[off] = true
			s.writes++
			count++
		}
		for k := free - 1; k >= 0; k-- {
			d := freeDims[k]
			idx[d]++
			if idx[d] < a.Extent(k) {
				break
			}
			idx[d] = 0
		}
	}
	return s.result(grew, count), nil
}

// At returns the element at (age, idx...). The second result is false if the
// position has not been written (or is out of the current extent).
func (f *Field) At(age int, idx ...int) (Value, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := f.ages[age]
	if s == nil {
		return Value{}, false
	}
	off := s.flatten(idx)
	if off < 0 || !s.written[off] {
		return Value{}, false
	}
	return s.data.get(f.kind, off), true
}

// Snapshot copies the entire generation at the given age into a fresh local
// Array. Unwritten positions are zero values. Snapshotting a non-existent age
// yields an empty array with zero extents.
func (f *Field) Snapshot(age int) *Array {
	a := &Array{}
	f.SnapshotInto(age, a)
	return a
}

// SnapshotInto copies the entire generation at the given age into dst,
// reusing dst's backing storage: the slab fetch whose selector fixes no
// dimension (see FetchSlice).
func (f *Field) SnapshotInto(age int, dst *Array) {
	f.FetchSlice(age, allFree(f.rank), dst)
}

// PinView pins the generation at the given age for zero-copy reads without
// aliasing anything yet: the returned token's Slice method then points arrays
// at the generation's slab with no further locking or reference counting, as
// often as the holder likes, until Release. It is only legal once the
// generation is complete (write-once + completeness makes extents and slab
// immutable, and the pin defers recycling past a drop); it returns false
// when the age is absent or not yet complete, and callers fall back to the
// copying path. The runtime takes one pin per fetch per slice of instances.
func (f *Field) PinView(age int) (ViewToken, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := f.ages[age]
	if s == nil || !s.complete {
		return ViewToken{}, false
	}
	s.views.Add(1)
	return ViewToken{s: s, kind: f.kind}, true
}

// All points dst at the pinned generation's whole slab without copying: the
// view whose selector fixes no dimension (see Slice).
func (t ViewToken) All(dst *Array) {
	t.Slice(allFree(len(t.s.extents)), dst)
}

// Slice points dst at a contiguous sub-slab of the pinned generation without
// copying — the zero-copy counterpart of FetchSlice. dst must be treated as
// read-only while the pin is live; boxed mutations copy-on-write, but the
// typed accessors (Uint8s/Int32s/...) expose the field's own storage. Only
// selectors whose fixed dimensions form a prefix describe one contiguous run,
// so it returns false (dst untouched) for non-prefix selectors and
// out-of-range fixed coordinates; callers fall back to the copying FetchSlice.
func (t ViewToken) Slice(sel []SlabDim, dst *Array) bool {
	s := t.s
	if len(sel) != len(s.extents) {
		panic(fmt.Sprintf("field: slab rank mismatch: %d selectors for rank-%d generation", len(sel), len(s.extents)))
	}
	var freeExtBuf [4]int
	freeExt := freeExtBuf[:0]
	base, n := 0, 1
	seenFree := false
	for d, sd := range sel {
		if sd.Fixed {
			if seenFree {
				return false // fixed dims must form a prefix
			}
			if sd.Index < 0 || sd.Index >= s.extents[d] {
				return false // out of range: copying path delivers empty
			}
			base = base*s.extents[d] + sd.Index
			continue
		}
		seenFree = true
		base = base * s.extents[d]
		freeExt = append(freeExt, s.extents[d])
		n *= s.extents[d]
	}
	if !seenFree {
		return false // no free dimensions: not a slab fetch
	}
	dst.aliasSlab(t.kind, freeExt, &s.data, base, n)
	return true
}

// FetchViewAll pins the generation (see PinView) and points dst at its whole
// slab: the view fetch whose selector fixes no dimension. It returns false,
// leaving dst untouched, when the age is absent or not yet complete.
func (f *Field) FetchViewAll(age int, dst *Array) (ViewToken, bool) {
	return f.fetchView(age, allFree(f.rank), dst)
}

// fetchView pins the generation (see PinView) and points dst at the
// contiguous sub-slab sel selects. It returns false, leaving dst untouched
// and nothing pinned, when the age is absent or incomplete or the selector
// does not describe one contiguous run (see ViewToken.Slice).
func (f *Field) fetchView(age int, sel []SlabDim, dst *Array) (ViewToken, bool) {
	t, ok := f.PinView(age)
	if !ok {
		return ViewToken{}, false
	}
	if !t.Slice(sel, dst) {
		t.Release()
		return ViewToken{}, false
	}
	return t, true
}

// Extents returns the current extents at the given age (zeros if the age has
// never been stored to).
func (f *Field) Extents(age int) []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := f.ages[age]
	if s == nil {
		return make([]int, f.rank)
	}
	return append([]int(nil), s.extents...)
}

// Extent returns the current extent of dimension d at the given age without
// allocating (0 if the age has never been stored to).
func (f *Field) Extent(age, d int) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := f.ages[age]
	if s == nil || d < 0 || d >= len(s.extents) {
		return 0
	}
	return s.extents[d]
}

// Writes returns the number of elements written at the given age.
func (f *Field) Writes(age int) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := f.ages[age]
	if s == nil {
		return 0
	}
	return s.writes
}

// MarkComplete records that all producers for the given age have finished.
// Subsequent stores to that age fail. It is idempotent.
func (f *Field) MarkComplete(age int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.age(age, true).complete = true
}

// DropAge garbage collects a single generation, returning its storage to the
// slab pool (deferred to the last view release if views are in flight). It
// reports whether the age was live.
func (f *Field) DropAge(age int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.ages[age]
	if !ok {
		return false
	}
	delete(f.ages, age)
	s.detach()
	return true
}

// Release drops every live generation into the slab pools, leaving the field
// empty but reusable. A run's mid-stream garbage collection only recycles
// ages whose consumers finished; the youngest generations are still live when
// the run ends and would otherwise be discarded to the GC. Releasing them
// lets the next run grow inside recycled capacity instead of reallocating.
// Snapshots taken earlier are unaffected — they are copies.
func (f *Field) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for a, s := range f.ages {
		delete(f.ages, a)
		s.detach()
	}
}

// Ages returns the set of live (non-collected) ages, unordered.
func (f *Field) Ages() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]int, 0, len(f.ages))
	for a := range f.ages {
		out = append(out, a)
	}
	return out
}

// MemoryElems returns the total number of element slots currently allocated
// across all live ages; used by the garbage-collection tests and the
// instrumentation report.
func (f *Field) MemoryElems() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, s := range f.ages {
		n += s.data.len()
	}
	return n
}

// SlabDim selects one dimension of a slab store, fetch or view: either a fixed
// coordinate or (the zero value) the whole dimension.
type SlabDim struct {
	Fixed bool
	Index int
}

// FetchSlice copies a sub-slab of the generation at the given age into dst,
// reusing dst's backing storage when capacity allows. Fixed dimensions are
// dropped; free dimensions become dst's dimensions in field order.
// Out-of-range fixed coordinates yield an empty array. When the fixed
// dimensions form a prefix (the fetch-one-row case) the data moves with a
// single typed copy.
func (f *Field) FetchSlice(age int, sel []SlabDim, dst *Array) {
	if len(sel) != f.rank {
		panic(fmt.Sprintf("field %s: slab rank mismatch: %d selectors for rank-%d field", f.name, len(sel), f.rank))
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	var freeExtBuf [4]int
	freeExt := freeExtBuf[:0]
	s := f.ages[age]
	if s != nil {
		for d, sd := range sel {
			if sd.Fixed && (sd.Index < 0 || sd.Index >= s.extents[d]) {
				s = nil // out of range: deliver an empty slab
				break
			}
		}
	}
	fixedPrefix := true
	for d, sd := range sel {
		if sd.Fixed {
			if len(freeExt) > 0 {
				fixedPrefix = false
			}
			continue
		}
		if s == nil {
			freeExt = append(freeExt, 0)
		} else {
			freeExt = append(freeExt, s.extents[d])
		}
	}
	if len(freeExt) == 0 {
		freeExt = append(freeExt, 0)
	}
	dst.resetShape(f.kind, freeExt)
	n := dst.Len()
	if s == nil || n == 0 {
		return
	}
	if fixedPrefix {
		// The selected region is a contiguous suffix block.
		base := 0
		for d, sd := range sel {
			i := 0
			if sd.Fixed {
				i = sd.Index
			}
			base = base*s.extents[d] + i
		}
		dst.data.copyRange(0, &s.data, base, n)
		return
	}
	// General path: walk free dims before the last fixed dim elementwise and
	// copy the contiguous run spanned by the trailing free dims.
	lastFixed := -1
	for d, sd := range sel {
		if sd.Fixed {
			lastFixed = d
		}
	}
	runLen := 1
	for d := lastFixed + 1; d < f.rank; d++ {
		runLen *= s.extents[d]
	}
	idx := make([]int, f.rank)
	for d, sd := range sel {
		if sd.Fixed {
			idx[d] = sd.Index
		}
	}
	flat := 0
	var walk func(d int)
	walk = func(d int) {
		if d > lastFixed {
			dst.data.copyRange(flat, &s.data, s.flatten(idx), runLen)
			flat += runLen
			return
		}
		if sel[d].Fixed {
			walk(d + 1)
			return
		}
		for i := 0; i < s.extents[d]; i++ {
			idx[d] = i
			walk(d + 1)
		}
	}
	if runLen > 0 {
		walk(0)
	}
}

// At returns the element at idx of the pinned generation without locking —
// the pinned counterpart of Field.At, with the same results.
func (t ViewToken) At(idx []int) (Value, bool) {
	s := t.s
	off := s.flatten(idx)
	if off < 0 || !s.written[off] {
		return Value{}, false
	}
	return s.data.get(t.kind, off), true
}
