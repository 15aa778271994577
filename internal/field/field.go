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

// grow enlarges the generation to extents; the caller writes every cell of
// [lo, hi) next (see fillsRun), so where growth keeps every written cell's
// offset those cells are not zeroed first.
func (s *ageStore) grow(extents []int, lo, hi int) {
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
		s.data.resizeOver(n, 2*s.data.capacity(), lo, hi)
		s.written = growBools(s.written, n)
		copy(s.extents, extents)
		return
	}
	nd := newSlab(s.data.class, n)
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

// StoreBoxes writes boxes of one generation under one lock. A box is a
// selector of Rank dimensions (see SlabDim) whose free dimensions span the
// next entries of ext: sels holds the selectors back to back, src the cells,
// box after box, each in row-major order; fixing every dimension selects one
// cell. The generation grows once to cover every box; a written cell or a
// completed generation refuses the store (merge mode skips it). The result
// covers the call. A negative coordinate or origin, or a count mismatch,
// fails before anything is stored; on a write-once violation the runs before
// the offending one stay stored.
func (f *Field) StoreBoxes(age int, sels []SlabDim, ext []int, src *Array) (StoreResult, error) {
	rank := f.rank
	if len(sels)%rank != 0 {
		return StoreResult{}, fmt.Errorf("field %s: box store of %d selector dimensions for rank-%d field", f.name, len(sels), rank)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, err := f.openForStore(age)
	if s == nil {
		return StoreResult{}, err
	}
	// Required extent per dimension: a fixed coordinate + 1, or a free
	// dimension's origin + its extent.
	var extBuf [4]int
	want := ints(&extBuf, rank)
	copy(want, s.extents)
	grew := false
	cells, box, j := 0, 1, 0
	for i, sd := range sels {
		n := 1
		if !sd.Fixed {
			if j == len(ext) {
				return StoreResult{}, fmt.Errorf("field %s: box store with too few extents", f.name)
			}
			n, j = ext[j], j+1
		}
		if sd.Index < 0 || n < 0 {
			return StoreResult{}, fmt.Errorf("field %s: negative index %d", f.name, min(sd.Index, n))
		}
		hi := sd.Index + n
		if sd.Fixed {
			hi = sd.Index + 1
		}
		if d := i % rank; hi > want[d] {
			want[d], grew = hi, true
		}
		if box *= n; i%rank == rank-1 {
			cells, box = cells+box, 1
		}
	}
	if j != len(ext) || cells != src.Len() {
		return StoreResult{}, fmt.Errorf("field %s: box store of %d cells from %d extents with %d values", f.name, cells, len(ext), src.Len())
	}
	if grew {
		lo, hi := s.fillsRun(want, sels, ext)
		s.grow(want, lo, hi)
	}
	count, from := 0, 0
	for b := 0; b < len(sels); b += rank {
		sel := sels[b : b+rank]
		free := 0
		for _, sd := range sel {
			if !sd.Fixed {
				free++
			}
		}
		k, n, err := f.storeBox(s, age, sel, ext[:free], src, from)
		count += k
		if err != nil {
			return s.result(grew, count), err
		}
		ext, from = ext[free:], from+n
	}
	return s.result(grew, count), nil
}

// boxRun places a box — selector sel, the extents of its free dimensions at
// the head of ext — in a generation of the given extents that holds it: its
// origin and span per dimension (into org and span), its flat offset and
// cell count, and whether it is one run from there, which it is when it
// spans one cell in every dimension before its first wider one and the whole
// of every one after. It returns what is left of ext.
func boxRun(extents []int, sel []SlabDim, ext, org, span []int) (base, cells int, one bool, rest []int) {
	cells, one = 1, true
	wide := false
	for d, sd := range sel {
		org[d], span[d] = sd.Index, 1
		if !sd.Fixed {
			span[d], ext = ext[0], ext[1:]
		}
		cells *= span[d]
		one = one && (!wide || span[d] == extents[d])
		wide = wide || span[d] != 1
		base = base*extents[d] + org[d]
	}
	return base, cells, one, ext
}

// fillsRun returns the cells [lo, hi) of a generation grown to want that
// the boxes of a StoreBoxes call write, when they are one run of cells none
// of which is written yet — each box one run, each after the one before it —
// and else an empty range.
func (s *ageStore) fillsRun(want []int, sels []SlabDim, ext []int) (lo, hi int) {
	var orgBuf, spanBuf [4]int
	rank := len(want)
	org, span := ints(&orgBuf, rank), ints(&spanBuf, rank)
	for b := 0; b < len(sels); b += rank {
		base, cells, one, rest := boxRun(want, sels[b:b+rank], ext, org, span)
		if !one || b > 0 && base != hi {
			return 0, 0
		}
		if b == 0 {
			lo = base
		}
		hi, ext = base+cells, rest
	}
	if old := len(s.written); s.writes > 0 && lo < old && slices.Contains(s.written[lo:min(hi, old)], true) {
		return 0, 0
	}
	return lo, hi
}

// storeBox writes one box of StoreBoxes — selector sel, the extents of its
// free dimensions ext — from src's cells at from on, into a generation grown
// to hold it: a box that is one run of the generation (a row, whole rows)
// with one storeRun, any other one run at a time (eachRun). It returns the
// cells written and the box's cell count.
func (f *Field) storeBox(s *ageStore, age int, sel []SlabDim, ext []int, src *Array, from int) (written, cells int, err error) {
	var orgBuf, spanBuf [4]int
	org, span := ints(&orgBuf, len(sel)), ints(&spanBuf, len(sel))
	base, cells, one, _ := boxRun(s.extents, sel, ext, org, span)
	if one && cells > 0 {
		written, err = f.storeRun(s, age, base, cells, src, from)
		return written, cells, err
	}
	err = eachRun(s.extents, org, span, func(base, n int) error {
		k, err := f.storeRun(s, age, base, n, src, from)
		written, from = written+k, from+n
		return err
	})
	return written, cells, err
}

// storeRun writes n cells of src, from cell from on, to flat offsets [base,
// base+n): one typed copy when none is written yet (unscanned in an unwritten
// generation), else a write-once error or, merging, the unwritten cells.
func (f *Field) storeRun(s *ageStore, age, base, n int, src *Array, from int) (int, error) {
	w := s.written[base : base+n]
	if s.writes > 0 {
		if at := slices.Index(w, true); at >= 0 {
			if !f.merge {
				return 0, fmt.Errorf("field %s(%d)%v: %w", f.name, age, s.coordsOf(base+at), ErrWriteTwice)
			}
			k := 0
			for i := range w {
				if !w[i] {
					s.data.set(f.kind, base+i, src.data.get(src.kind, from+i))
					w[i] = true
					k++
				}
			}
			s.writes += k
			return k, nil
		}
	}
	s.data.copyCells(f.kind, base, src, from, n)
	for i := range w {
		w[i] = true
	}
	s.writes += n
	return n, nil
}

// coordsOf returns the coordinates of flat offset off.
func (s *ageStore) coordsOf(off int) []int {
	c := make([]int, len(s.extents))
	for d := len(c) - 1; d >= 0; d-- {
		c[d], off = off%s.extents[d], off/s.extents[d]
	}
	return c
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

// StoreSlice writes one box of the generation at (age, sel) from a local
// array: fixed selector dimensions pin a coordinate, and free dimensions span
// the array's extents, in field order, from their origins. It is StoreBoxes
// with one box; a box contiguous in the generation (the store-one-row and
// whole-generation cases) moves with a single typed copy.
func (f *Field) StoreSlice(age int, sel []SlabDim, a *Array) (StoreResult, error) {
	if len(sel) != f.rank {
		return StoreResult{}, fmt.Errorf("field %s: slice store rank mismatch: %d selectors for rank-%d field", f.name, len(sel), f.rank)
	}
	return f.StoreBoxes(age, sel, a.extents, a)
}

// StoreWire writes one box of the generation at (age, sel), as StoreSlice
// does, from cells read off the wire; cells must hold an array. A box that is
// one run of the generation, lands on unwritten cells and needs no conversion
// is copied once, from the wire bytes into the generation, which does not zero
// the cells it grows by for it first. Any other box is stored from the
// decoded cells.
func (f *Field) StoreWire(age int, sel []SlabDim, cells *WireCells) (StoreResult, error) {
	if cells.lazy && rawCopyCompatible(f.kind, cells.kind) && len(sel) == f.rank {
		f.mu.Lock()
		res, done, err := f.storeWireRun(age, sel, cells)
		f.mu.Unlock()
		if done {
			return res, err
		}
	}
	return f.StoreSlice(age, sel, cells.Value().Array())
}

// storeWireRun is StoreWire's one-copy path, under f.mu; done is false when
// the box does not take it.
func (f *Field) storeWireRun(age int, sel []SlabDim, w *WireCells) (res StoreResult, done bool, err error) {
	s, err := f.openForStore(age)
	if s == nil {
		return res, true, err
	}
	// The extent after the store, and the box as one run from base of it: a
	// span of one cell in every dimension before its first wider one and the
	// whole of every one after.
	var wantBuf [4]int
	want := ints(&wantBuf, f.rank)
	cells, base, j := 1, 0, 0
	one, wide, outer := true, false, true
	for d, sd := range sel {
		n := 1
		if !sd.Fixed {
			if j == w.rank {
				return res, false, nil
			}
			n, j = w.ext[j], j+1
		}
		if sd.Index < 0 {
			return res, false, nil
		}
		want[d] = max(s.extents[d], sd.Index+n)
		outer = outer && (d == 0 || want[d] == s.extents[d])
		one = one && (!wide || n == want[d])
		wide = wide || n != 1
		cells *= n
		base = base*want[d] + sd.Index
	}
	// Growth that keeps every written cell's offset (only the outermost
	// dimension, or from empty) leaves the written flags comparable.
	old := s.data.len()
	if j != w.rank || cells == 0 || !one || !(outer || old == 0) ||
		s.writes > 0 && base < old && slices.Contains(s.written[base:min(base+cells, old)], true) {
		return res, false, nil
	}
	grew := !slices.Equal(want, s.extents)
	if grew {
		n := 1
		for _, e := range want {
			n *= e
		}
		s.data.resizeOver(n, 2*s.data.capacity(), base, base+cells)
		s.written = growBools(s.written, n)
		copy(s.extents, want)
	}
	s.data.decodeCells(base, w.raw)
	written := s.written[base : base+cells]
	for i := range written {
		written[i] = true
	}
	s.writes += cells
	return s.result(grew, cells), true, nil
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
	t, ok := f.PinView(age)
	if ok {
		t.Slice(allFree(f.rank), dst) // the all-free selector is one run
	}
	return t, ok
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

// SlabDim selects one dimension of a slab store, fetch or view: a fixed
// coordinate (Index), or a free dimension. A free dimension of a store starts
// at its origin, Index, and spans the array's extent; the zero value is the
// whole dimension from 0, and fetches and views read no origin.
type SlabDim struct {
	Fixed bool
	Index int
}

// FetchSlice copies a sub-slab of the generation at the given age into dst,
// reusing dst's backing storage when capacity allows. Fixed dimensions are
// dropped; free dimensions become dst's dimensions in field order.
// Out-of-range fixed coordinates yield an empty array. The data moves with
// one typed copy per run of the selection that is contiguous in the
// generation (eachRun): one in all, when the fixed dimensions form a prefix.
func (f *Field) FetchSlice(age int, sel []SlabDim, dst *Array) {
	if len(sel) != f.rank {
		panic(fmt.Sprintf("field %s: slab rank mismatch: %d selectors for rank-%d field", f.name, len(sel), f.rank))
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	var freeBuf, orgBuf, spanBuf [4]int
	free := freeBuf[:0]
	org, span := ints(&orgBuf, f.rank), ints(&spanBuf, f.rank)
	s := f.ages[age]
	for d, sd := range sel {
		if s != nil && sd.Fixed && (sd.Index < 0 || sd.Index >= s.extents[d]) {
			s = nil // out of range: deliver an empty slab
		}
	}
	for d, sd := range sel {
		org[d], span[d] = 0, 0
		switch {
		case s == nil:
		case sd.Fixed:
			org[d], span[d] = sd.Index, 1
		default:
			span[d] = s.extents[d]
		}
		if !sd.Fixed {
			free = append(free, span[d])
		}
	}
	if len(free) == 0 {
		free = append(free, 0)
	}
	dst.resetShape(f.kind, free)
	if s == nil || dst.Len() == 0 {
		return
	}
	flat := 0
	_ = eachRun(s.extents, org, span, func(base, n int) error {
		dst.data.copyRange(flat, &s.data, base, n)
		flat += n
		return nil
	})
}

// eachRun calls visit with the flat offset and the length of each run of the
// box org + [0, span) that is contiguous in a generation of extents ext — the
// trailing dimensions the box spans whole, times the one before them,
// repeated over the dimensions before that — in row-major order, and stops at
// visit's first error. An empty box has no runs.
func eachRun(ext, org, span []int, visit func(base, n int) error) error {
	last, run := len(ext)-1, 1
	for ; last >= 0 && org[last] == 0 && span[last] == ext[last]; last-- {
		run *= span[last]
	}
	if last >= 0 {
		run *= span[last]
	}
	if slices.Contains(span, 0) {
		return nil
	}
	var atBuf [4]int
	at := ints(&atBuf, len(ext))
	copy(at, org)
	for {
		base := 0
		for d, i := range at {
			base = base*ext[d] + i
		}
		if err := visit(base, run); err != nil {
			return err
		}
		d := last - 1
		for ; d >= 0; d-- {
			if at[d]++; at[d] < org[d]+span[d] {
				break
			}
			at[d] = org[d]
		}
		if d < 0 {
			return nil
		}
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

// Int64At is At for an element read as an int64 (Value.Int64), unboxed: the
// runtime gathers a slice's element fetches into columns this way.
func (t ViewToken) Int64At(idx []int) (int64, bool) {
	s := t.s
	off := s.flatten(idx)
	if off < 0 || !s.written[off] {
		return 0, false
	}
	switch d := &s.data; d.class {
	case classI64:
		return d.i64[off], true
	case classI32:
		return int64(d.i32[off]), true
	case classU8:
		return int64(d.u8[off]), true
	}
	return s.data.get(t.kind, off).Int64(), true
}

// Float64At is At for an element read as a float64 (Value.Float64), unboxed.
func (t ViewToken) Float64At(idx []int) (float64, bool) {
	s := t.s
	off := s.flatten(idx)
	if off < 0 || !s.written[off] {
		return 0, false
	}
	if s.data.class == classF64 {
		return s.data.f64[off], true
	}
	return s.data.get(t.kind, off).Float64(), true
}
