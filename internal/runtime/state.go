package runtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// varBind records where an index variable gets its range: dimension dim of
// field fs at the age given by age (evaluated per tracker age).
type varBind struct {
	fs  *fieldState
	dim int
	age core.AgeExpr
}

// counterWithBaseline wraps a registry counter together with its value at
// node construction time. A shared registry may carry counts from earlier
// nodes; Own projects only this node's contribution, which is what reports
// and the slice-sizing rule need.
type counterWithBaseline struct {
	c    *obs.Counter
	base int64
}

func newBaselined(c *obs.Counter) counterWithBaseline {
	return counterWithBaseline{c: c, base: c.Load()}
}

// Add increments the underlying counter.
func (b counterWithBaseline) Add(d int64) { b.c.Add(d) }

// Own returns the counter's growth since node construction.
func (b counterWithBaseline) Own() int64 { return b.c.Load() - b.base }

// histWithBase wraps a registry histogram together with its sum at
// node construction time, the histogram analogue of counterWithBaseline: a
// shared registry may carry observations from earlier nodes, and the stage
// attribution report must project only this node's contribution. The zero
// value (nil histogram) is a disabled handle whose methods are no-ops.
type histWithBase struct {
	h       *obs.Histogram
	baseSum int64
}

func newHistBase(h *obs.Histogram) histWithBase {
	return histWithBase{h: h, baseSum: h.SumNs()}
}

// Observe records one duration on the underlying histogram.
func (b histWithBase) Observe(d time.Duration) { b.h.Observe(d) }

// ObserveN records the same duration n times.
func (b histWithBase) ObserveN(d time.Duration, n int) { b.h.ObserveN(d, int64(n)) }

// enabled reports whether the handle points at a live histogram.
func (b histWithBase) enabled() bool { return b.h != nil }

// OwnNs returns the summed nanoseconds observed since node construction.
func (b histWithBase) OwnNs() int64 { return b.h.SumNs() - b.baseSum }

// idxTerm is one dimension of a precompiled fetch/store index expression:
// coords[v]+off, or the literal off when v < 0. Compiling the terms at
// NewNode time removes the per-instance map[string]int the dispatch path
// used to build for IndexSpec evaluation.
type idxTerm struct {
	v   int // index-variable position in IndexVars, or -1 for a literal
	off int
}

func (t idxTerm) eval(coords []int) int {
	if t.v < 0 {
		return t.off
	}
	return coords[t.v] + t.off
}

// evalTerms evaluates a term list into dst (len(dst) == len(terms)) and
// returns it; dst is caller-owned scratch, so the hot path never allocates.
func evalTerms(dst []int, terms []idxTerm, coords []int) []int {
	for d, t := range terms {
		dst[d] = t.eval(coords)
	}
	return dst
}

// compileSpec precompiles one index spec against the kernel's index-variable
// list. All-kind (slab) specs are rejected by the caller.
func compileSpec(s core.IndexSpec, vars []string) idxTerm {
	if s.Kind == core.IndexVarKind {
		return idxTerm{v: varIndex(vars, s.Var), off: s.Off}
	}
	return idxTerm{v: -1, off: s.Lit}
}

// compileIndex precompiles index specs against the kernel's index-variable
// list. Slab (All) coordinates are rejected by the caller.
func compileIndex(specs []core.IndexSpec, vars []string) []idxTerm {
	terms := make([]idxTerm, len(specs))
	for d, s := range specs {
		terms[d] = compileSpec(s, vars)
	}
	return terms
}

// slabTerm is one dimension of a precompiled slab selector: fixed selects a
// single coordinate (term), free spans the dimension.
type slabTerm struct {
	fixed bool
	term  idxTerm
}

// compileSlab precompiles the selector of any statement on a rank-rank field.
// A whole-field statement has no index: its selector is rank free terms, so
// "whole" is decided here and nowhere after.
func compileSlab(specs []core.IndexSpec, rank int, vars []string) []slabTerm {
	slab := make([]slabTerm, rank)
	for d, s := range specs {
		if s.Kind != core.IndexAllKind {
			slab[d] = slabTerm{fixed: true, term: compileSpec(s, vars)}
		}
	}
	return slab
}

// noneFixed reports whether a selector fixes no dimension, i.e. addresses the
// whole generation.
func noneFixed(slab []slabTerm) bool {
	for _, st := range slab {
		if st.fixed {
			return false
		}
	}
	return true
}

// evalSel evaluates a slab selector into dst (len(dst) == len(slab)) and
// returns it; like evalTerms, dst is caller-owned scratch.
func evalSel(dst []field.SlabDim, slab []slabTerm, coords []int) []field.SlabDim {
	for d, st := range slab {
		if st.fixed {
			dst[d] = field.SlabDim{Fixed: true, Index: st.term.eval(coords)}
		} else {
			dst[d] = field.SlabDim{}
		}
	}
	return dst
}

// fetchPlan is the dispatch-time plan of one fetch statement: the resolved
// field state plus precompiled coordinates, so exec neither looks up fields
// by name nor evaluates IndexSpecs through a map.
type fetchPlan struct {
	fe    *core.FetchStmt
	fs    *fieldState
	local int        // position of fe.Local in the kernel's Locals
	terms []idxTerm  // element fetches
	slab  []slabTerm // slab and whole-field fetches (nil otherwise)
	// viewable marks the fetches read through a generation pin: element
	// fetches, which read their element out of it without locking, and slab
	// fetches whose fixed dimensions form a prefix (so the selected rows are
	// one contiguous slab range), whole-field fetches among them, which alias
	// a zero-copy view. A fetch that is not viewable, or whose generation
	// cannot be pinned (it is not complete yet), reads under the field lock.
	viewable bool
}

// storePlan is the dispatch-time plan of one store statement. Every store
// is a selector: an element store fixes every dimension, a slab store some,
// a whole-field store none.
type storePlan struct {
	ss    *core.StoreStmt
	fs    *fieldState
	local int        // position of ss.Local in the kernel's Locals
	slab  []slabTerm // one term per field dimension
	free  int        // a slab store's free dimensions; 0 for an element store
}

// kernelState is the per-kernel runtime state: the static plan derived from
// the declaration plus per-age trackers and instrumentation counters.
type kernelState struct {
	decl  *core.KernelDecl
	binds []varBind // one per index variable, in declaration order

	// idx is the kernel's position in Node.order (and in per-kernel tables
	// indexed by kernel).
	idx int

	// ages holds the analyzer's trackers of this kernel, by age. Under
	// Options.GC a completed tracker is retired once nothing can name it
	// (analyzer.retire); agedFetches, the kernel's age-variable fetches, is
	// how many collected generations that takes for a consumer.
	ages        map[int]*ageTracker
	agedFetches int

	fullMask uint32 // bits of all fetches (the "fully satisfied" mask)

	// elemBits holds the bits of the kernel's element fetches: a tracker
	// satisfies them per creation burst or per cell (see ageTracker), where
	// whole and slab fetches are satisfied for every cell at once.
	elemBits uint32

	// Dispatch plans: precompiled fetch/store coordinates (same order as
	// decl.Fetches/decl.Stores) and the constructor of the execution frame
	// each worker reuses for the kernel, so the dispatch hot path is
	// allocation-free.
	fetchPlans []fetchPlan
	storePlans []storePlan
	newFrame   func() *execFrame

	// gran is the kernel's Options.Granularity entry: a fixed slice size that
	// overrides the sizing rule (Node.sliceSize). Zero means unset.
	gran int

	// remote marks a kernel executed on another node: no local instances,
	// completions arrive via InjectRemoteDone.
	remote bool

	// Index shares (Options.Shares): shares is the number of producers the
	// kernel counts as toward completeness — its shares when split, else
	// one — and ownN how many of them run here, which a local completion
	// counts for. own marks, per granule of the share cycle, whether a split
	// kernel's instances there run here (see owns); nil when it runs whole.
	shares, ownN int
	own          []bool

	// Source kernels: sourceStopped is set once the source stopped; pace
	// lists the remote consumers a paced source waits for before each next
	// age and paceAges the waits under way (see planPacing).
	sourceStopped bool
	pace          []paceEdge
	paceAges      map[int]*paceAge

	// Instrumentation (Table II/III): instance count, per-instance
	// dispatch overhead and kernel-code time, in nanoseconds. The handles
	// live in the node's metrics registry (per-kernel labeled counters), so
	// the Report is a projection of the registry rather than a second set
	// of books; baselines make shared registries project per-node.
	instances  counterWithBaseline
	slices     counterWithBaseline
	lockstep   counterWithBaseline // instances run by the kernel's slice body
	declined   counterWithBaseline // instances of slices it declined, run twice
	dispatchNs counterWithBaseline
	kernelNs   counterWithBaseline
	storeOps   counterWithBaseline

	// timedInsts counts the instances whose dispatch/kernel times were
	// actually measured. Without a tracer or metrics registry the dispatch
	// path times one slice in timeSampleEvery (time.Now is a measurable
	// fraction of a small instance's dispatch cost), so dispatchNs/kernelNs
	// hold sampled sums, and the report extrapolates totals by
	// instances/timed. Per-node (not baselined): a shared registry never
	// sees it.
	timedInsts atomic.Int64

	// Stage timers (ISSUE 6): the fixed per-instance latency decomposition
	// behind the attribution report. Enabled (non-nil) only when the node
	// has a caller-supplied registry; the zero value is a no-op handle, so
	// the tracing-off dispatch path pays nothing.
	stageReady histWithBase // instance created -> last dependency satisfied
	stageQueue histWithBase // ready -> a worker picked it up
	stageFetch histWithBase // context construction + fetches
	stageExec  histWithBase // kernel body
	stageStore histWithBase // store application + event emission
}

// ownInstances returns the instances dispatched by this node (registry value
// minus the construction-time baseline); likewise the other own* accessors.
func (ks *kernelState) ownInstances() int64  { return ks.instances.Own() }
func (ks *kernelState) ownDispatchNs() int64 { return ks.dispatchNs.Own() }
func (ks *kernelState) ownKernelNs() int64   { return ks.kernelNs.Own() }
func (ks *kernelState) ownStoreOps() int64   { return ks.storeOps.Own() }
func (ks *kernelState) ownSlices() int64     { return ks.slices.Own() }
func (ks *kernelState) ownLockstep() int64   { return ks.lockstep.Own() }
func (ks *kernelState) ownDeclined() int64   { return ks.declined.Own() }

// ageTracker tracks all instances of one kernel at one age: the current index
// domain, which instances are satisfied, and completion. It keeps nothing per
// instance: the instances are the cells of the index box, held as runs of
// cells — in waiting until satisfied, then in runs until carved into slices.
//
// A whole or slab fetch waits for its generation to complete, the same one
// for every cell, so one mask holds those fetches for the tracker. An element
// fetch is satisfied for a whole creation burst at once when the burst's
// image under the fetch's index map is written throughout (analyzer.covered),
// and otherwise per cell, in cells, as the cell's element is found written
// or its store event arrives.
type ageTracker struct {
	ks  *kernelState
	age int

	extents     []int // current range per index variable
	bindsDone   int   // range-defining (field, age) pairs that are complete
	domainFinal bool

	total int
	done  int

	// mask holds the whole/slab fetches satisfied for every cell and, from
	// the start, the element fetches, which are satisfied per burst or per
	// cell: once it is full, a cell is ready when its element fetches are.
	mask uint32
	// waiting lists the created cells that are not ready, nwait of them;
	// until there are cells, a waiting run's readyNs is its creation stamp.
	// A cell readied on its own (satisfyCell) stays listed until the list
	// empties; its full cells entry tells it apart.
	waiting []cellRun
	nwait   int
	// cells holds, per cell of box(extents) in row-major order, the element
	// fetches satisfied for it; nil while every created cell has them all.
	// born holds their creation stamps when the node stamps.
	cells []uint32
	born  []int64
	// runs[rhead:] holds the ready cells not yet carved, queued of them.
	runs   []cellRun
	rhead  int
	queued int

	// size is the slice size of the last carve (the slicer re-carves once
	// that many instances are waiting); dirty marks membership in the
	// slicer's dirty list.
	size  int
	dirty bool

	completed bool
	// collected counts the tracker's age-variable fetch generations that
	// garbage collection has dropped (see analyzer.retire).
	collected int
}

// maxRank bounds a kernel's index variables: a run's box holds them inline.
const maxRank = 4

// cellRun is a run of a tracker's instances: cells [lo, hi) of the box
// org + [0, ext) in row-major order, over the kernel's rank index variables.
// A slice carries one by value (batch.run), so carving allocates nothing.
// readyNs is the ready stamp of the run's instances (Node.nowNs; zero unless
// the node stamps).
type cellRun struct {
	org, ext [maxRank]int
	rank     int
	lo, hi   int
	readyNs  int64
}

func (r *cellRun) len() int { return r.hi - r.lo }

// coords decodes cell i of the run's box into dst (len rank) and returns it.
func (r *cellRun) coords(i int, dst []int) []int {
	for d := r.rank - 1; d >= 0; d-- {
		dst[d] = r.org[d] + i%r.ext[d]
		i /= r.ext[d]
	}
	return dst[:r.rank]
}

// extend appends r to list's tail run when r's cells continue its row-major
// order — r holds the next cells of the same box, or r's box abuts the tail's
// along the outermost dimension, agrees with it on every other one, and both
// runs reach their boxes' ends — and as a new entry otherwise. Only entries
// from index from on may be extended. A joined run keeps the later ready
// stamp, so cells readied one at a time still form one run when the node
// stamps; the earlier ones then show a shorter queue wait.
func extend(list []cellRun, from int, r cellRun) []cellRun {
	if n := len(list); n > from && list[n-1].join(&r) {
		l := &list[n-1]
		l.readyNs = max(l.readyNs, r.readyNs)
		return list
	}
	return append(list, r)
}

// join appends r's cells to l's when they continue l's row-major order (see
// extend) and reports whether it did.
func (l *cellRun) join(r *cellRun) bool {
	if l.rank != r.rank {
		return false
	}
	if l.org == r.org && l.ext == r.ext {
		if l.hi != r.lo {
			return false
		}
		l.hi = r.hi
		return true
	}
	if r.rank == 0 || r.lo != 0 || l.hi != boxCells(l.ext[:l.rank]) || l.org[0]+l.ext[0] != r.org[0] {
		return false
	}
	for d := 1; d < r.rank; d++ {
		if l.org[d] != r.org[d] || l.ext[d] != r.ext[d] {
			return false
		}
	}
	l.ext[0] += r.ext[0]
	l.hi += r.hi
	return true
}

func (r cellRun) String() string {
	var b strings.Builder
	for d := 0; d < r.rank; d++ {
		fmt.Fprintf(&b, "[%d,%d)", r.org[d], r.org[d]+r.ext[d])
	}
	fmt.Fprintf(&b, "#%d-%d", r.lo, r.hi)
	return b.String()
}

// fieldState is the per-field runtime state: the backing store plus the
// static producer/consumer edges and per-age completeness accounting.
type fieldState struct {
	decl *core.FieldDecl
	f    *field.Field

	producers []prodEdge
	consumers []consEdge
	// rangeOf lists the kernels (and which of their index variables) whose
	// domain is defined by this field's extents.
	rangeOf []rangeEdge

	ages map[int]*fieldAgeState

	// elemFetched marks a field some local kernel element-fetches, rangeBound
	// one some local kernel binds an index range to (see analyzed).
	elemFetched, rangeBound bool

	// agedConsumers counts consumer edges with age-variable fetches; used
	// by garbage collection (an age is collectable when that many consumer
	// kernel-ages have completed). Fields with absolute-age consumers are
	// never collected (every future age may read them).
	agedConsumers int
	absConsumers  int
}

// analyzed reports whether a store to the field concerns the analyzer: an
// element fetch may wait for it, or it grew the generation and an index
// domain follows the extent. Workers and injectors drop the other store
// events before they cost a channel send; slab fetches are satisfied by
// completeness, not by stores.
func (fs *fieldState) analyzed(grew bool) bool {
	return fs.elemFetched || grew && fs.rangeBound
}

type prodEdge struct {
	ks    *kernelState
	store *core.StoreStmt
}

type consEdge struct {
	ks       *kernelState
	fetch    *core.FetchStmt
	fetchBit uint32
	// terms are the precompiled element-fetch coordinates (nil for whole or
	// slab fetches, which are satisfied by completeness rather than stores).
	terms []idxTerm
}

type rangeEdge struct {
	ks     *kernelState
	varIdx int
	dim    int
	age    core.AgeExpr
}

// fieldAgeState tracks completeness of one field generation. complete flips
// when the analyzer takes the completion into effect (onFieldComplete); the
// record is deleted when garbage collection drops the generation, and
// collected stops a caller still holding it from dropping it twice.
type fieldAgeState struct {
	expected      int // producer kernel-ages that must complete
	producersDone int
	complete      bool
	consumersDone int
	collected     bool
}

// position returns the row-major position of cell c in box(ext); a tracker's
// cells are indexed by their position in box(extents).
func position(c, ext []int) int {
	f := 0
	for d, x := range c {
		f = f*ext[d] + x
	}
	return f
}

// cellRun returns the run of the one cell at position f of box(extents).
// Cells readied one at a time in row-major order then extend one run.
func (t *ageTracker) cellRun(f int) cellRun {
	r := cellRun{rank: len(t.extents), lo: f, hi: f + 1}
	copy(r.ext[:], t.extents)
	return r
}

// regrid re-lays out per-cell entries of box(from) as entries of box(to),
// with fill for the new cells, in place: a cell's row-major position only
// moves up as the box grows, and not at all when just the outermost dimension
// grew, so entries move from the last one down.
func regrid[T any](grid []T, from, to []int, fill T) []T {
	old, moved := len(grid), false
	for len(grid) < boxCells(to) {
		grid = append(grid, fill)
	}
	for d := 1; d < len(to); d++ {
		moved = moved || from[d] != to[d]
	}
	var c [maxRank]int
	for i := old - 1; moved && i >= 0; i-- {
		for d, k := len(from)-1, i; d >= 0; d-- {
			c[d], k = k%from[d], k/from[d]
		}
		if f := position(c[:len(to)], to); f != i {
			grid[f], grid[i] = grid[i], fill
		}
	}
	return grid
}

// boxCells is the cell count of box(ext): the product of the extents.
func boxCells(ext []int) int {
	p := 1
	for _, e := range ext {
		p *= e
	}
	return p
}

// newBoxes tiles the cells of box(to) that are not in box(from) with boxes,
// one per dimension d that grew: coordinates below from before d, in
// [from[d], to[d]) at d, anywhere below to after it; empty boxes are
// skipped. The boxes share an origin; from must be component-wise <= to.
// Rank 0 (a single instance with no index variables) has no new cells: the
// caller creates it with the tracker.
func newBoxes(from, to []int, visit func(org, ext [maxRank]int)) {
	rank := len(to)
	for d := 0; d < rank; d++ {
		if from[d] >= to[d] {
			continue
		}
		var org, ext [maxRank]int
		empty := false
		for k := 0; k < rank; k++ {
			switch {
			case k < d:
				ext[k] = from[k]
			case k == d:
				org[k], ext[k] = from[k], to[k]-from[k]
			default:
				ext[k] = to[k]
			}
			empty = empty || ext[k] == 0
		}
		if !empty {
			visit(org, ext)
		}
	}
}
