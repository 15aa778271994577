package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// instance states.
const (
	instWaiting uint8 = iota
	instQueued
	instRunning
	instDone
)

// instState tracks one kernel instance: its index-variable values, which
// fetches are satisfied (a bitmask) and its lifecycle state. An instance is
// dispatched exactly once, when its mask is full.
type instState struct {
	coords []int
	mask   uint32
	st     uint8
	// readyNs/createdNs are node-clock-relative lifecycle stamps (see
	// Node.nowNs), recorded only when tracing or stage metrics are enabled
	// (Node.stamp); the ready queue's mutex orders the analyzer's writes
	// before the worker's reads. createdNs is the instance's registration
	// time, readyNs the time its last dependency was satisfied — their
	// difference is the analyzer-ready-wait stage.
	readyNs   int64
	createdNs int64
}

// coordKey packs index-variable values into a map key. Extents are limited to
// 16 bits per dimension and four dimensions, which comfortably covers the
// paper's workloads (the largest domain is 1584 macroblocks, rank 1).
func coordKey(coords []int) int64 {
	var k int64
	for _, c := range coords {
		k = k<<16 | int64(c&0xffff)
	}
	return k
}

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

// compileSlab precompiles the selector of a slab or whole-field statement on
// a rank-rank field. A whole-field statement has no index: its selector is
// rank free terms, so "whole" is decided here and nowhere after.
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
	// viewable marks fetches eligible for the zero-copy view path: slab
	// fetches whose fixed dimensions form a prefix (so the selected rows are
	// one contiguous slab range), whole-field fetches among them. A fetch
	// that is not viewable, or whose generation cannot be pinned, copies.
	viewable bool
}

// storePlan is the dispatch-time plan of one store statement.
type storePlan struct {
	ss    *core.StoreStmt
	fs    *fieldState
	local int        // position of ss.Local in the kernel's Locals
	terms []idxTerm  // element stores
	slab  []slabTerm // slab and whole-field stores (nil otherwise)
}

// kernelState is the per-kernel runtime state: the static plan derived from
// the declaration plus per-age trackers and instrumentation counters.
type kernelState struct {
	decl  *core.KernelDecl
	binds []varBind // one per index variable, in declaration order

	// idx is the kernel's position in Node.order; the analyzer's
	// (kernel, age) -> shard hash is computed from it.
	idx int

	fullMask uint32 // bits of all fetches (the "fully satisfied" mask)

	// needsInstMap is true when the kernel has at least one element fetch:
	// only then does satisfaction ever look an instance up by coordinates.
	// Kernels without element fetches (whole/slab only) skip the per-instance
	// map insert on the analyzer's creation path.
	needsInstMap bool

	// Dispatch plans: precompiled fetch/store coordinates (same order as
	// decl.Fetches/decl.Stores) and a pool of reusable execution frames, so
	// the dispatch hot path is allocation-free.
	fetchPlans []fetchPlan
	storePlans []storePlan
	frames     *sync.Pool // of *execFrame

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
	// age and paceAges (shard 0 only) the waits under way (see planPacing).
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

	// costNs is what the slice-sizing rule divides by: an estimate of the
	// kernel's current per-instance cost (body plus dispatch) from its timed
	// slices, zero until the first has been timed; see observeCost. Workers
	// update it with plain load/store; a lost update only delays it.
	costNs atomic.Int64

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
// domain, instance satisfaction, and completion.
type ageTracker struct {
	ks  *kernelState
	age int

	extents     []int // current range per index variable
	bindsDone   int   // range-defining (field, age) pairs that are complete
	domainFinal bool

	inst  map[int64]*instState
	total int
	done  int

	// ready lists the fully satisfied instances in the order they became
	// ready. It is append-only for the tracker's lifetime: slices alias runs
	// of it (see batch), so entries are never moved. ready[:head] has been
	// carved into slices; size is the slice size of the last carve (the
	// slicer re-carves once that many instances are waiting) and dirty marks
	// membership in the slicer's dirty list.
	ready []*instState
	head  int
	size  int
	dirty bool

	// all lists every instance when the analyzer skips the inst map
	// (kernels without element fetches never look instances up by coordinate);
	// it exists only so completed trackers can recycle their instances.
	all []*instState

	completed bool
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

	// Store-event routing tables for the analyzer's shards, precompiled at
	// NewNode. A store to generation g only concerns shards owning a tracker
	// whose element-fetch satisfaction or index-range growth can depend on
	// it: elemRoutes lists the age-variable element-fetch consumers (tracker
	// age g-off), growRoutes the age-variable range bindings (relevant only
	// when the store grew the field). Absolute-age edges touch every tracker
	// age, so they force a broadcast. An event whose route set is empty is
	// dropped at the worker — whole/slab fetches are satisfied by the
	// completeness broadcast, not by store events.
	elemRoutes    []shardRoute
	growRoutes    []shardRoute
	elemBroadcast bool
	growBroadcast bool

	// agedConsumers counts consumer edges with age-variable fetches; used
	// by garbage collection (an age is collectable when that many consumer
	// kernel-ages have completed). Fields with absolute-age consumers are
	// never collected (every future age may read them).
	agedConsumers int
	absConsumers  int
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

// shardRoute is one precompiled store-event destination: the consuming
// kernel's tracker at age (store generation - off).
type shardRoute struct {
	ks  *kernelState
	off int
}

// fieldAgeState tracks completeness of one field generation.
type fieldAgeState struct {
	expected      int // producer kernel-ages that must complete
	producersDone int
	complete      bool
	consumersDone int
	collected     bool
}

// uncarved is the number of ready instances not yet cut into a slice.
func (t *ageTracker) uncarved() int { return len(t.ready) - t.head }

func (t *ageTracker) String() string {
	return fmt.Sprintf("%s(age=%d, %d/%d done, domainFinal=%v)", t.ks.decl.Name, t.age, t.done, t.total, t.domainFinal)
}

// boxCells is the cell count of box(ext): the product of the extents, zero
// for a nil box (nothing created yet).
func boxCells(ext []int) int {
	if len(ext) == 0 {
		return 0
	}
	p := 1
	for _, e := range ext {
		p *= e
	}
	return p
}

// newCells visits every coordinate in box(to) that is not in box(from). The
// boxes share an origin; from must be component-wise <= to. Rank 0 (a single
// instance with no index variables) is treated as one cell that exists once
// the tracker is created, handled by the caller.
func newCells(from, to []int, visit func([]int)) {
	rank := len(to)
	coords := make([]int, rank)
	var rec func(d, firstGrown int)
	rec = func(d, firstGrown int) {
		if d == rank {
			if firstGrown >= 0 { // cells inside the old box are not new
				visit(coords)
			}
			return
		}
		// Decomposition: a cell is new iff there is a first dimension d
		// where its coordinate is >= from[d]; before d coordinates are
		// < from, after d they range over the full new extent.
		if firstGrown >= 0 {
			for c := 0; c < to[d]; c++ {
				coords[d] = c
				rec(d+1, firstGrown)
			}
			return
		}
		// Not yet past a grown dimension: either stay below from[d] and
		// recurse, or enter the grown band [from[d], to[d]).
		for c := 0; c < from[d]; c++ {
			coords[d] = c
			rec(d+1, -1)
		}
		for c := from[d]; c < to[d]; c++ {
			coords[d] = c
			rec(d+1, d)
		}
	}
	if rank == 0 {
		return
	}
	rec(0, -1)
}
