package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// event is the message kernel instances send to the dependency analyzer. The
// paper's prototype is "a push-based system using event subscriptions on
// field operations": store statements emit events, and the analyzer derives
// every new valid combination of age and index variables that became
// runnable. Workers buffer events locally and flush them in batches (one
// channel send per batch); see workerState.
type event struct {
	isDone bool

	// store event fields: the element coordinates (not for whole stores) and,
	// when the store grew the generation, its extents afterwards.
	fs    *fieldState
	age   int
	elem  coords
	whole bool
	grew  bool
	ext   coords

	// done event fields: the finished slice (the analyzer recycles it), the
	// stores its instances fired and whether a body called Stop — the last
	// two only matter for source kernels, whose slices hold one instance.
	b       *batch
	stores  int
	stopped bool

	// remote-done event: a remote kernel finished the given age.
	remoteDone *kernelState

	// stop ends a NoAutoQuiesce node.
	stop bool
}

// coords is a coordinate or extent vector carried by an event. Up to four
// entries that fit an int32 are held inline (coordKey already limits
// coordinates to four 16-bit dimensions), so building a store event never
// allocates; big is the escape hatch for longer or wider vectors.
type coords struct {
	buf [4]int32
	n   uint8
	big []int
}

func (c *coords) set(v []int) {
	if len(v) <= len(c.buf) {
		fits := true
		for i, x := range v {
			if x != int(int32(x)) {
				fits = false
				break
			}
			c.buf[i] = int32(x)
		}
		if fits {
			c.n = uint8(len(v))
			return
		}
	}
	c.big = append([]int(nil), v...)
}

// get returns the vector, decoded into dst scratch when it is inline.
func (c *coords) get(dst *[4]int) []int {
	if c.big != nil {
		return c.big
	}
	for i := 0; i < int(c.n); i++ {
		dst[i] = int(c.buf[i])
	}
	return dst[:c.n]
}

// at returns entry d.
func (c *coords) at(d int) int {
	if c.big != nil {
		return c.big[d]
	}
	return int(c.buf[d])
}

// fieldGen identifies one generation of one field.
type fieldGen struct {
	fs *fieldState
	g  int
}

// analyzer is the dependency analyzer half of the low-level scheduler: the
// paper's single dedicated analyzer thread, to which §VIII-B attributes the
// K-means scaling limit. It runs on the goroutine that called Node.Run, owns
// every tracker and field-generation record, and is fed by one bounded event
// channel that workers and injectors send batches to.
//
// Quiescence is a single atomic: pending counts every unit of in-flight work
// (buffered worker batches, injected batches, and ready-but-not-done
// instances). Every increment for spawned work happens before the spawning
// unit's own decrement, so pending == 0 at any instant proves quiescence.
type analyzer struct {
	n  *Node
	ch chan []event

	pending atomic.Int64

	// stopping ends the loop: a stop event, a failed run or quiescence.
	stopping bool

	// completions queues the field generations whose last producer finished.
	// Their consequences — fetch satisfaction, domain finalization, garbage
	// collection — run once the event that completed them has been handled
	// (settle), never inside the tracker creation or completion that got
	// there: a generation's complete flag flips only then, so a tracker's
	// creation scan and onFieldComplete count it exactly once between them.
	completions []fieldGen

	// slicer carves ready instances into slices. readied counts the
	// instances marked ready since the last commitReady — the analyzer's
	// not-yet-published share of pending.
	slicer  slicer
	readied int64

	// Instrumentation: event and busy-time accounting plus high-water marks.
	events     counterWithBaseline
	backlogMax *obs.Gauge // nil-safe
	hAnalyze   histWithBase
	maxQueue   int
	maxBacklog int
	busyNs     int64

	// free holds unused instStates for per-instance trackers: newInst takes
	// them, refill adds fresh blocks of them, and completed trackers return
	// theirs (maybeTrackerDone) — except while tracing, since recorded spans
	// alias an instance's coordinates.
	free []*instState
	// spare holds the run lists of completed range trackers for new ones, so
	// that steady state allocates none (a split kernel has a run per owned
	// share granule, dozens per age).
	spare [][]cellRun

	// Scratch buffers, so satisfaction checks never allocate.
	idxBuf    []int
	elemBuf   [4]int
	satCoords []int
	satConstr []bool
}

// scratch returns an index-evaluation buffer of length k.
func (an *analyzer) scratch(k int) []int {
	if cap(an.idxBuf) < k {
		an.idxBuf = make([]int, k)
	}
	return an.idxBuf[:k]
}

func newAnalyzer(n *Node) *analyzer {
	an := &analyzer{
		n:      n,
		ch:     make(chan []event, eventChanBatches),
		events: newBaselined(n.reg.Counter(obs.MAnalyzerEvents)),
	}
	if n.opts.Metrics != nil {
		an.backlogMax = n.reg.Gauge(obs.MAnalyzerBacklogMax)
		an.hAnalyze = newHistBase(n.reg.Histogram(obs.MStageAnalyzeNs))
	}
	an.slicer = slicer{n: n, push: an.pushSlices}
	an.pending.Store(1) // the bootstrap, released at its end
	return an
}

// run executes the analyzer to quiescence (or Stop/failure): it creates the
// bootstrap trackers, then handles event batches, flushing partial dispatch
// batches at lulls, until the loop ends; shutdown follows.
func (an *analyzer) run() {
	an.bootstrap()
	for !an.stopping {
		an.drainCh()
		if an.stopping {
			break
		}
		if an.n.failed() {
			break
		}
		an.slicer.drain()
		if !an.n.opts.NoAutoQuiesce && an.pending.Load() == 0 {
			break
		}
		an.handleBatch(<-an.ch)
	}
	an.shutdown()
}

// bootstrap creates the trackers that exist before any event: run-once
// kernels and age 0 of source kernels. It is one unit of pending work from the
// node's construction on, so Idle cannot read an unstarted node as quiescent.
func (an *analyzer) bootstrap() {
	for _, ks := range an.n.order {
		if ks.remote {
			continue
		}
		switch {
		case ks.decl.RunOnce():
			an.ensureTracker(ks, 0)
		case ks.decl.Source():
			an.sourceTracker(ks, 0)
		}
	}
	an.settle()
	an.pending.Add(-1)
}

// shutdown closes the scheduler (workers exit once they drain it), arranges
// for the event channel to close after the workers stop, and discards the
// remaining inflow so no worker blocks on a full channel during teardown.
func (an *analyzer) shutdown() {
	an.stopping = true
	an.n.sched.Close()
	an.n.closeEventsWhenWorkersExit()
	for evs := range an.ch {
		putEventBuf(evs)
	}
}

// drainCh handles every event batch currently buffered without blocking.
func (an *analyzer) drainCh() {
	for !an.stopping {
		select {
		case evs := <-an.ch:
			an.handleBatch(evs)
		default:
			return
		}
	}
}

// handleBatch processes one flushed batch of events and recycles the slice.
func (an *analyzer) handleBatch(evs []event) {
	var t0 time.Time
	if an.n.stamp {
		t0 = time.Now()
	}
	if backlog := len(an.ch); backlog > an.maxBacklog {
		an.maxBacklog = backlog
		an.backlogMax.SetMax(int64(backlog))
	}
	an.events.Add(int64(len(evs)))
	for i := range evs {
		if an.stopping {
			break
		}
		an.handle(&evs[i])
	}
	putEventBuf(evs)
	if an.n.stamp {
		d := time.Since(t0)
		an.busyNs += d.Nanoseconds()
		if an.hAnalyze.enabled() {
			an.hAnalyze.Observe(d)
		}
	}
	an.pending.Add(-1)
}

func (an *analyzer) handle(ev *event) {
	switch {
	case ev.isDone:
		an.handleDone(ev)
	case ev.remoteDone != nil:
		an.producersDone(ev.remoteDone, ev.age, 1)
		an.paceArrive(ev.remoteDone, ev.age)
	case ev.stop:
		an.stopping = true
		return
	default:
		an.handleStore(ev)
	}
	an.settle()
}

// settle ends an event: the field generations it completed take effect, the
// instances it readied join the quiescence count, and the full slices carved
// from them go to the scheduler. Remainders wait for a lull (slicer.drain).
func (an *analyzer) settle() {
	for i := 0; i < len(an.completions); i++ {
		c := an.completions[i]
		an.onFieldComplete(c.fs, c.g)
	}
	an.completions = an.completions[:0]
	an.commitReady()
	an.slicer.flush()
}

// fieldAge returns (creating on demand) the completeness record of one field
// generation. A generation with no relevant producers completes at once.
func (an *analyzer) fieldAge(fs *fieldState, g int) *fieldAgeState {
	if fa := fs.ages[g]; fa != nil {
		return fa
	}
	expected := 0
	for _, pe := range fs.producers {
		ae := pe.store.Age
		if ae.HasVar && g-ae.Offset >= 0 || !ae.HasVar && ae.Offset == g {
			expected += pe.ks.shares
		}
	}
	fa := &fieldAgeState{expected: expected}
	fs.ages[g] = fa
	if expected == 0 {
		an.markComplete(fs, g)
	}
	return fa
}

// markComplete records that every producer of a field generation is done and
// queues the generation's completion for settle.
func (an *analyzer) markComplete(fs *fieldState, g int) {
	fs.f.MarkComplete(g)
	an.completions = append(an.completions, fieldGen{fs, g})
}

// producersDone counts shares of kernel ks done at age toward the
// completeness of every field generation it stores to.
func (an *analyzer) producersDone(ks *kernelState, age, shares int) {
	for i := range ks.decl.Stores {
		ss := &ks.decl.Stores[i]
		g := ss.Age.Eval(age)
		fs := an.n.fields[ss.Field]
		fa := an.fieldAge(fs, g)
		fa.producersDone += shares
		if fa.producersDone == fa.expected {
			an.markComplete(fs, g)
		}
	}
}

// ensureTracker returns the tracker for (kernel, age), creating it — with a
// full satisfaction scan over current field state — when it does not exist.
// Field extents are read through the field's own lock; a store racing the
// scan re-arrives as an event, where growth and satisfaction re-checks are
// idempotent.
func (an *analyzer) ensureTracker(ks *kernelState, age int) (*ageTracker, bool) {
	if age < 0 || age > an.n.opts.MaxAge || age > an.n.kernelMaxAge(ks) {
		return nil, false
	}
	if t := ks.ages[age]; t != nil {
		return t, false
	}
	if ks.remote || ks.decl.Source() || (ks.decl.RunOnce() && age != 0) {
		return nil, false
	}
	t := an.newTracker(ks, age)
	t.extents = make([]int, len(ks.binds))
	bindDone := 0
	for i, b := range ks.binds {
		ga := b.age.Eval(age)
		t.extents[i] = b.fs.f.Extent(ga, b.dim)
		if an.fieldAge(b.fs, ga).complete {
			bindDone++
		}
	}
	t.bindsDone = bindDone
	t.domainFinal = bindDone == len(ks.binds)
	if len(ks.binds) == 0 {
		an.createSingle(t)
	} else {
		from := make([]int, len(ks.binds))
		an.createInstances(t, from, t.extents)
	}
	an.maybeTrackerDone(t)
	return t, true
}

// sourceTracker creates the single-instance tracker for a source kernel at
// the given age; the instance is immediately runnable.
func (an *analyzer) sourceTracker(ks *kernelState, age int) {
	if age > an.n.opts.MaxAge || age > an.n.kernelMaxAge(ks) || ks.ages[age] != nil {
		return
	}
	t := an.newTracker(ks, age)
	t.domainFinal = true
	an.createSingle(t)
}

// newTracker registers an empty tracker for (ks, age). A range tracker's mask
// starts as its creation scan: the fetches whose generations are complete.
func (an *analyzer) newTracker(ks *kernelState, age int) *ageTracker {
	t := &ageTracker{ks: ks, age: age}
	if ks.needsInstMap {
		t.inst = make(map[int64]*instState)
	} else {
		t.mask, _ = an.burstMask(t)
		t.waiting, t.runs = an.runList(), an.runList()
	}
	if ks.ages == nil {
		ks.ages = make(map[int]*ageTracker)
	}
	ks.ages[age] = t
	return t
}

// runList returns a spare run list, or nil when there is none.
func (an *analyzer) runList() []cellRun {
	k := len(an.spare)
	if k == 0 {
		return nil
	}
	l := an.spare[k-1]
	an.spare = an.spare[:k-1]
	return l
}

// burstMask hoists the per-creation-burst part of initial satisfaction: the
// whole/slab fetch bits, which depend only on generation completeness, are
// computed once per tracker creation or growth burst instead of per instance.
// elems reports whether element fetches remain to check per instance.
func (an *analyzer) burstMask(t *ageTracker) (mask0 uint32, elems bool) {
	ks := t.ks
	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		if fp.slab != nil {
			if an.fieldAge(fp.fs, fp.fe.Age.Eval(t.age)).complete {
				mask0 |= uint32(1) << uint(i)
			}
		} else {
			elems = true
		}
	}
	return mask0, elems
}

// createSingle creates the one instance of a kernel without index variables.
func (an *analyzer) createSingle(t *ageTracker) {
	if !t.ks.needsInstMap {
		an.addRun(t, cellRun{hi: 1})
		return
	}
	mask0, elems := an.burstMask(t)
	an.newInst(t, nil, mask0, elems)
}

// createInstances creates the instances in box(to) but not in box(from) that
// run here, walking the new cells as boxes (newBoxes) cut at share granules:
// a range tracker takes each box as a run, a per-instance tracker gets one
// instState per cell.
func (an *analyzer) createInstances(t *ageTracker, from, to []int) {
	ks := t.ks
	var mask0 uint32
	var elems bool
	if ks.needsInstMap {
		mask0, elems = an.burstMask(t)
		// Presize the ready list and the free list for the whole burst:
		// growing them element-by-element is a measurable share of the
		// analyzer's allocations.
		add := boxCells(to) - boxCells(from)
		if add > 0 && cap(t.ready)-len(t.ready) < add {
			grown := make([]*instState, len(t.ready), len(t.ready)+add)
			copy(grown, t.ready)
			t.ready = grown
		}
		if need := add - len(an.free); need > 0 {
			an.refill(need, len(to))
		}
	}
	newBoxes(from, to, func(org, ext [maxRank]int) {
		ks.ownedRuns(org[0], org[0]+ext[0], func(lo, hi int) {
			r := cellRun{org: org, ext: ext, rank: len(to)}
			r.org[0], r.ext[0] = lo, hi-lo
			r.hi = boxCells(r.ext[:r.rank])
			if !ks.needsInstMap {
				an.addRun(t, r)
				return
			}
			var buf [maxRank]int
			for i := 0; i < r.hi; i++ {
				an.newInst(t, r.coords(i, buf[:]), mask0, elems)
			}
		})
	})
}

// addRun registers a run of new cells with a range tracker: ready at once when
// the tracker's mask is full, waiting for the mask to fill otherwise.
func (an *analyzer) addRun(t *ageTracker, r cellRun) {
	k := r.len()
	t.total += k
	if t.mask != t.ks.fullMask {
		t.waiting = extend(t.waiting, 0, r)
		if an.n.stamp {
			t.stamps = append(t.stamps, burstStamp{an.n.nowNs(), k})
		}
		return
	}
	if an.n.stamp {
		r.readyNs = an.n.nowNs()
		t.ks.stageReady.ObserveN(0, k)
	}
	t.runs = extend(t.runs, t.rhead, r)
	t.queued += k
	an.readied += int64(k) // see markReady
	an.slicer.added(t)
}

// satisfyRange records that one fetch of every instance of a range tracker is
// satisfied; the fetch that fills the mask readies every waiting cell at once.
func (an *analyzer) satisfyRange(t *ageTracker, bit uint32) {
	if t.mask&bit != 0 {
		return
	}
	t.mask |= bit
	if t.mask != t.ks.fullMask {
		return
	}
	if an.n.stamp {
		now := an.n.nowNs()
		for _, st := range t.stamps {
			t.ks.stageReady.ObserveN(time.Duration(now-st.createdNs), st.cells)
		}
		t.stamps = t.stamps[:0]
		for i := range t.waiting {
			t.waiting[i].readyNs = now
		}
	}
	// Nothing was ready while the mask was not full: the waiting runs
	// become the ready ones.
	t.runs, t.waiting, t.rhead = t.waiting, t.runs[:0], 0
	k := cellsOf(t.runs)
	t.queued += k
	an.readied += int64(k)
	an.slicer.added(t)
}

// newInst registers one instance with the burst's hoisted whole/slab mask and
// checks its element fetches against current field contents.
func (an *analyzer) newInst(t *ageTracker, coords []int, mask0 uint32, elems bool) {
	if len(an.free) == 0 {
		an.refill(instBlock, len(coords))
	}
	is := an.free[len(an.free)-1]
	an.free = an.free[:len(an.free)-1]
	is.coords = append(is.coords[:0], coords...)
	is.mask, is.st, is.readyNs, is.createdNs = mask0, instWaiting, 0, 0
	if an.n.stamp {
		is.createdNs = an.n.nowNs()
	}
	t.inst[coordKey(coords)] = is
	t.total++
	ks := t.ks
	if elems {
		for i := range ks.fetchPlans {
			fp := &ks.fetchPlans[i]
			if fp.slab != nil {
				continue
			}
			bit := uint32(1) << uint(i)
			if is.mask&bit != 0 {
				continue
			}
			g := fp.fe.Age.Eval(t.age)
			idx := evalTerms(an.scratch(len(fp.terms)), fp.terms, is.coords)
			if _, ok := fp.fs.f.At(g, idx...); ok {
				is.mask |= bit
			}
		}
	}
	if is.mask == ks.fullMask {
		an.markReady(t, is)
	}
}

// instBlock is the least number of instStates refill makes at once.
const instBlock = 32

// refill adds a block of at least k fresh instStates to the free list, each
// with room for rank coordinates: two allocations per block instead of two
// per instance.
func (an *analyzer) refill(k, rank int) {
	k = max(k, instBlock)
	block := make([]instState, k)
	coords := make([]int, k*rank)
	for i := range block {
		block[i].coords = coords[i*rank : i*rank : (i+1)*rank]
		an.free = append(an.free, &block[i])
	}
}

// markReady hands a fully satisfied instance to the slicer. The quiescence
// count has to include it before the unit of work that readied it is counted
// out; the increments are gathered in readied and published by commitReady,
// once per event rather than once per instance.
func (an *analyzer) markReady(t *ageTracker, is *instState) {
	is.st = instQueued
	if an.n.stamp {
		is.readyNs = an.n.nowNs()
		t.ks.stageReady.Observe(time.Duration(is.readyNs - is.createdNs))
	}
	an.readied++
	an.slicer.ready(t, is)
}

// commitReady publishes the ready instances gathered since the last call to
// the quiescence count. It runs before any of them reaches the scheduler
// (pushSlices) — a worker's done event must never count an instance out
// before it was counted in — and at the end of every event (settle), ahead
// of that event's batch decrement.
func (an *analyzer) commitReady() {
	if an.readied > 0 {
		an.pending.Add(an.readied)
		an.readied = 0
	}
}

// setBit records that one fetch of one instance is satisfied.
func (an *analyzer) setBit(t *ageTracker, is *instState, bit uint32) {
	if is.st != instWaiting || is.mask&bit != 0 {
		return
	}
	is.mask |= bit
	if is.mask == t.ks.fullMask {
		an.markReady(t, is)
	}
}

// pushSlices is the slicer's delivery hook: one PushBulk (single epoch update
// and waiter wakeup) for the group.
func (an *analyzer) pushSlices(bs []*batch) {
	an.commitReady()
	an.n.sched.PushBulk(bs)
	if depth := an.n.sched.Len(); depth > an.maxQueue {
		an.maxQueue = depth
	}
	an.updateGauges()
}

// updateGauges refreshes the node's scheduler gauges; all handles are nil
// (no-ops) unless detailed metrics are enabled.
func (an *analyzer) updateGauges() {
	n := an.n
	if n.gQueue == nil {
		return
	}
	n.gQueue.Set(int64(n.sched.Len()))
	n.gBacklog.Set(int64(len(an.ch)))
	n.gOutstand.Set(an.pending.Load())
}

// handleDone processes a finished slice: its instances are done, the slice
// header is recycled, source kernels continue at the next age, and the
// kernel-age may be complete. The quiescence decrement — one for the whole
// slice — comes last, after everything the completion spawns is counted.
func (an *analyzer) handleDone(ev *event) {
	probe := ev.b.probe
	t, k := an.n.retireSlice(ev.b)
	ks := t.ks
	if probe {
		an.slicer.probed(ks)
	}
	if ks.decl.Source() {
		if ev.stopped || ev.stores == 0 {
			ks.sourceStopped = true
		} else if ks.pace == nil {
			an.sourceTracker(ks, t.age+1)
		}
	}
	an.maybeTrackerDone(t)
	an.updateGauges()
	an.pending.Add(-int64(k))
}

func (an *analyzer) maybeTrackerDone(t *ageTracker) {
	if t.completed || !t.domainFinal || t.done != t.total || t.uncarved() != 0 {
		return
	}
	t.completed = true
	if an.n.tracer == nil {
		// Recycle the instance structs (safe: every instance is done, so no
		// worker or batch will read them again). With tracing on they must
		// survive — recorded spans alias their coords.
		for _, is := range t.inst {
			an.free = append(an.free, is)
		}
	}
	for _, l := range [2][]cellRun{t.waiting, t.runs} {
		if cap(l) > 0 {
			an.spare = append(an.spare, l[:0])
		}
	}
	t.inst, t.ready, t.head = nil, nil, 0
	t.waiting, t.runs, t.rhead, t.stamps = nil, nil, 0, nil
	an.onTrackerComplete(t)
}

// onTrackerComplete propagates a finished kernel-age: producer accounting on
// stored fields, consumer accounting (garbage collection) on fetched fields,
// and a paced source's own half of its wait.
func (an *analyzer) onTrackerComplete(t *ageTracker) {
	ks := t.ks
	if cb := an.n.opts.OnKernelDone; cb != nil {
		cb(ks.decl.Name, t.age)
	}
	if tr := an.n.tracer; tr != nil {
		tr.Record(obs.Span{
			Name: ks.decl.Name + " done", Cat: "lifecycle", Ph: obs.PhaseInstant,
			TS: tr.Now(), Age: t.age,
		})
	}
	if an.n.gFieldMem != nil {
		an.n.gFieldMem.Set(int64(an.n.FieldMemoryElems()))
	}
	an.producersDone(ks, t.age, ks.ownN)
	if ks.pace != nil && !ks.sourceStopped {
		an.paceStep(ks, t.age, 0, true)
	}
	for i := range ks.decl.Fetches {
		fe := &ks.decl.Fetches[i]
		if !fe.Age.HasVar {
			continue // absolute-age fetches pin the generation forever
		}
		g := fe.Age.Eval(t.age)
		fs := an.n.fields[fe.Field]
		fa := an.fieldAge(fs, g)
		fa.consumersDone++
		an.gcCheck(fs, g, fa)
	}
}

// handleStore processes a store event: domain growth for kernels whose index
// range the field defines, then fetch satisfaction for element-fetch
// consumers. The generation's completeness record is ensured first, so a
// store injected from another node is accounted like a local one.
func (an *analyzer) handleStore(ev *event) {
	an.fieldAge(ev.fs, ev.age)
	if ev.grew {
		for _, re := range ev.fs.rangeOf {
			an.forTrackers(re.ks, re.age, ev.age, func(t *ageTracker) {
				an.growTracker(t, re.varIdx, ev.ext.at(re.dim))
			})
		}
	}
	var elem []int
	if !ev.whole {
		elem = ev.elem.get(&an.elemBuf)
	}
	for _, ce := range ev.fs.consumers {
		if ce.terms == nil {
			continue // whole/slab fetches are satisfied by completeness, not stores
		}
		an.forTrackers(ce.ks, ce.fetch.Age, ev.age, func(t *ageTracker) {
			if ev.whole {
				an.scanSatisfy(t, ce)
			} else {
				an.satisfyElem(t, ce, elem)
			}
		})
	}
}

// forTrackers visits the trackers of ks whose fetch/store age expression ae
// maps to field generation g. For an age-variable expression that is one
// tracker, created on demand; for an absolute one every existing tracker.
// Freshly created trackers are not visited: their creation scan already
// covers current state.
func (an *analyzer) forTrackers(ks *kernelState, ae core.AgeExpr, g int, visit func(*ageTracker)) {
	if ae.HasVar {
		if t, created := an.ensureTracker(ks, g-ae.Offset); t != nil && !created {
			visit(t)
		}
		return
	}
	if ae.Offset != g {
		return
	}
	for _, t := range ks.ages {
		visit(t)
	}
}

// growTracker extends the domain of one index variable and creates the new
// instances.
func (an *analyzer) growTracker(t *ageTracker, varIdx, newExt int) {
	if t.completed || newExt <= t.extents[varIdx] {
		return
	}
	var fromBuf [4]int
	from := append(fromBuf[:0], t.extents...)
	t.extents[varIdx] = newExt
	an.createInstances(t, from, t.extents)
}

// satisfyElem marks the fetch bit of every instance whose fetch coordinates
// match a stored element (only reachable for kernels with element fetches,
// which always carry an instance map).
func (an *analyzer) satisfyElem(t *ageTracker, ce consEdge, elem []int) {
	if t.completed {
		return
	}
	nv := len(t.ks.decl.IndexVars)
	if cap(an.satCoords) < nv {
		an.satCoords = make([]int, nv)
		an.satConstr = make([]bool, nv)
	}
	coords, constrained := an.satCoords[:nv], an.satConstr[:nv]
	for i := 0; i < nv; i++ {
		coords[i], constrained[i] = 0, false
	}
	for d, term := range ce.terms {
		if term.v >= 0 {
			vi := term.v
			c := elem[d] - term.off
			if c < 0 || c >= t.extents[vi] {
				return // instance does not exist (yet); creation scans cover it
			}
			if constrained[vi] && coords[vi] != c {
				return // e.g. fetch f(a)[x][x] with mismatched coordinates
			}
			coords[vi] = c
			constrained[vi] = true
		} else if term.off != elem[d] {
			return
		}
	}
	an.enumerate(t, coords, constrained, 0, ce.fetchBit)
}

func (an *analyzer) enumerate(t *ageTracker, coords []int, constrained []bool, d int, bit uint32) {
	if d == len(coords) {
		if is := t.inst[coordKey(coords)]; is != nil {
			an.setBit(t, is, bit)
		}
		return
	}
	if constrained[d] {
		an.enumerate(t, coords, constrained, d+1, bit)
		return
	}
	for c := 0; c < t.extents[d]; c++ {
		coords[d] = c
		an.enumerate(t, coords, constrained, d+1, bit)
	}
	coords[d] = 0
}

// scanSatisfy re-checks one element fetch against current field contents for
// every instance that still misses it (used after whole/slab stores, which
// cover many elements with one event).
func (an *analyzer) scanSatisfy(t *ageTracker, ce consEdge) {
	if t.completed {
		return
	}
	g := ce.fetch.Age.Eval(t.age)
	fs := an.n.fields[ce.fetch.Field]
	for _, is := range t.inst {
		if is.st != instWaiting || is.mask&ce.fetchBit != 0 {
			continue
		}
		idx := evalTerms(an.scratch(len(ce.terms)), ce.terms, is.coords)
		if _, ok := fs.f.At(g, idx...); ok {
			an.setBit(t, is, ce.fetchBit)
		}
	}
}

// onFieldComplete takes a completed field generation into effect: it flips
// the generation's complete flag, satisfies whole/slab fetches, finalizes
// index domains bound to the field, and checks for garbage collection.
func (an *analyzer) onFieldComplete(fs *fieldState, g int) {
	fa := fs.ages[g]
	// Flip the flag first: a tracker created by forTrackers below then counts
	// this generation in its creation scan and is not visited, keeping
	// bindsDone and satisfaction exactly-once.
	fa.complete = true
	for _, ce := range fs.consumers {
		if ce.terms != nil {
			continue
		}
		an.forTrackers(ce.ks, ce.fetch.Age, g, func(t *ageTracker) {
			if t.completed {
				return
			}
			if !t.ks.needsInstMap {
				an.satisfyRange(t, ce.fetchBit)
				return
			}
			for _, is := range t.inst {
				an.setBit(t, is, ce.fetchBit)
			}
		})
	}
	for _, re := range fs.rangeOf {
		reVar := re.varIdx
		an.forTrackers(re.ks, re.age, g, func(t *ageTracker) {
			if t.completed {
				return
			}
			// Sync the final extent (stores processed earlier already grew
			// the domain; this is a no-op safeguard).
			an.growTracker(t, reVar, fs.f.Extent(g, re.dim))
			t.bindsDone++
			if t.bindsDone == len(t.ks.binds) {
				t.domainFinal = true
				an.maybeTrackerDone(t)
			}
		})
	}
	an.gcCheck(fs, g, fa)
}

// gcCheck garbage collects a field generation once it is complete and every
// age-variable consumer kernel-age has finished with it, then retires what
// the analyzer kept about it.
func (an *analyzer) gcCheck(fs *fieldState, g int, fa *fieldAgeState) {
	if !an.n.opts.GC || fa.collected || !fa.complete || fs.absConsumers > 0 || fa.consumersDone < fs.agedConsumers || fs.agedConsumers == 0 {
		return
	}
	fa.collected = true
	fs.f.DropAge(g)
	an.retire(fs, g)
}

// retire forgets a collected generation: its completeness record, and every
// completed tracker that nothing can name any more. A consumer tracker is
// named by events on the generations it fetches; once all of its age-variable
// fetches have been collected, those generations are complete (no store
// event comes) and their completions are handled (none comes either). A
// source tracker is named only by its own predecessor's continuation, which
// ran before the source's stores completed anything.
func (an *analyzer) retire(fs *fieldState, g int) {
	delete(fs.ages, g)
	for _, ce := range fs.consumers {
		ks, a := ce.ks, g-ce.fetch.Age.Offset
		if t := ks.ages[a]; t != nil {
			if t.collected++; t.collected == ks.agedFetches {
				delete(ks.ages, a)
			}
		}
	}
	for _, pe := range fs.producers {
		if pe.ks.decl.Source() && pe.store.Age.HasVar {
			delete(pe.ks.ages, g-pe.store.Age.Offset)
		}
	}
}

// stalled describes every kernel-age that never completed: its instance
// counts, the fetches it still waits for, and — per instance for a
// per-instance tracker, as ranges for a range tracker — what was created,
// readied and carved.
func (an *analyzer) stalled() []string {
	var out []string
	for _, ks := range an.n.order {
		for age, t := range ks.ages {
			if t.completed {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s(age=%d): %d/%d instances done, domainFinal=%v", ks.decl.Name, age, t.done, t.total, t.domainFinal)
			missing := ^t.mask
			if ks.needsInstMap {
				missing = 0
				for _, is := range t.inst {
					if is.st == instWaiting {
						missing |= ^is.mask
					}
				}
			}
			for i := range ks.decl.Fetches {
				if missing&(1<<uint(i)) != 0 {
					fmt.Fprintf(&b, "; missing %s", strings.TrimSuffix(ks.decl.Fetches[i].String(), ";"))
				}
			}
			if !ks.needsInstMap {
				fmt.Fprintf(&b, "; waiting %v, ready %v, carved %d", t.waiting, t.runs[t.rhead:], t.total-t.queued-cellsOf(t.waiting))
			}
			for _, is := range t.inst {
				fmt.Fprintf(&b, " inst%v mask=%b st=%d", is.coords, is.mask, is.st)
			}
			out = append(out, b.String())
		}
	}
	sort.Strings(out)
	return out
}

// cellsOf counts the cells of a run list.
func cellsOf(runs []cellRun) int {
	k := 0
	for i := range runs {
		k += runs[i].len()
	}
	return k
}

func varIndex(vars []string, name string) int {
	for i, v := range vars {
		if v == name {
			return i
		}
	}
	panic(fmt.Sprintf("p2g: unknown index variable %q", name))
}
