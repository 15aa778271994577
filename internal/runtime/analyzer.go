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
// entries that fit an int32 are held inline, so building a store event never
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
	// collected queues the generations garbage collection dropped, for
	// settle to retire once the event is handled: the completion that
	// collected one may go on to name a tracker retire would delete.
	collected []fieldGen

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

	// spare holds the run lists of completed trackers for new ones, so that
	// steady state allocates none (a split kernel has a run per owned share
	// granule, dozens per age).
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
// ones it collected are retired, the instances it readied join the
// quiescence count, and the full slices carved
// from them go to the scheduler. Remainders wait for a lull (slicer.drain).
func (an *analyzer) settle() {
	for i := 0; i < len(an.completions); i++ {
		c := an.completions[i]
		an.onFieldComplete(c.fs, c.g)
	}
	an.completions = an.completions[:0]
	for _, c := range an.collected {
		an.retire(c.fs, c.g)
	}
	an.collected = an.collected[:0]
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
		r := cellRun{hi: 1} // the one instance of a kernel without index variables
		an.addRun(t, r, an.covered(t, &r))
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
	an.addRun(t, cellRun{hi: 1}, 0)
}

// newTracker registers an empty tracker for (ks, age). Its mask starts as its
// creation scan: the whole/slab fetches whose generations are complete.
func (an *analyzer) newTracker(ks *kernelState, age int) *ageTracker {
	t := &ageTracker{ks: ks, age: age, mask: ks.elemBits}
	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		if fp.slab != nil && an.fieldAge(fp.fs, fp.fe.Age.Eval(age)).complete {
			t.mask |= uint32(1) << uint(i)
		}
	}
	t.waiting, t.runs = an.runList(), an.runList()
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

// createInstances creates the instances in box(to) but not in box(from) that
// run here, walking the new cells as boxes (newBoxes) cut at share granules.
// Each box's element fetches are checked once for the whole box (covered).
func (an *analyzer) createInstances(t *ageTracker, from, to []int) {
	ks := t.ks
	if t.cells != nil {
		t.cells = regrid(t.cells, from, to, ks.elemBits)
		if t.born != nil {
			t.born = regrid(t.born, from, to, 0)
		}
	}
	newBoxes(from, to, func(org, ext [maxRank]int) {
		box := cellRun{org: org, ext: ext, rank: len(to)}
		have := an.covered(t, &box)
		ks.ownedRuns(org[0], org[0]+ext[0], func(lo, hi int) {
			r := box
			r.org[0], r.ext[0] = lo, hi-lo
			r.hi = boxCells(r.ext[:r.rank])
			an.addRun(t, r, have)
		})
	})
}

// covered returns the element fetches satisfied for every cell of r's box at
// once: those whose image of the box — per field dimension, the range its
// index term takes over the box — lies inside a generation written
// throughout. That is one check per fetch however many cells the box has.
// The write count is read before the extents: a generation only gains
// writes and grows, so a count equal to the cell count of later extents
// proves it was written throughout, with those extents, when counted.
func (an *analyzer) covered(t *ageTracker, r *cellRun) uint32 {
	var have uint32
	for i := range t.ks.fetchPlans {
		fp := &t.ks.fetchPlans[i]
		if fp.terms == nil {
			continue
		}
		g := fp.fe.Age.Eval(t.age)
		writes, cells, inside := fp.fs.f.Writes(g), 1, true
		for d, tm := range fp.terms {
			e := fp.fs.f.Extent(g, d)
			lo, hi := tm.off, tm.off+1
			if tm.v >= 0 {
				lo, hi = r.org[tm.v]+tm.off, r.org[tm.v]+r.ext[tm.v]+tm.off
			}
			cells, inside = cells*e, inside && lo >= 0 && hi <= e
		}
		if inside && writes == cells {
			have |= uint32(1) << uint(i)
		}
	}
	return have
}

// addRun registers a run of new cells, have being the element fetches
// satisfied for all of them. With all of them, the run is ready at once when
// the mask is full and otherwise waits, stamped with its creation (runs of
// different stamps stay apart); else, or when stamps are kept per cell, each
// cell is checked against the field and is ready or waits on its own.
func (an *analyzer) addRun(t *ageTracker, r cellRun, have uint32) {
	ks := t.ks
	t.total += r.len()
	full, now := t.mask == ks.fullMask, an.now()
	if have == ks.elemBits && t.born == nil {
		if full {
			an.ready(t, r, now, now)
			return
		}
		r.readyNs = now
		if n := len(t.waiting); n > 0 && t.waiting[n-1].readyNs != now {
			t.waiting = append(t.waiting, r)
		} else {
			t.waiting = extend(t.waiting, 0, r)
		}
		t.nwait += r.len()
		return
	}
	an.trackCells(t)
	var buf [maxRank]int
	for i := r.lo; i < r.hi; i++ {
		c := r.coords(i, buf[:])
		f := position(c, t.extents)
		m := have | an.written(t, c, have)
		t.cells[f] = m
		if full && m == ks.elemBits {
			an.ready(t, t.cellRun(f), now, now)
			continue
		}
		if t.born != nil {
			t.born[f] = now
		}
		t.waiting = extend(t.waiting, 0, t.cellRun(f))
		t.nwait++
	}
}

// trackCells gives t per-cell element state when it has none: every cell
// created so far has all of its element fetches, or it would have some, and
// a waiting one takes its run's creation stamp.
func (an *analyzer) trackCells(t *ageTracker) {
	if t.cells != nil {
		return
	}
	t.cells = regrid(nil, t.extents, t.extents, t.ks.elemBits)
	if an.n.stamp {
		t.born = make([]int64, len(t.cells))
		var buf [maxRank]int
		for _, r := range t.waiting {
			for i := r.lo; i < r.hi; i++ {
				t.born[position(r.coords(i, buf[:]), t.extents)] = r.readyNs
			}
		}
	}
}

// written returns the element fetches outside skip whose element for cell c
// is written.
func (an *analyzer) written(t *ageTracker, c []int, skip uint32) uint32 {
	var m uint32
	for i := range t.ks.fetchPlans {
		fp := &t.ks.fetchPlans[i]
		bit := uint32(1) << uint(i)
		if fp.terms == nil || skip&bit != 0 {
			continue
		}
		idx := evalTerms(an.scratch(len(fp.terms)), fp.terms, c)
		if _, ok := fp.fs.f.At(fp.fe.Age.Eval(t.age), idx...); ok {
			m |= bit
		}
	}
	return m
}

// now is the analyzer's stamp for what it does next: Node.nowNs when the node
// stamps, else zero.
func (an *analyzer) now() int64 {
	if !an.n.stamp {
		return 0
	}
	return an.n.nowNs()
}

// ready hands a run of cells, created at bornNs and satisfied at now, to the
// slicer: it joins the tracker's ready runs (extend). The quiescence count has
// to include them before the unit of work that readied them is counted out;
// the increments are gathered in readied and published by commitReady, once
// per event rather than once per run.
func (an *analyzer) ready(t *ageTracker, r cellRun, bornNs, now int64) {
	k := r.len()
	if an.n.stamp {
		r.readyNs = now
		t.ks.stageReady.ObserveN(time.Duration(now-bornNs), k)
	}
	t.runs = extend(t.runs, t.rhead, r)
	t.queued += k
	an.readied += int64(k)
	an.slicer.added(t)
}

// satisfyRange records that one whole/slab fetch of every cell of t is
// satisfied; the fetch that fills the mask readies the waiting cells (sweep).
func (an *analyzer) satisfyRange(t *ageTracker, bit uint32) {
	if t.mask&bit != 0 {
		return
	}
	t.mask |= bit
	if t.mask == t.ks.fullMask {
		an.sweep(t, nil)
	}
}

// sweep goes over the waiting cells, readies those now satisfied and keeps the
// rest listed, as runs. With ce, after a whole or slab store to an element
// fetched field, it first satisfies that fetch where the element is written —
// for a whole waiting run at once when covered says so, else cell by cell.
func (an *analyzer) sweep(t *ageTracker, ce *consEdge) {
	ks := t.ks
	full, now := t.mask == ks.fullMask, an.now()
	if t.completed || t.nwait == 0 {
		return
	}
	if t.cells == nil {
		// Every waiting cell has its element fetches: it waits for the mask.
		if full {
			for _, r := range t.waiting {
				an.ready(t, r, r.readyNs, now)
			}
			t.waiting, t.nwait = t.waiting[:0], 0
		}
		return
	}
	kept := an.runList()
	t.nwait = 0
	var buf [maxRank]int
	for _, r := range t.waiting {
		var have uint32
		if ce != nil {
			have = an.covered(t, &r) & ce.fetchBit
		}
		for i := r.lo; i < r.hi; i++ {
			f := position(r.coords(i, buf[:]), t.extents)
			m := t.cells[f]
			if ce != nil {
				if full && m == ks.elemBits {
					continue // readied on its own since it was listed
				}
				m |= have | an.written(t, buf[:r.rank], m|have|^ce.fetchBit)
				t.cells[f] = m
			}
			if full && m == ks.elemBits {
				an.ready(t, t.cellRun(f), t.bornAt(f), now)
				continue
			}
			kept = extend(kept, 0, t.cellRun(f))
			t.nwait++
		}
	}
	an.spare = append(an.spare, t.waiting[:0])
	t.waiting = kept
}

// bornAt returns the creation stamp of cell f (zero unless the node stamps).
func (t *ageTracker) bornAt(f int) int64 {
	if t.born == nil {
		return 0
	}
	return t.born[f]
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

// pushSlices is the slicer's delivery hook: one PushBulk (one lock and at
// most one wakeup per slice) for the group.
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
	if t.completed || !t.domainFinal || t.done != t.total || t.queued != 0 {
		return
	}
	t.completed = true
	for _, l := range [2][]cellRun{t.waiting, t.runs} {
		if cap(l) > 0 {
			an.spare = append(an.spare, l[:0])
		}
	}
	t.waiting, t.runs, t.rhead, t.cells, t.born = nil, nil, 0, nil, nil
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
				an.sweep(t, &ce)
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

// satisfyElem satisfies fetch ce for every cell whose fetch coordinates match
// a stored element: the element is mapped back through the fetch's index
// terms to the cells that read it, found by position in cells. A tracker
// without per-cell state has every created cell's elements already.
func (an *analyzer) satisfyElem(t *ageTracker, ce consEdge, elem []int) {
	if t.completed || t.cells == nil {
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
		an.satisfyCell(t, position(coords, t.extents), bit)
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

// satisfyCell records that element fetch bit of cell f is satisfied, readying
// the cell when that completes it. A cell that is not created here — another
// node's share — has every bit already.
func (an *analyzer) satisfyCell(t *ageTracker, f int, bit uint32) {
	m := t.cells[f]
	if m&bit != 0 {
		return
	}
	m |= bit
	t.cells[f] = m
	if m == t.ks.elemBits && t.mask == t.ks.fullMask {
		an.ready(t, t.cellRun(f), t.bornAt(f), an.now())
		if t.nwait--; t.nwait == 0 {
			t.waiting = t.waiting[:0]
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
			if !t.completed {
				an.satisfyRange(t, ce.fetchBit)
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
// age-variable consumer kernel-age has finished with it, and queues what the
// analyzer kept about it for retirement (settle).
func (an *analyzer) gcCheck(fs *fieldState, g int, fa *fieldAgeState) {
	if !an.n.opts.GC || fa.collected || !fa.complete || fs.absConsumers > 0 || fa.consumersDone < fs.agedConsumers || fs.agedConsumers == 0 {
		return
	}
	fa.collected = true
	fs.f.DropAge(g)
	an.collected = append(an.collected, fieldGen{fs, g})
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
// counts, the fetches it still waits for, and its waiting and ready cells as
// runs.
func (an *analyzer) stalled() []string {
	var out []string
	for _, ks := range an.n.order {
		for age, t := range ks.ages {
			if t.completed {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s(age=%d): %d/%d instances done, domainFinal=%v", ks.decl.Name, age, t.done, t.total, t.domainFinal)
			missing, waiting, full := ^t.mask, t.waiting, t.mask == ks.fullMask
			if t.cells != nil {
				waiting = nil
				var buf [maxRank]int
				for _, r := range t.waiting {
					for i := r.lo; i < r.hi; i++ {
						f := position(r.coords(i, buf[:]), t.extents)
						if m := t.cells[f]; m != ks.elemBits || !full {
							missing |= ks.elemBits &^ m
							waiting = extend(waiting, 0, t.cellRun(f))
						}
					}
				}
			}
			for i := range ks.decl.Fetches {
				if missing&(1<<uint(i)) != 0 {
					fmt.Fprintf(&b, "; missing %s", strings.TrimSuffix(ks.decl.Fetches[i].String(), ";"))
				}
			}
			fmt.Fprintf(&b, "; waiting %v, ready %v, carved %d", waiting, t.runs[t.rhead:], t.total-t.queued-t.nwait)
			out = append(out, b.String())
		}
	}
	sort.Strings(out)
	return out
}

func varIndex(vars []string, name string) int {
	for i, v := range vars {
		if v == name {
			return i
		}
	}
	panic(fmt.Sprintf("p2g: unknown index variable %q", name))
}
