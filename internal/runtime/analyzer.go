package runtime

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
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

// ctlKind enumerates the cross-shard control messages. Everything that must
// be sequenced against field completeness runs through shard 0 (the
// completion authority); completeness itself fans back out as a broadcast.
type ctlKind uint8

const (
	// ctlEnsure (to shard 0) materializes a fieldAgeState so generations
	// with zero expected producers complete immediately.
	ctlEnsure ctlKind = iota
	// ctlTrackerComplete (to shard 0) runs producer/consumer accounting for
	// a finished kernel-age.
	ctlTrackerComplete
	// ctlFieldComplete (broadcast) announces a complete field generation;
	// each shard updates its completeness replica and satisfies its own
	// trackers, giving exactly-once bindsDone counting per shard.
	ctlFieldComplete
	// ctlCreateTracker (to the owning shard) bootstraps a run-once kernel.
	ctlCreateTracker
	// ctlCreateSource (to the owning shard) creates a source kernel's
	// tracker at the given age (bootstrap and the age+1 continuation).
	ctlCreateSource
)

type ctlMsg struct {
	kind ctlKind
	fs   *fieldState
	age  int
	t    *ageTracker
	ks   *kernelState
}

// analyzer is the dependency analyzer half of the low-level scheduler:
// Options.AnalyzerShards anShard goroutines, each owning the trackers whose
// (kernel, age) hashes to it, fed by per-shard event channels so workers never
// contend on a single analyzer inbox. With one shard it is the paper's single
// dedicated analyzer thread, to which §VIII-B attributes the K-means scaling
// limit; the scheduler's age epoch keeps dispatch oldest-age-first however
// many shards feed it.
//
// Quiescence is a single atomic: pending counts every unit of in-flight work
// (buffered worker batches, injected batches, posted control messages, and
// ready-but-not-done instances). Every increment for spawned work happens
// before the spawning unit's own decrement, so pending == 0 at any instant
// proves global quiescence; shards still double-check with the activity
// counter before shutting down.
type analyzer struct {
	n       *Node
	shards  []*anShard
	allMask uint64 // bit per shard; shard count is capped at 64

	pending  atomic.Int64
	activity atomic.Int64

	stopping     atomic.Bool
	quiesceOnce  sync.Once
	done         chan struct{}
	shutdownOnce sync.Once

	// injectEnsured dedups the one control message injected stores need: a
	// local store's producer reaches shard 0 via tracker completion, but a
	// store injected from a remote node must materialize its generation's
	// completeness state explicitly.
	injectEnsureMu sync.Mutex
	injectEnsured  map[fieldGen]struct{}

	wg sync.WaitGroup
}

// anShard is one analyzer shard: a goroutine owning the trackers of every
// (kernel, age) pair that hashes to it, its bounded event channel (workers
// and injectors), and an unbounded control mailbox (other shards; posting
// never blocks, so shards cannot deadlock on each other).
type anShard struct {
	sa *analyzer
	n  *Node
	id int

	ch     chan []event
	mboxMu sync.Mutex
	mbox   []ctlMsg
	spare  []ctlMsg
	notify chan struct{} // cap 1: wakeup token for mailbox posts

	// kernelAges holds this shard's trackers, per kernel and age.
	kernelAges map[*kernelState]map[int]*ageTracker

	// complete is the shard's field-generation completeness replica, updated
	// only by ctlFieldComplete broadcasts; the intra-shard total order of
	// tracker creation vs. broadcast processing makes bindsDone and
	// whole-fetch satisfaction count exactly once.
	complete map[fieldGen]bool
	// ensured dedups ctlEnsure posts to shard 0.
	ensured map[fieldGen]bool

	// slicer carves this shard's ready instances into slices. readied counts
	// the instances marked ready since the last commitReady — the shard's
	// not-yet-published share of sa.pending.
	slicer  slicer
	readied int64

	// Instrumentation: per-shard event and busy-time
	// accounting plus high-water marks, max-aggregated across shards by
	// stats() so concurrent shards cannot understate a report column.
	events     counterWithBaseline
	backlogMax *obs.Gauge // nil-safe
	hAnalyze   histWithBase
	maxQueue   int
	maxBacklog int
	busyNs     int64

	// Scratch buffers (per shard, so satisfaction checks never allocate).
	idxBuf    []int
	elemBuf   [4]int
	satCoords []int
	satConstr []bool
}

// scratch returns an index-evaluation buffer of length k.
func (s *anShard) scratch(k int) []int {
	if cap(s.idxBuf) < k {
		s.idxBuf = make([]int, k)
	}
	return s.idxBuf[:k]
}

func newAnalyzer(n *Node, shards int) *analyzer {
	if shards < 1 {
		shards = 1
	}
	sa := &analyzer{
		n:             n,
		done:          make(chan struct{}),
		allMask:       uint64(1)<<uint(shards) - 1,
		injectEnsured: make(map[fieldGen]struct{}),
	}
	buf := max(eventChanBatches/shards, eventFlushThreshold)
	sa.shards = make([]*anShard, shards)
	for i := range sa.shards {
		s := &anShard{
			sa: sa, n: n, id: i,
			ch:         make(chan []event, buf),
			notify:     make(chan struct{}, 1),
			kernelAges: make(map[*kernelState]map[int]*ageTracker),
			complete:   make(map[fieldGen]bool),
			ensured:    make(map[fieldGen]bool),
			events:     newBaselined(n.reg.Counter(obs.Label(obs.MAnalyzerShardEvents, "shard", strconv.Itoa(i)))),
		}
		if n.opts.Metrics != nil {
			s.backlogMax = n.reg.Gauge(obs.Label(obs.MAnalyzerShardBacklogMax, "shard", strconv.Itoa(i)))
			s.hAnalyze = newHistBase(n.reg.Histogram(obs.Label(obs.MStageAnalyzeNs, "shard", strconv.Itoa(i))))
		}
		s.slicer = slicer{n: n, push: s.pushSlices}
		sa.shards[i] = s
	}
	return sa
}

// shardOf maps a (kernel, age) pair to its owning shard.
func (sa *analyzer) shardOf(ks *kernelState, age int) int {
	if len(sa.shards) == 1 {
		return 0
	}
	h := uint64(ks.idx)*0x9E3779B97F4A7C15 + uint64(uint32(age))*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return int(h % uint64(len(sa.shards)))
}

// shardMaskForStore returns the set of shards a store event to generation g
// concerns: owners of consumer trackers whose element-fetch satisfaction
// (and, when the store grew the field, index-range growth) can depend on it.
// An empty mask means the event is dropped at the emitter — whole and slab
// fetches are satisfied by the completeness broadcast, not by store events.
func (sa *analyzer) shardMaskForStore(fs *fieldState, g int, grew bool) uint64 {
	if fs.elemBroadcast || (grew && fs.growBroadcast) {
		return sa.allMask
	}
	var m uint64
	for _, r := range fs.elemRoutes {
		if a := g - r.off; a >= 0 {
			m |= 1 << uint(sa.shardOf(r.ks, a))
		}
	}
	if grew {
		for _, r := range fs.growRoutes {
			if a := g - r.off; a >= 0 {
				m |= 1 << uint(sa.shardOf(r.ks, a))
			}
		}
	}
	return m
}

// post delivers a control message to a shard's mailbox. It never blocks: the
// mailbox is unbounded and the notify token is best-effort (a shard drains
// its whole mailbox per wakeup).
func (sa *analyzer) post(to int, m ctlMsg) {
	sa.pending.Add(1)
	sa.activity.Add(1)
	s := sa.shards[to]
	s.mboxMu.Lock()
	s.mbox = append(s.mbox, m)
	s.mboxMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (sa *analyzer) broadcast(m ctlMsg) {
	for i := range sa.shards {
		sa.post(i, m)
	}
}

// run executes the analyzer to quiescence (or Stop/failure): it posts
// the bootstrap trackers, starts the shard goroutines and waits them out.
func (sa *analyzer) run() {
	sa.bootstrap()
	for _, s := range sa.shards {
		sa.wg.Add(1)
		go s.run()
	}
	sa.wg.Wait()
}

// bootstrap creates the trackers that exist before any event: run-once
// kernels and age 0 of source kernels, each on its owning shard.
func (sa *analyzer) bootstrap() {
	for _, ks := range sa.n.order {
		if ks.remote {
			continue
		}
		switch {
		case ks.decl.RunOnce():
			sa.post(sa.shardOf(ks, 0), ctlMsg{kind: ctlCreateTracker, ks: ks})
		case ks.decl.Source():
			sa.post(sa.shardOf(ks, 0), ctlMsg{kind: ctlCreateSource, ks: ks, age: 0})
		}
	}
}

// triggerShutdown moves the whole analyzer to the shutdown phase exactly once.
func (sa *analyzer) triggerShutdown() {
	sa.quiesceOnce.Do(func() {
		sa.stopping.Store(true)
		close(sa.done)
	})
}

func (sa *analyzer) shuttingDown() bool { return sa.stopping.Load() }

// injectEnsure materializes completeness state for a generation stored from
// outside the node (deduped node-wide; see analyzer.injectEnsured).
func (sa *analyzer) injectEnsure(fs *fieldState, g int) {
	key := fieldGen{fs, g}
	sa.injectEnsureMu.Lock()
	_, seen := sa.injectEnsured[key]
	if !seen {
		sa.injectEnsured[key] = struct{}{}
	}
	sa.injectEnsureMu.Unlock()
	if !seen {
		sa.post(0, ctlMsg{kind: ctlEnsure, fs: fs, age: g})
	}
}

// run is one shard's main loop: drain the control mailbox and event channel,
// flush partial dispatch batches at lulls, detect quiescence, block.
func (s *anShard) run() {
	defer s.sa.wg.Done()
	sa := s.sa
	for {
		s.drainMbox()
		if !s.drainCh() {
			// Channel closed: shutdown already completed elsewhere.
			s.discardMbox()
			return
		}
		if sa.shuttingDown() {
			break
		}
		if s.n.failed() {
			sa.triggerShutdown()
			break
		}
		s.slicer.drain()
		if !s.n.opts.NoAutoQuiesce && sa.pending.Load() == 0 {
			// Two-phase check: pending can only be 0 when no unit of work
			// exists anywhere (increments precede the spawning unit's
			// decrement); the activity recheck guards the read pair.
			act := sa.activity.Load()
			if sa.pending.Load() == 0 && sa.activity.Load() == act {
				sa.triggerShutdown()
				break
			}
		}
		select {
		case evs, ok := <-s.ch:
			if !ok {
				s.discardMbox()
				return
			}
			s.handleBatch(evs)
		case <-s.notify:
		case <-sa.done:
		}
	}
	s.shutdown()
}

// shutdown closes the scheduler (workers exit once they drain it), arranges
// for the event channels to close after the workers stop, and discards the
// remaining inflow so no worker blocks on a full channel during teardown.
func (s *anShard) shutdown() {
	s.sa.shutdownOnce.Do(func() {
		s.n.sched.Close()
		s.n.closeEventsWhenWorkersExit()
	})
	for evs := range s.ch {
		putEventBuf(evs)
	}
	s.discardMbox()
}

// drainMbox processes every queued control message (including ones posted to
// this shard while processing).
func (s *anShard) drainMbox() {
	for {
		// The emptiness check must precede the swap: swapping on an empty
		// mailbox and returning would leave spare and mbox sharing one backing
		// array, and concurrent posts would then overwrite messages mid-drain.
		s.mboxMu.Lock()
		if len(s.mbox) == 0 {
			s.mboxMu.Unlock()
			return
		}
		ms := s.mbox
		s.mbox = s.spare[:0]
		s.mboxMu.Unlock()
		var t0 time.Time
		if s.n.stamp {
			t0 = time.Now()
		}
		for i := range ms {
			s.handleCtl(&ms[i])
			s.sa.pending.Add(-1)
		}
		if s.n.stamp {
			s.observeBusy(time.Since(t0))
		}
		s.spare = ms
	}
}

// discardMbox drops queued control messages during shutdown.
func (s *anShard) discardMbox() {
	s.mboxMu.Lock()
	s.mbox = nil
	s.mboxMu.Unlock()
}

// drainCh processes every event batch currently buffered without blocking;
// false once the channel is closed.
func (s *anShard) drainCh() bool {
	for {
		select {
		case evs, ok := <-s.ch:
			if !ok {
				return false
			}
			s.handleBatch(evs)
		default:
			return true
		}
	}
}

func (s *anShard) observeBusy(d time.Duration) {
	s.busyNs += d.Nanoseconds()
	if s.hAnalyze.enabled() {
		s.hAnalyze.Observe(d)
	}
}

// handleBatch processes one flushed batch of events and recycles the slice.
func (s *anShard) handleBatch(evs []event) {
	var t0 time.Time
	if s.n.stamp {
		t0 = time.Now()
	}
	if backlog := len(s.ch); backlog > s.maxBacklog {
		s.maxBacklog = backlog
		s.backlogMax.SetMax(int64(backlog))
	}
	s.events.Add(int64(len(evs)))
	for i := range evs {
		if s.sa.shuttingDown() {
			break
		}
		s.handle(&evs[i])
	}
	putEventBuf(evs)
	if s.n.stamp {
		s.observeBusy(time.Since(t0))
	}
	s.sa.pending.Add(-1)
}

func (s *anShard) handle(ev *event) {
	switch {
	case ev.stop:
		s.sa.triggerShutdown()
		return
	case ev.remoteDone != nil:
		s.handleRemoteDone(ev.remoteDone, ev.age)
	case ev.isDone:
		s.handleDone(ev)
	default:
		s.handleStore(ev)
	}
	s.flushReady()
}

func (s *anShard) handleCtl(m *ctlMsg) {
	switch m.kind {
	case ctlEnsure:
		s.fieldAge(m.fs, m.age)
	case ctlTrackerComplete:
		s.onTrackerComplete(m.t)
	case ctlFieldComplete:
		s.onFieldComplete(m.fs, m.age)
	case ctlCreateTracker:
		s.ensureTracker(m.ks, 0)
	case ctlCreateSource:
		s.sourceTracker(m.ks, m.age)
	}
	s.flushReady()
}

// fieldAge returns (creating on demand) the completeness state of one field
// generation. Only shard 0 — the completion authority — may call it; other
// shards post ctlEnsure. A generation with no relevant producers completes
// immediately.
func (s *anShard) fieldAge(fs *fieldState, g int) *fieldAgeState {
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
		s.markComplete(fs, g, fa)
	}
	return fa
}

// markComplete finalizes a complete field generation on shard 0 and
// broadcasts it; each shard (including 0) reacts in onFieldComplete.
func (s *anShard) markComplete(fs *fieldState, g int, fa *fieldAgeState) {
	fa.complete = true
	fs.f.MarkComplete(g)
	s.sa.broadcast(ctlMsg{kind: ctlFieldComplete, fs: fs, age: g})
}

// ensureFieldGen makes sure completeness state for (fs, g) exists on shard 0,
// deduping repeat requests through the replica and the ensured set.
func (s *anShard) ensureFieldGen(fs *fieldState, g int) {
	key := fieldGen{fs, g}
	if s.complete[key] || s.ensured[key] {
		return
	}
	s.ensured[key] = true
	if s.id == 0 {
		s.fieldAge(fs, g)
	} else {
		s.sa.post(0, ctlMsg{kind: ctlEnsure, fs: fs, age: g})
	}
}

// handleRemoteDone (shard 0) propagates a remote kernel-age completion — of
// one share, for a split kernel: every field generation it stores to counts
// it as done, and so does every paced source waiting for it.
func (s *anShard) handleRemoteDone(ks *kernelState, age int) {
	s.producersDone(ks, age, 1)
	s.paceArrive(ks, age)
}

// producersDone (shard 0) counts shares of kernel ks done at age toward the
// completeness of every field generation it stores to.
func (s *anShard) producersDone(ks *kernelState, age, shares int) {
	for i := range ks.decl.Stores {
		ss := &ks.decl.Stores[i]
		g := ss.Age.Eval(age)
		fs := s.n.fields[ss.Field]
		fa := s.fieldAge(fs, g)
		fa.producersDone += shares
		if fa.producersDone == fa.expected && !fa.complete {
			s.markComplete(fs, g, fa)
		}
	}
}

// ensureTracker returns the tracker for (kernel, age), creating it — with a
// full satisfaction scan over current field state — when it does not exist.
// The caller must be the owning shard. Field extents are read through the
// field's own lock; any store racing the scan re-arrives as a routed event,
// where growth and satisfaction re-checks are idempotent.
func (s *anShard) ensureTracker(ks *kernelState, age int) (*ageTracker, bool) {
	if age < 0 || age > s.n.opts.MaxAge || age > s.n.kernelMaxAge(ks) {
		return nil, false
	}
	ages := s.kernelAges[ks]
	if t := ages[age]; t != nil {
		return t, false
	}
	if ks.remote || ks.decl.Source() || (ks.decl.RunOnce() && age != 0) {
		return nil, false
	}
	t := &ageTracker{ks: ks, age: age, extents: make([]int, len(ks.binds))}
	if ks.needsInstMap {
		t.inst = make(map[int64]*instState)
	}
	if ages == nil {
		ages = make(map[int]*ageTracker)
		s.kernelAges[ks] = ages
	}
	ages[age] = t
	bindDone := 0
	for i, b := range ks.binds {
		ga := b.age.Eval(age)
		t.extents[i] = b.fs.f.Extent(ga, b.dim)
		s.ensureFieldGen(b.fs, ga)
		if s.complete[fieldGen{b.fs, ga}] {
			bindDone++
		}
	}
	t.bindsDone = bindDone
	t.domainFinal = bindDone == len(ks.binds)
	if len(ks.binds) == 0 {
		s.createSingle(t)
	} else {
		from := make([]int, len(ks.binds))
		s.createInstances(t, from, t.extents)
	}
	s.maybeTrackerDone(t)
	return t, true
}

// sourceTracker creates the single-instance tracker for a source kernel at
// the given age; the instance is immediately runnable.
func (s *anShard) sourceTracker(ks *kernelState, age int) {
	if age > s.n.opts.MaxAge || age > s.n.kernelMaxAge(ks) || s.kernelAges[ks][age] != nil {
		return
	}
	t := &ageTracker{ks: ks, age: age, domainFinal: true}
	if ks.needsInstMap {
		t.inst = make(map[int64]*instState)
	}
	ages := s.kernelAges[ks]
	if ages == nil {
		ages = make(map[int]*ageTracker)
		s.kernelAges[ks] = ages
	}
	ages[age] = t
	s.createSingle(t)
}

// burstMask hoists the per-creation-burst part of initial satisfaction: the
// whole/slab fetch bits, which depend only on the completeness replica, are
// computed once per tracker creation or growth burst instead of per instance.
// elems reports whether element fetches remain to check per instance.
func (s *anShard) burstMask(t *ageTracker) (mask0 uint32, elems bool) {
	ks := t.ks
	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		if fp.slab != nil {
			g := fp.fe.Age.Eval(t.age)
			s.ensureFieldGen(fp.fs, g)
			if s.complete[fieldGen{fp.fs, g}] {
				mask0 |= uint32(1) << uint(i)
			}
		} else {
			elems = true
		}
	}
	return mask0, elems
}

func (s *anShard) createSingle(t *ageTracker) {
	mask0, elems := s.burstMask(t)
	s.newInst(t, nil, mask0, elems)
}

func (s *anShard) createInstances(t *ageTracker, from, to []int) {
	mask0, elems := s.burstMask(t)
	// Presize the tracker's instance lists for the whole burst: the new-cell
	// count is known up front, and growing element-by-element through append
	// is a measurable share of the analyzer's allocations.
	if add := boxCells(to) - boxCells(from); add > 0 {
		if t.inst == nil && cap(t.all)-len(t.all) < add {
			grown := make([]*instState, len(t.all), len(t.all)+add)
			copy(grown, t.all)
			t.all = grown
		}
		if cap(t.ready)-len(t.ready) < add {
			grown := make([]*instState, len(t.ready), len(t.ready)+add)
			copy(grown, t.ready)
			t.ready = grown
		}
	}
	newCells(from, to, func(c []int) {
		if t.ks.owns(c[0]) {
			s.newInst(t, c, mask0, elems)
		}
	})
}

// newInst registers one instance with the burst's hoisted whole/slab mask and
// checks its element fetches against current field contents.
func (s *anShard) newInst(t *ageTracker, coords []int, mask0 uint32, elems bool) {
	var is *instState
	if s.n.tracer == nil {
		is = instPool.Get().(*instState)
		is.coords = append(is.coords[:0], coords...)
		is.mask, is.st, is.readyNs, is.createdNs = mask0, instWaiting, 0, 0
	} else {
		is = &instState{coords: append([]int(nil), coords...), mask: mask0}
	}
	if s.n.stamp {
		is.createdNs = s.n.nowNs()
	}
	if t.inst != nil {
		t.inst[coordKey(coords)] = is
	} else {
		t.all = append(t.all, is)
	}
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
			idx := evalTerms(s.scratch(len(fp.terms)), fp.terms, is.coords)
			if _, ok := fp.fs.f.At(g, idx...); ok {
				is.mask |= bit
			}
		}
	}
	if is.mask == ks.fullMask {
		s.markReady(t, is)
	}
}

// markReady hands a fully satisfied instance to the slicer. The quiescence
// count has to include it before the unit of work that readied it is counted
// out, so that a shard holding unreleased remainders can never be mistaken
// for quiescent by a peer; the increments are gathered in readied and
// published by commitReady, once per event rather than once per instance.
func (s *anShard) markReady(t *ageTracker, is *instState) {
	is.st = instQueued
	if s.n.stamp {
		is.readyNs = s.n.nowNs()
		t.ks.stageReady.Observe(time.Duration(is.readyNs - is.createdNs))
	}
	s.readied++
	s.slicer.ready(t, is)
}

// commitReady publishes the ready instances gathered since the last call to
// the quiescence count. It runs before any of them reaches the scheduler
// (pushSlices) — a worker's done event must never count an instance out
// before it was counted in — and at the end of every event and control
// message (flushReady), ahead of that unit's own decrement.
func (s *anShard) commitReady() {
	if s.readied > 0 {
		s.sa.pending.Add(s.readied)
		s.readied = 0
	}
}

// setBit records that one fetch of one instance is satisfied.
func (s *anShard) setBit(t *ageTracker, is *instState, bit uint32) {
	if is.st != instWaiting || is.mask&bit != 0 {
		return
	}
	is.mask |= bit
	if is.mask == t.ks.fullMask {
		s.markReady(t, is)
	}
}

// flushReady ends an event or control message: the instances it readied join
// the quiescence count and the full slices carved from them go to the
// scheduler. Remainders wait for a lull (slicer.drain).
func (s *anShard) flushReady() {
	s.commitReady()
	s.slicer.flush()
}

// pushSlices is the slicer's delivery hook: one PushBulk (single epoch update
// and waiter wakeup) for the group.
func (s *anShard) pushSlices(bs []*batch) {
	s.commitReady()
	s.n.sched.PushBulk(bs)
	if depth := s.n.sched.Len(); depth > s.maxQueue {
		s.maxQueue = depth
	}
	s.updateGauges()
}

// updateGauges refreshes the node's scheduler gauges; all handles are nil
// (no-ops) unless detailed metrics are enabled.
func (s *anShard) updateGauges() {
	n := s.n
	if n.gQueue == nil {
		return
	}
	n.gQueue.Set(int64(n.sched.Len()))
	n.gBacklog.Set(int64(len(s.ch)))
	n.gOutstand.Set(s.sa.pending.Load())
}

// handleDone processes a finished slice: its instances are done, the slice
// header is recycled, source kernels continue at the next age, and the
// kernel-age may be complete. The quiescence decrement — one for the whole
// slice — comes last, after every message the completion spawns has been
// posted.
func (s *anShard) handleDone(ev *event) {
	t, k := s.n.retireSlice(ev.b)
	ks := t.ks
	if ks.decl.Source() {
		if ev.stopped || ev.stores == 0 {
			ks.sourceStopped = true
		} else if ks.pace == nil {
			s.startSource(ks, t.age+1)
		}
	}
	s.maybeTrackerDone(t)
	s.updateGauges()
	s.sa.pending.Add(-int64(k))
}

// startSource creates source kernel ks's tracker at age on its owning shard.
func (s *anShard) startSource(ks *kernelState, age int) {
	if to := s.sa.shardOf(ks, age); to == s.id {
		s.sourceTracker(ks, age)
	} else {
		s.sa.post(to, ctlMsg{kind: ctlCreateSource, ks: ks, age: age})
	}
}

func (s *anShard) maybeTrackerDone(t *ageTracker) {
	if t.completed || !t.domainFinal || t.done != t.total || t.uncarved() != 0 {
		return
	}
	t.completed = true
	if s.n.tracer == nil {
		// Recycle the instance structs (safe: every instance is done, so no
		// worker or batch will read them again). With tracing on they must
		// survive — recorded spans alias their coords.
		for _, is := range t.inst {
			instPool.Put(is)
		}
		for _, is := range t.all {
			instPool.Put(is)
		}
	}
	t.inst, t.all, t.ready, t.head = nil, nil, nil, 0
	if s.id == 0 {
		s.onTrackerComplete(t)
	} else {
		s.sa.post(0, ctlMsg{kind: ctlTrackerComplete, t: t})
	}
}

// onTrackerComplete (shard 0) propagates a finished kernel-age: producer
// accounting on stored fields, consumer accounting (garbage collection) on
// fetched fields, and a paced source's own half of its wait.
func (s *anShard) onTrackerComplete(t *ageTracker) {
	ks := t.ks
	if cb := s.n.opts.OnKernelDone; cb != nil {
		cb(ks.decl.Name, t.age)
	}
	if tr := s.n.tracer; tr != nil {
		tr.Record(obs.Span{
			Name: ks.decl.Name + " done", Cat: "lifecycle", Ph: obs.PhaseInstant,
			TS: tr.Now(), Age: t.age,
		})
	}
	if s.n.gFieldMem != nil {
		s.n.gFieldMem.Set(int64(s.n.FieldMemoryElems()))
	}
	s.producersDone(ks, t.age, ks.ownN)
	if ks.pace != nil && !ks.sourceStopped {
		s.paceStep(ks, t.age, 0, true)
	}
	for i := range ks.decl.Fetches {
		fe := &ks.decl.Fetches[i]
		if !fe.Age.HasVar {
			continue // absolute-age fetches pin the generation forever
		}
		g := fe.Age.Eval(t.age)
		fs := s.n.fields[fe.Field]
		fa := s.fieldAge(fs, g)
		fa.consumersDone++
		s.gcCheck(fs, g, fa)
	}
}

// handleStore processes a store event on every shard it was routed to:
// domain growth for kernels whose index range the field defines, then fetch
// satisfaction for element-fetch consumers. There is no completeness
// bookkeeping here — that is shard 0's job, reached through tracker
// completion.
func (s *anShard) handleStore(ev *event) {
	if ev.grew {
		for _, re := range ev.fs.rangeOf {
			s.forTrackers(re.ks, re.age, ev.age, true, func(t *ageTracker) {
				s.growTracker(t, re.varIdx, ev.ext.at(re.dim))
			})
		}
	}
	var elem []int
	if !ev.whole {
		elem = ev.elem.get(&s.elemBuf)
	}
	for _, ce := range ev.fs.consumers {
		if ce.terms == nil {
			continue // whole/slab fetches are satisfied by completeness, not stores
		}
		s.forTrackers(ce.ks, ce.fetch.Age, ev.age, true, func(t *ageTracker) {
			if ev.whole {
				s.scanSatisfy(t, ce)
			} else {
				s.satisfyElem(t, ce, elem)
			}
		})
	}
}

// forTrackers visits this shard's trackers of ks whose fetch/store age
// expression ae maps to field generation g. Trackers owned by other shards
// are skipped — the event or broadcast reaches them there. Freshly created
// trackers are not visited: their creation scan already covers current state.
func (s *anShard) forTrackers(ks *kernelState, ae core.AgeExpr, g int, ensure bool, visit func(*ageTracker)) {
	if ae.HasVar {
		a := g - ae.Offset
		if s.sa.shardOf(ks, a) != s.id {
			return
		}
		var t *ageTracker
		var created bool
		if ensure {
			t, created = s.ensureTracker(ks, a)
		} else {
			t = s.kernelAges[ks][a]
		}
		if t != nil && !created {
			visit(t)
		}
		return
	}
	if ae.Offset != g {
		return
	}
	for _, t := range s.kernelAges[ks] {
		visit(t)
	}
}

// growTracker extends the domain of one index variable and creates the new
// instances.
func (s *anShard) growTracker(t *ageTracker, varIdx, newExt int) {
	if t.completed || newExt <= t.extents[varIdx] {
		return
	}
	var fromBuf [4]int
	from := append(fromBuf[:0], t.extents...)
	t.extents[varIdx] = newExt
	s.createInstances(t, from, t.extents)
}

// satisfyElem marks the fetch bit of every instance whose fetch coordinates
// match a stored element (only reachable for kernels with element fetches,
// which always carry an instance map).
func (s *anShard) satisfyElem(t *ageTracker, ce consEdge, elem []int) {
	if t.completed {
		return
	}
	nv := len(t.ks.decl.IndexVars)
	if cap(s.satCoords) < nv {
		s.satCoords = make([]int, nv)
		s.satConstr = make([]bool, nv)
	}
	coords, constrained := s.satCoords[:nv], s.satConstr[:nv]
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
	s.enumerate(t, coords, constrained, 0, ce.fetchBit)
}

func (s *anShard) enumerate(t *ageTracker, coords []int, constrained []bool, d int, bit uint32) {
	if d == len(coords) {
		if is := t.inst[coordKey(coords)]; is != nil {
			s.setBit(t, is, bit)
		}
		return
	}
	if constrained[d] {
		s.enumerate(t, coords, constrained, d+1, bit)
		return
	}
	for c := 0; c < t.extents[d]; c++ {
		coords[d] = c
		s.enumerate(t, coords, constrained, d+1, bit)
	}
	coords[d] = 0
}

// scanSatisfy re-checks one element fetch against current field contents for
// every instance that still misses it (used after whole/slab stores, which
// cover many elements with one event).
func (s *anShard) scanSatisfy(t *ageTracker, ce consEdge) {
	if t.completed {
		return
	}
	g := ce.fetch.Age.Eval(t.age)
	fs := s.n.fields[ce.fetch.Field]
	for _, is := range t.inst {
		if is.st != instWaiting || is.mask&ce.fetchBit != 0 {
			continue
		}
		idx := evalTerms(s.scratch(len(ce.terms)), ce.terms, is.coords)
		if _, ok := fs.f.At(g, idx...); ok {
			s.setBit(t, is, ce.fetchBit)
		}
	}
}

// onFieldComplete runs on every shard when a field generation completes:
// update the completeness replica, satisfy whole/slab fetches of this shard's
// trackers, finalize index domains bound to the field. Shard 0 additionally
// owns the garbage-collection check.
func (s *anShard) onFieldComplete(fs *fieldState, g int) {
	key := fieldGen{fs, g}
	if s.complete[key] {
		return
	}
	// Flip the replica first: a tracker created by the ensure below then
	// counts this generation in its creation scan and is skipped by
	// forTrackers, keeping bindsDone and satisfaction exactly-once.
	s.complete[key] = true
	for _, ce := range fs.consumers {
		if ce.terms != nil {
			continue
		}
		s.forTrackers(ce.ks, ce.fetch.Age, g, true, func(t *ageTracker) {
			if t.completed {
				return
			}
			for _, is := range t.inst {
				s.setBit(t, is, ce.fetchBit)
			}
			for _, is := range t.all {
				s.setBit(t, is, ce.fetchBit)
			}
		})
	}
	for _, re := range fs.rangeOf {
		reVar := re.varIdx
		s.forTrackers(re.ks, re.age, g, true, func(t *ageTracker) {
			if t.completed {
				return
			}
			// Sync the final extent (stores processed earlier already grew
			// the domain; this is a no-op safeguard).
			s.growTracker(t, reVar, fs.f.Extent(g, re.dim))
			t.bindsDone++
			if t.bindsDone == len(t.ks.binds) {
				t.domainFinal = true
				s.maybeTrackerDone(t)
			}
		})
	}
	if s.id == 0 {
		s.gcCheck(fs, g, fs.ages[g])
	}
}

// gcCheck (shard 0) garbage collects a field generation once it is complete
// and every age-variable consumer kernel-age has finished with it. Safe under
// sharding: consumer completions arrive here via ctlTrackerComplete, so when
// the count is reached the owning shards have already stopped scanning it.
func (s *anShard) gcCheck(fs *fieldState, g int, fa *fieldAgeState) {
	if !s.n.opts.GC || fa == nil || fa.collected {
		return
	}
	if !fa.complete || fs.absConsumers > 0 || fs.agedConsumers == 0 {
		return
	}
	if fa.consumersDone >= fs.agedConsumers {
		fa.collected = true
		fs.f.DropAge(g)
	}
}

// stalled describes every kernel-age that never completed, across all shards.
func (sa *analyzer) stalled() []string {
	var out []string
	for _, s := range sa.shards {
		for ks, ages := range s.kernelAges {
			for age, t := range ages {
				if !t.completed {
					var masks string
					for _, is := range t.inst {
						masks += fmt.Sprintf(" inst%v mask=%b st=%d", is.coords, is.mask, is.st)
					}
					for _, is := range t.all {
						masks += fmt.Sprintf(" all%v mask=%b st=%d", is.coords, is.mask, is.st)
					}
					out = append(out, fmt.Sprintf("%s(age=%d): %d/%d instances done, domainFinal=%v shard=%d%s",
						ks.decl.Name, age, t.done, t.total, t.domainFinal, s.id, masks))
				}
			}
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
