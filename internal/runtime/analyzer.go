package runtime

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// event is the message kernel instances send to the dependency analyzer. The
// paper's prototype is "a push-based system using event subscriptions on
// field operations": store statements emit events, and the analyzer — running
// in its own dedicated goroutine — derives every new valid combination of age
// and index variables that became runnable. Workers buffer events locally and
// flush them in batches (one channel send per batch); see workerState.
type event struct {
	isDone bool

	// store event fields
	fs  *fieldState
	age int
	// Element coordinates are inlined (coordKey already limits coordinates
	// to four 16-bit dimensions) so emitting a store event never allocates;
	// elemBig is the escape hatch for deeper manually-built coordinates.
	elemBuf [4]int32
	elemN   uint8
	elemBig []int
	whole   bool
	grew    bool
	extents []int

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

// setElem records element coordinates inline when they fit the buffer.
func (ev *event) setElem(idx []int) {
	if len(idx) <= len(ev.elemBuf) {
		fits := true
		for i, c := range idx {
			if c != int(int32(c)) {
				fits = false
				break
			}
			ev.elemBuf[i] = int32(c)
		}
		if fits {
			ev.elemN = uint8(len(idx))
			return
		}
	}
	ev.elemBig = append([]int(nil), idx...)
}

// elem decodes the element coordinates into dst scratch (valid only for
// non-whole store events).
func (ev *event) elem(dst *[4]int) []int {
	if ev.elemBig != nil {
		return ev.elemBig
	}
	for i := 0; i < int(ev.elemN); i++ {
		dst[i] = int(ev.elemBuf[i])
	}
	return dst[:ev.elemN]
}

type actionKind uint8

const (
	actFieldComplete actionKind = iota
	actTrackerComplete
)

type action struct {
	kind actionKind
	fs   *fieldState
	age  int
	t    *ageTracker
}

// analyzer is the dependency analyzer half of the low-level scheduler. It is
// single-threaded by design (the paper's §VIII-B attributes the K-means
// scaling limit to exactly this serial component).
type analyzer struct {
	n             *Node
	actions       []action
	stopRequested bool
	// outstanding counts instances handed to the ready queue whose done
	// event has not yet been processed. Quiescence is outstanding == 0
	// with no pending events or unflushed ready instances.
	outstanding int
	slicer      slicer

	// High-water marks for the report's queue columns (backlog counts event
	// batches, the channel's unit).
	maxQueue   int
	maxBacklog int

	// Scratch buffers for precompiled index evaluation, so satisfaction
	// checks never allocate coordinate slices.
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
	an := &analyzer{n: n}
	an.slicer = slicer{n: n, push: an.pushSlices}
	return an
}

// run is the analyzer main loop. It returns once the node quiesces (no
// runnable or running instances remain) or a kernel failed.
func (an *analyzer) run() {
	an.bootstrap()
	for !an.stopRequested {
		// Drain everything currently available.
		draining := true
		for draining && !an.stopRequested {
			select {
			case evs, ok := <-an.n.events:
				if !ok {
					return
				}
				an.handleBatch(evs)
			default:
				draining = false
			}
		}
		if an.n.failed() || an.stopRequested {
			break
		}
		// Lull: release partially filled slices, then check for
		// quiescence. Distributed nodes (NoAutoQuiesce) keep waiting for
		// remote events instead of terminating.
		an.slicer.drain()
		if an.outstanding == 0 && !an.n.opts.NoAutoQuiesce {
			break
		}
		evs, ok := <-an.n.events
		if !ok {
			return
		}
		an.handleBatch(evs)
	}
	an.shutdown()
}

// handleBatch processes one flushed batch of events and recycles the slice.
func (an *analyzer) handleBatch(evs []event) {
	if backlog := len(an.n.events); backlog > an.maxBacklog {
		an.maxBacklog = backlog
	}
	for i := range evs {
		if an.stopRequested {
			break
		}
		an.handle(&evs[i])
	}
	putEventBuf(evs)
}

// shutdown closes the ready queue (workers exit once they drain it) and
// consumes remaining events until the node closes the channel after all
// workers have stopped; this prevents workers from blocking on a full event
// channel during teardown.
func (an *analyzer) shutdown() {
	an.n.sched.Close()
	an.n.closeEventsWhenWorkersExit()
	for evs := range an.n.events {
		putEventBuf(evs)
	}
}

// bootstrap creates the trackers that exist before any event: run-once
// kernels and age 0 of source kernels.
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
	an.drainActions()
	an.slicer.drain()
}

func (an *analyzer) handle(ev *event) {
	switch {
	case ev.stop:
		an.stopRequested = true
	case ev.remoteDone != nil:
		an.handleRemoteDone(ev.remoteDone, ev.age)
	case ev.isDone:
		an.handleDone(ev)
	default:
		an.handleStore(ev)
	}
	an.drainActions()
	an.slicer.flush()
}

// handleRemoteDone propagates a remote kernel-age completion: every field
// generation it stores to counts the producer as done (the producer half of
// onTrackerComplete; consumer/GC accounting is meaningless for remote
// kernels).
func (an *analyzer) handleRemoteDone(ks *kernelState, age int) {
	for i := range ks.decl.Stores {
		ss := &ks.decl.Stores[i]
		g := ss.Age.Eval(age)
		fs := an.n.fields[ss.Field]
		fa := an.fieldAge(fs, g)
		fa.producersDone++
		if fa.producersDone == fa.expected && !fa.complete {
			fa.complete = true
			fs.f.MarkComplete(g)
			an.push(action{kind: actFieldComplete, fs: fs, age: g})
		}
	}
}

func (an *analyzer) drainActions() {
	for len(an.actions) > 0 {
		a := an.actions[0]
		an.actions = an.actions[1:]
		switch a.kind {
		case actFieldComplete:
			an.onFieldComplete(a.fs, a.age)
		case actTrackerComplete:
			an.onTrackerComplete(a.t)
		}
	}
}

func (an *analyzer) push(a action) { an.actions = append(an.actions, a) }

// fieldAge returns (creating on demand) the completeness state of one field
// generation. A generation with no relevant producers completes immediately:
// no store can ever reach it, so consumers see an empty, final extent.
func (an *analyzer) fieldAge(fs *fieldState, g int) *fieldAgeState {
	if fa := fs.ages[g]; fa != nil {
		return fa
	}
	expected := 0
	for _, pe := range fs.producers {
		ae := pe.store.Age
		if ae.HasVar {
			if g-ae.Offset >= 0 {
				expected++
			}
		} else if ae.Offset == g {
			expected++
		}
	}
	fa := &fieldAgeState{expected: expected}
	fs.ages[g] = fa
	if expected == 0 {
		fa.complete = true
		fs.f.MarkComplete(g)
		an.push(action{kind: actFieldComplete, fs: fs, age: g})
	}
	return fa
}

// ensureTracker returns the tracker for (kernel, age), creating it — with a
// full satisfaction scan over current field state — when it does not exist.
// Source kernels are excluded (their trackers are created sequentially by the
// continuation rule) as are ages outside [0, MaxAge].
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
	t := &ageTracker{
		ks:      ks,
		age:     age,
		extents: make([]int, len(ks.binds)),
		inst:    make(map[int64]*instState),
	}
	ks.ages[age] = t
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
		an.createInstance(t, nil)
	} else {
		from := make([]int, len(ks.binds))
		newCells(from, t.extents, func(c []int) { an.createInstance(t, c) })
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
	t := &ageTracker{ks: ks, age: age, inst: make(map[int64]*instState), domainFinal: true}
	ks.ages[age] = t
	an.createInstance(t, nil)
}

// createInstance registers one instance and computes its initial fetch
// satisfaction from current field state. Instance structs are recycled
// through instPool when tracing is off (the tracer retains coords).
func (an *analyzer) createInstance(t *ageTracker, coords []int) {
	var is *instState
	if an.n.tracer == nil {
		is = instPool.Get().(*instState)
		is.coords = append(is.coords[:0], coords...)
		is.mask, is.st, is.readyNs, is.createdNs = 0, instWaiting, 0, 0
	} else {
		is = &instState{coords: append([]int(nil), coords...)}
	}
	if an.n.stamp {
		is.createdNs = an.n.nowNs()
	}
	t.inst[coordKey(coords)] = is
	t.total++
	ks := t.ks
	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		g := fp.fe.Age.Eval(t.age)
		bit := uint32(1) << uint(i)
		if fp.whole || fp.slab != nil {
			if an.fieldAge(fp.fs, g).complete {
				an.setBit(t, is, bit)
			}
		} else {
			idx := evalTerms(an.scratch(len(fp.terms)), fp.terms, is.coords)
			if _, ok := fp.fs.f.At(g, idx...); ok {
				an.setBit(t, is, bit)
			}
		}
	}
	if ks.fullMask == 0 {
		an.setBit(t, is, 0) // no fetches: immediately runnable
	}
}

// setBit records that one fetch of one instance is satisfied; when all
// fetches are satisfied the instance joins the tracker's ready list.
func (an *analyzer) setBit(t *ageTracker, is *instState, bit uint32) {
	if is.st != instWaiting {
		return
	}
	if bit != 0 {
		if is.mask&bit != 0 {
			return
		}
		is.mask |= bit
	}
	if is.mask == t.ks.fullMask {
		is.st = instQueued
		if an.n.stamp {
			is.readyNs = an.n.nowNs()
			t.ks.stageReady.Observe(time.Duration(is.readyNs - is.createdNs))
		}
		an.slicer.ready(t, is)
	}
}

// pushSlices is the slicer's delivery hook: account the slices' instances as
// outstanding and hand them to the scheduler.
func (an *analyzer) pushSlices(bs []*batch) {
	for _, b := range bs {
		an.outstanding += len(b.insts)
		an.n.outstandingMirror.Add(int64(len(b.insts)))
	}
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
	n.gBacklog.Set(int64(len(n.events)))
	n.gOutstand.Set(int64(an.outstanding))
}

func (an *analyzer) maybeTrackerDone(t *ageTracker) {
	if t.completed || !t.domainFinal || t.done != t.total || t.uncarved() != 0 {
		return
	}
	t.completed = true
	an.push(action{kind: actTrackerComplete, t: t})
}

// handleDone processes a finished slice: its instances are done, the slice
// header is recycled, source kernels continue at the next age, and the
// kernel-age may be complete.
func (an *analyzer) handleDone(ev *event) {
	t, k := an.n.retireSlice(ev.b)
	ks := t.ks
	an.outstanding -= k
	an.n.outstandingMirror.Add(-int64(k))
	an.updateGauges()
	if ks.decl.Source() {
		if ev.stopped || ev.stores == 0 {
			ks.sourceStopped = true
		} else {
			an.sourceTracker(ks, t.age+1)
		}
	}
	an.maybeTrackerDone(t)
	an.drainActions()
}

// handleStore processes a store event: domain growth for kernels whose index
// range the field defines, then fetch satisfaction for consumers.
func (an *analyzer) handleStore(ev *event) {
	an.fieldAge(ev.fs, ev.age)
	if ev.grew {
		for _, re := range ev.fs.rangeOf {
			an.forTrackers(re.ks, re.age, ev.age, true, func(t *ageTracker) {
				an.growTracker(t, re.varIdx, ev.extents[re.dim])
			})
		}
	}
	var elem []int
	if !ev.whole {
		elem = ev.elem(&an.elemBuf)
	}
	for _, ce := range ev.fs.consumers {
		if ce.fetch.Whole() || ce.fetch.Slab() {
			continue // whole/slab fetches are satisfied by completeness, not stores
		}
		an.forTrackers(ce.ks, ce.fetch.Age, ev.age, true, func(t *ageTracker) {
			if ev.whole {
				an.scanSatisfy(t, ce)
			} else {
				an.satisfyElem(t, ce, elem)
			}
		})
	}
}

// forTrackers visits the trackers of ks whose fetch/store age expression ae
// maps to field generation g. For age-variable expressions that is a single
// tracker (created on demand when ensure is true); for absolute expressions
// it is every existing tracker. Freshly created trackers are not visited —
// their creation scan already covers current field state.
func (an *analyzer) forTrackers(ks *kernelState, ae core.AgeExpr, g int, ensure bool, visit func(*ageTracker)) {
	if ae.HasVar {
		a := g - ae.Offset
		var t *ageTracker
		var created bool
		if ensure {
			t, created = an.ensureTracker(ks, a)
		} else {
			t = ks.ages[a]
		}
		if t != nil && !created {
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
// instances (the paper's "implicit resize can lead to additional kernel
// instances being dispatched").
func (an *analyzer) growTracker(t *ageTracker, varIdx, newExt int) {
	if t.completed || newExt <= t.extents[varIdx] {
		return
	}
	from := append([]int(nil), t.extents...)
	t.extents[varIdx] = newExt
	newCells(from, t.extents, func(c []int) { an.createInstance(t, c) })
}

// satisfyElem marks the fetch bit of every instance whose fetch coordinates
// match a stored element. Index variables not mentioned in the fetch are
// unconstrained and enumerated over the current domain.
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
// every instance that still misses it (used after whole-field stores, which
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

// onTrackerComplete propagates a finished kernel-age: producer accounting on
// stored fields, consumer accounting (garbage collection) on fetched fields.
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
	for i := range ks.decl.Stores {
		ss := &ks.decl.Stores[i]
		g := ss.Age.Eval(t.age)
		fs := an.n.fields[ss.Field]
		fa := an.fieldAge(fs, g)
		fa.producersDone++
		if fa.producersDone == fa.expected && !fa.complete {
			fa.complete = true
			fs.f.MarkComplete(g)
			an.push(action{kind: actFieldComplete, fs: fs, age: g})
		}
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
	if an.n.tracer == nil {
		// Recycle the instance structs (safe: every instance is done, so no
		// worker or batch will read them again). With tracing on they must
		// survive — recorded spans alias their coords.
		for _, is := range t.inst {
			instPool.Put(is)
		}
	}
	t.inst, t.ready, t.head = nil, nil, 0 // instances are no longer needed; free the memory
}

// onFieldComplete propagates a complete field generation: whole-field fetches
// become satisfiable, and index domains bound to the field become final.
func (an *analyzer) onFieldComplete(fs *fieldState, g int) {
	for _, ce := range fs.consumers {
		if !ce.fetch.Whole() && !ce.fetch.Slab() {
			continue
		}
		an.forTrackers(ce.ks, ce.fetch.Age, g, true, func(t *ageTracker) {
			if t.completed {
				return
			}
			for _, is := range t.inst {
				an.setBit(t, is, ce.fetchBit)
			}
		})
	}
	for _, re := range fs.rangeOf {
		reVar := re.varIdx
		an.forTrackers(re.ks, re.age, g, true, func(t *ageTracker) {
			if t.completed {
				return
			}
			// Sync the final extent (stores processed earlier already
			// grew the domain; this is a no-op safeguard).
			an.growTracker(t, reVar, fs.f.Extent(g, re.dim))
			t.bindsDone++
			if t.bindsDone == len(t.ks.binds) {
				t.domainFinal = true
				an.maybeTrackerDone(t)
			}
		})
	}
	fa := fs.ages[g]
	an.gcCheck(fs, g, fa)
}

// gcCheck garbage collects a field generation once it is complete and every
// age-variable consumer kernel-age has finished with it (§IX: "garbage
// collecting old ages"). Generations read through absolute-age fetches are
// pinned forever.
func (an *analyzer) gcCheck(fs *fieldState, g int, fa *fieldAgeState) {
	if !an.n.opts.GC || fa == nil || fa.collected {
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

// stalled describes every kernel-age that never completed — the node
// quiesced with unsatisfied dependencies (a programming error such as
// fetching an element nobody stores).
func (an *analyzer) stalled() []string {
	var out []string
	for _, ks := range an.n.order {
		for age, t := range ks.ages {
			if !t.completed {
				out = append(out, fmt.Sprintf("%s(age=%d): %d/%d instances done, domainFinal=%v",
					ks.decl.Name, age, t.done, t.total, t.domainFinal))
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
