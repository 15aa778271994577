package runtime

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/field"
	"repro/internal/obs"
)

// Options configures an execution node.
type Options struct {
	// Workers is the number of worker goroutines dispatching kernel
	// instances; the dependency analyzer runs on the goroutine that calls
	// Run, on top of these, mirroring the paper's dedicated analyzer thread.
	// Zero selects 1.
	Workers int
	// MaxAge bounds execution: no kernel instance with age > MaxAge is
	// dispatched. Zero or negative means unbounded. Programs with no
	// termination condition (the paper's mul/sum example "runs
	// indefinitely") need a bound.
	MaxAge int
	// KernelMaxAge bounds individual kernels: no instance of the named
	// kernel runs at an age beyond its bound. This is the scheduler-level
	// "break-point" the paper introduces to stop K-means after a fixed
	// number of iterations (§VIII-B).
	KernelMaxAge map[string]int
	// Granularity fixes the data granularity — instances combined into one
	// slice and dispatched as a unit (§V-A) — per kernel name. Unlisted
	// kernels get the low-level scheduler's tail limit: the kernel-age's
	// domain over Workers × 4 slices, at most 256 instances (see sliceSize).
	Granularity map[string]int
	// GC enables garbage collection of field generations whose consumers
	// have all completed (§IX).
	GC bool
	// Output receives kernel Printf output (the kernel language's cout).
	Output io.Writer
	// Clock drives deadline timers; nil selects the real clock.
	Clock deadline.Clock
	// AnalyzerShards exists for the benchmark ledger (bench/), which pins it
	// to 1: zero and one both mean the node's one dependency analyzer, and
	// NewNode refuses anything larger.
	AnalyzerShards int

	// Metrics, when set, receives the node's full instrumentation: the
	// per-kernel counters behind the Report plus dispatch/fetch/store
	// latency histograms and queue-depth, event-backlog and field-memory
	// gauges (see internal/obs for metric names). When nil, the node keeps
	// a private registry holding only the per-kernel counters the Report
	// projects, and the detailed metrics are disabled.
	Metrics *obs.Registry
	// Tracer, when set, records one lifecycle span per kernel instance
	// (ready → fetched → executed → stored → committed, with age and index
	// coordinates) into its bounded ring, exportable as Chrome trace_event
	// JSON. Nil disables tracing at the cost of one nil check per dispatch.
	Tracer *obs.Tracer

	// RemoteKernels marks kernels of the program that execute on other
	// nodes of a distributed deployment: the local analyzer creates no
	// instances for them, but accounts for their completions — injected
	// with InjectRemoteDone — when deciding field completeness.
	RemoteKernels map[string]bool
	// Shares, set by internal/dist, splits every indexed kernel of the
	// program across the nodes of a distributed run by its outermost index
	// and names the shares that run here (see ShareCycle); it also paces
	// local source kernels by their remote consumers. Nil runs every local
	// kernel whole.
	Shares *Shares
	// NoAutoQuiesce keeps the node running when it has no local work, so
	// remote events can still arrive; the node then stops only on Stop().
	// Required (and only meaningful) for distributed operation.
	NoAutoQuiesce bool
	// OnStore, when set, observes every successful local store with its
	// data — the publish half of the distributed pub-sub layer. It is
	// called from worker goroutines, once per box stored. The notice is
	// borrowed: its Sel and Value are the worker's scratch and the kernel's
	// local or staged cells, valid only during the call, so OnStore copies
	// what it keeps (the dist layer encodes it into a store frame).
	OnStore func(StoreNotice)
	// OnKernelDone, when set, observes every completed local kernel-age —
	// the producer-done notifications remote nodes need for completeness.
	// It is called from the analyzer goroutine.
	OnKernelDone func(kernel string, age int)
	// MergeStores relaxes write-once enforcement on every field (see
	// field.SetMergeStores): duplicate stores are silently skipped rather
	// than erroring. The distributed runtime enables it under failover so
	// that replayed generations and re-executed deterministic kernels merge
	// into identical state; genuine write-twice program errors are masked
	// while it is on.
	MergeStores bool
}

// StoreNotice describes one store for distribution to peers: a box of one
// field generation, its cells in an array.
type StoreNotice struct {
	Field string
	Age   int
	// Whole marks a whole-field store. It is another spelling of the Sel
	// that fixes no dimension, which is how InjectStore and StoreFrame.Add
	// apply and encode it (see normalize).
	Whole bool
	// Sel is the box's selector: fixed dimensions pinned, free dimensions
	// spanning the payload's extents from their origins (see field.SlabDim).
	Sel []field.SlabDim
	// Value carries the box's cells as an array value.
	Value field.Value
}

// normalize spells a Whole notice as the slab store whose selector fixes no
// dimension. A Whole notice without an array payload gets an empty selector,
// which InjectStore refuses.
func (sn StoreNotice) normalize() StoreNotice {
	if sn.Whole {
		rank := 0
		if a := sn.Value.Array(); a != nil {
			rank = a.Rank()
		}
		sn.Whole, sn.Sel = false, make([]field.SlabDim, rank)
	}
	return sn
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxAge <= 0 {
		o.MaxAge = math.MaxInt
	}
	return o
}

// Node is a single P2G execution node: program state, fields, the dependency
// analyzer and a worker pool. Create one with NewNode, execute with Run, then
// inspect fields and instrumentation.
type Node struct {
	prog *core.Program
	opts Options

	fields  map[string]*fieldState
	kernels map[string]*kernelState
	order   []*kernelState

	// paced lists the source kernels that wait for remote consumers.
	paced []*kernelState

	timers *deadline.TimerSet
	sched  *sliceQueue
	an     *analyzer
	out    *lockedWriter

	wg sync.WaitGroup

	// injectMu guards the analyzer's event channel against sends racing its
	// close during shutdown (InjectStore and friends run on caller
	// goroutines).
	injectMu     sync.RWMutex
	eventsClosed bool

	errMu  sync.Mutex
	runErr error

	report *Report

	// Observability: reg is always non-nil (Options.Metrics or a private
	// registry) and holds the per-kernel counters the Report projects; the
	// detailed handles below are nil unless Options.Metrics was set.
	// mEventBatches always lives in the registry (the Report surfaces it),
	// baseline-subtracted like the per-kernel counters.
	reg           *obs.Registry
	tracer        *obs.Tracer
	mDispatches   *obs.Counter
	mEventBatches counterWithBaseline
	hFetch        *obs.Histogram
	hKernel       *obs.Histogram
	hStore        *obs.Histogram
	gQueue        *obs.Gauge
	gBacklog      *obs.Gauge
	gFieldMem     *obs.Gauge
	gOutstand     *obs.Gauge

	// Stage-timer clock: instance lifecycle stamps (createdNs, readyNs) are
	// nanoseconds since clock. When tracing is on, clock is the tracer's
	// start so stamps double as span timestamps; stamp gates the stamping
	// work entirely (false = tracing and stage metrics both off, the
	// allocation-free zero-overhead path).
	clock   time.Time
	stamp   bool
	started time.Time // Run's start when stamping: each worker's first mark
	// hIdle accumulates per-worker blocked-on-empty-queue time; together
	// with the per-kernel busy stages it makes attribution sum to the run's
	// worker-seconds (Report.Stages).
	hIdle histWithBase
}

// nowNs returns nanoseconds since the node's stage clock.
func (n *Node) nowNs() int64 { return time.Since(n.clock).Nanoseconds() }

// lockedWriter serializes kernel Printf output from concurrent workers.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	if lw.w == nil {
		return len(p), nil
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// NewNode validates the program and builds the node's static plan: field
// states with producer/consumer edges and kernel states with index-variable
// range bindings.
func NewNode(p *core.Program, opts Options) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.AnalyzerShards > 1 {
		return nil, fmt.Errorf("p2g: Options.AnalyzerShards is %d, but a node has one dependency analyzer (0 or 1)", opts.AnalyzerShards)
	}
	opts = opts.withDefaults()
	n := &Node{
		prog:    p,
		opts:    opts,
		fields:  make(map[string]*fieldState, len(p.Fields)),
		kernels: make(map[string]*kernelState, len(p.Kernels)),
		timers:  deadline.NewTimerSet(opts.Clock, p.Timers...),
		out:     &lockedWriter{w: opts.Output},
		reg:     opts.Metrics,
		tracer:  opts.Tracer,
	}
	// Stage stamps share the tracer's clock when tracing, so readyNs feeds
	// both span wait times and the ready-wait histogram consistently.
	if opts.Tracer != nil {
		n.clock = opts.Tracer.StartTime()
	} else {
		n.clock = time.Now()
	}
	n.stamp = opts.Tracer != nil || opts.Metrics != nil
	if n.reg == nil {
		// Private registry: the per-kernel counters always live in a
		// registry so the Report is a projection of it, but the detailed
		// node metrics below stay disabled (nil handles are no-ops).
		n.reg = obs.NewRegistry()
	} else {
		n.hIdle = newHistBase(n.reg.Histogram(obs.MStageIdleNs))
		n.mDispatches = n.reg.Counter(obs.MDispatchesTotal)
		n.hFetch = n.reg.Histogram(obs.MFetchNs)
		n.hKernel = n.reg.Histogram(obs.MKernelNs)
		n.hStore = n.reg.Histogram(obs.MStoreNs)
		n.gQueue = n.reg.Gauge(obs.MReadyQueueDepth)
		n.gBacklog = n.reg.Gauge(obs.MEventBacklog)
		n.gFieldMem = n.reg.Gauge(obs.MFieldMemElems)
		n.gOutstand = n.reg.Gauge(obs.MOutstandingInsts)
	}
	n.mEventBatches = newBaselined(n.reg.Counter(obs.MEventBatchesTotal))
	n.sched = newSliceQueue()
	n.tracer.CountDropped(n.reg.Counter(obs.MTraceDropped))
	for _, fd := range p.Fields {
		fl := field.New(fd.Name, fd.Kind, fd.Rank, fd.Aged)
		if opts.MergeStores {
			fl.SetMergeStores(true)
		}
		n.fields[fd.Name] = &fieldState{
			decl: fd,
			f:    fl,
			ages: make(map[int]*fieldAgeState),
		}
	}
	for name := range opts.RemoteKernels {
		if p.Kernel(name) == nil {
			return nil, fmt.Errorf("p2g: remote kernel %q is not part of the program", name)
		}
	}
	if opts.GC && (len(opts.RemoteKernels) > 0 || opts.Shares != nil) {
		return nil, fmt.Errorf("p2g: field garbage collection cannot be combined with remote kernels (remote consumers are invisible to the local GC)")
	}
	for _, kd := range p.Kernels {
		ks := &kernelState{
			decl: kd, remote: opts.RemoteKernels[kd.Name],
			instances:  newBaselined(n.reg.Counter(obs.Label(obs.MKernelInstances, "kernel", kd.Name))),
			slices:     newBaselined(n.reg.Counter(obs.Label(obs.MKernelSlices, "kernel", kd.Name))),
			lockstep:   newBaselined(n.reg.Counter(obs.Label(obs.MKernelLockstep, "kernel", kd.Name))),
			declined:   newBaselined(n.reg.Counter(obs.Label(obs.MKernelDeclined, "kernel", kd.Name))),
			dispatchNs: newBaselined(n.reg.Counter(obs.Label(obs.MKernelDispatchNs, "kernel", kd.Name))),
			kernelNs:   newBaselined(n.reg.Counter(obs.Label(obs.MKernelTimeNs, "kernel", kd.Name))),
			storeOps:   newBaselined(n.reg.Counter(obs.Label(obs.MKernelStoreOps, "kernel", kd.Name))),
		}
		if opts.Metrics != nil {
			ks.stageReady = newHistBase(n.reg.Histogram(obs.Label(obs.MStageReadyWaitNs, "kernel", kd.Name)))
			ks.stageQueue = newHistBase(n.reg.Histogram(obs.Label(obs.MStageQueueWaitNs, "kernel", kd.Name)))
			ks.stageFetch = newHistBase(n.reg.Histogram(obs.Label(obs.MStageFetchNs, "kernel", kd.Name)))
			ks.stageExec = newHistBase(n.reg.Histogram(obs.Label(obs.MStageExecNs, "kernel", kd.Name)))
			ks.stageStore = newHistBase(n.reg.Histogram(obs.Label(obs.MStageStoreNs, "kernel", kd.Name)))
		}
		if g := opts.Granularity[kd.Name]; g > 0 {
			ks.gran = g
		}
		if len(kd.Fetches) > 32 {
			return nil, fmt.Errorf("p2g: kernel %q has %d fetches; the runtime supports at most 32", kd.Name, len(kd.Fetches))
		}
		if len(kd.IndexVars) > maxRank {
			return nil, fmt.Errorf("p2g: kernel %q has %d index variables; the runtime supports at most %d", kd.Name, len(kd.IndexVars), maxRank)
		}
		ks.fullMask = uint32(1)<<uint(len(kd.Fetches)) - 1
		ks.idx = len(n.order)
		n.kernels[kd.Name] = ks
		n.order = append(n.order, ks)
	}
	if err := n.planShares(); err != nil {
		return nil, err
	}
	// Edges and range bindings.
	for _, ks := range n.order {
		kd := ks.decl
		ks.binds = make([]varBind, len(kd.IndexVars))
		boundVars := make(map[string]bool, len(kd.IndexVars))
		for i := range kd.Fetches {
			fe := &kd.Fetches[i]
			fs := n.fields[fe.Field]
			ce := consEdge{ks: ks, fetch: fe, fetchBit: uint32(1) << uint(i)}
			if !fe.Whole() && !fe.Slab() {
				ce.terms = compileIndex(fe.Index, kd.IndexVars)
			}
			fs.consumers = append(fs.consumers, ce)
			if fe.Age.HasVar {
				fs.agedConsumers++
				ks.agedFetches++
			} else {
				fs.absConsumers++
			}
			for d, spec := range fe.Index {
				if spec.Kind != core.IndexVarKind || spec.Off != 0 || boundVars[spec.Var] {
					continue
				}
				boundVars[spec.Var] = true
				vi := varIndex(kd.IndexVars, spec.Var)
				ks.binds[vi] = varBind{fs: fs, dim: d, age: fe.Age}
				fs.rangeOf = append(fs.rangeOf, rangeEdge{ks: ks, varIdx: vi, dim: d, age: fe.Age})
			}
		}
		for i := range kd.Stores {
			ss := &kd.Stores[i]
			fs := n.fields[ss.Field]
			fs.producers = append(fs.producers, prodEdge{ks: ks, store: ss})
		}
	}
	// Dispatch plans: resolve every fetch/store to its field state and
	// precompile the index expressions, then size a pool of reusable
	// execution frames (context + coordinate/selector scratch) per kernel.
	// This is what makes the dispatch hot path allocation-free.
	for _, ks := range n.order {
		kd := ks.decl
		maxIdx, maxSel := 0, 0
		ks.fetchPlans = make([]fetchPlan, len(kd.Fetches))
		for i := range kd.Fetches {
			fe := &kd.Fetches[i]
			fp := fetchPlan{fe: fe, fs: n.fields[fe.Field], local: kd.LocalIndex(fe.Local)}
			switch {
			case fe.Whole(), fe.Slab():
				fp.slab = compileSlab(fe.Index, fp.fs.decl.Rank, kd.IndexVars)
				maxSel = max(maxSel, len(fp.slab))
				// A slab selector is viewable when its fixed dimensions are
				// a prefix: the free suffix then addresses one contiguous
				// row range of the generation slab.
				fp.viewable = true
				free := false
				for _, st := range fp.slab {
					if st.fixed && free {
						fp.viewable = false
						break
					}
					if !st.fixed {
						free = true
					}
				}
			default:
				fp.terms = compileIndex(fe.Index, kd.IndexVars)
				if len(fp.terms) > maxIdx {
					maxIdx = len(fp.terms)
				}
				fp.viewable = true
				ks.elemBits |= uint32(1) << uint(i)
			}
			ks.fetchPlans[i] = fp
		}
		if kd.SliceBody != nil {
			// Every row of a context sees the one Array of a local, so an
			// array that differs between instances — a slab with a fixed
			// dimension, or one the body fills — cannot pass through a slice
			// body.
			for li := range kd.Locals {
				shared := kd.Locals[li].Rank == 0
				for i := range ks.fetchPlans {
					fp := &ks.fetchPlans[i]
					shared = shared || fp.local == li && fp.slab != nil && noneFixed(fp.slab)
				}
				if !shared {
					return nil, fmt.Errorf("p2g: kernel %q has a slice body, but its array local %s is not a whole fetch", kd.Name, kd.Locals[li].Name)
				}
			}
		}
		ks.storePlans = make([]storePlan, len(kd.Stores))
		for i := range kd.Stores {
			ss := &kd.Stores[i]
			sp := storePlan{ss: ss, fs: n.fields[ss.Field], local: kd.LocalIndex(ss.Local), free: ss.SlabRank()}
			sp.slab = compileSlab(ss.Index, sp.fs.decl.Rank, kd.IndexVars)
			maxSel = max(maxSel, len(sp.slab))
			ks.storePlans[i] = sp
		}
		kd, ks, nIdx, nSel := kd, ks, maxIdx, maxSel
		ks.newFrame = func() *execFrame {
			fr := &execFrame{
				ctx:    core.NewReusableCtx(kd, n.timers, n.out),
				coords: make([]int, len(kd.IndexVars)),
				idx:    make([]int, nIdx),
				sel:    make([]field.SlabDim, nSel),
				pins:   make([]viewPin, len(kd.Fetches)),
				staged: make([]stagedStores, len(kd.Stores)),
			}
			for i := range fr.staged {
				st := &fr.staged[i]
				st.sels, st.ext = st.selBuf[:0], st.extBuf[:0]
				st.cells.ResetEmpty(ks.storePlans[i].fs.decl.Kind, 1)
			}
			return fr
		}
	}
	// Which store events concern the analyzer (fieldState.analyzed). Remote
	// kernels never have local trackers.
	for _, fs := range n.fields {
		for _, ce := range fs.consumers {
			fs.elemFetched = fs.elemFetched || ce.terms != nil && !ce.ks.remote
		}
		for _, re := range fs.rangeOf {
			fs.rangeBound = fs.rangeBound || !re.ks.remote
		}
	}
	n.planPacing()
	n.an = newAnalyzer(n)
	return n, nil
}

// execFrame is the reusable per-slice state a worker keeps per kernel
// (workerState.frames): the instance context, the instance coordinates of a
// slice (one row of them per instance in lockstep), coordinate and
// slab-selector scratch sized for the kernel's largest index expressions,
// and the two per-slice hoists — one generation pin per fetch and one
// staging box per store.
type execFrame struct {
	ctx    *core.Ctx
	coords []int
	idx    []int
	sel    []field.SlabDim
	// pins holds, per fetch plan, the pin on the fetched generation taken at
	// the start of the slice; every instance aliases its view out of it. Pins
	// are released after the slice's stores, when nothing can read the
	// aliased slabs anymore.
	pins []viewPin
	// staged holds, per store plan, the stores of the slice's instances
	// until the slice writes them as boxes under one field lock; cells is
	// flushStaged's window onto one box's cells.
	staged []stagedStores
	cells  field.Array
}

// viewPin is one fetch's generation pin for the running slice; ok is false
// when the fetch is not viewable or the generation could not be pinned, and
// the fetch then copies.
type viewPin struct {
	tok field.ViewToken
	ok  bool
}

// stagedStores is one store statement's output over a slice: n instances'
// cells, typed as the field's elements, back to back in cells, and the boxes
// they fill, each a selector of the field's rank whose every dimension is
// free from its origin (sels) with its extent (ext). Boxes are merged as
// they are staged (merge), so a run of rows is one box.
type stagedStores struct {
	cells field.Array
	n     int
	sels  []field.SlabDim
	ext   []int
	// selBuf and extBuf back sels and ext up to two boxes of rank 4, the
	// most a run of rows or of whole rows holds before it merges.
	selBuf [8]field.SlabDim
	extBuf [8]int
}

// merge folds the last box into the one before it while the two are
// row-major contiguous in the field: they abut along one dimension d, span
// one cell at the same origin in every dimension before d and agree in every
// one after it. The two boxes' cells, back to back, are then the merged
// box's in row-major order. A run of element stores thus goes out as a
// partial row, whole rows and a partial row, a run of row stores as one box.
func (st *stagedStores) merge(rank int) {
	for n := len(st.ext); n >= 2*rank; n -= rank {
		ao, ae, d := st.sels[n-2*rank:n-rank], st.ext[n-2*rank:n-rank], 0
		bo, be := st.sels[n-rank:n], st.ext[n-rank:n]
		for d < rank && ae[d] == 1 && be[d] == 1 && ao[d] == bo[d] {
			d++
		}
		same := d < rank && bo[d].Index == ao[d].Index+ae[d]
		for k := d + 1; same && k < rank; k++ {
			same = ao[k] == bo[k] && ae[k] == be[k]
		}
		if !same {
			return
		}
		ae[d] += be[d]
		st.sels, st.ext = st.sels[:n-rank], st.ext[:n-rank]
	}
}

// Run executes the program to quiescence and returns the instrumentation
// report. Run may be called once per node.
func (n *Node) Run() (*Report, error) {
	start := time.Now()
	if n.stamp {
		n.started = start
	}
	for i := 0; i < n.opts.Workers; i++ {
		n.wg.Add(1)
		go n.worker(i)
	}
	n.an.run()
	n.wg.Wait()
	n.report = n.buildReport(time.Since(start))
	return n.report, n.runErr
}

// Run builds a node and executes the program in one call. The node is not
// exposed, so no field state outlives the call: remaining generations are
// released to the slab pools before returning, and back-to-back runs reuse
// each other's storage.
func Run(p *core.Program, opts Options) (*Report, error) {
	n, err := NewNode(p, opts)
	if err != nil {
		return nil, err
	}
	rep, runErr := n.Run()
	n.Release()
	return rep, runErr
}

// closeEventsWhenWorkersExit arranges for the event channel to close once
// all workers have stopped, letting the analyzer drain without deadlock.
func (n *Node) closeEventsWhenWorkersExit() {
	go func() {
		n.wg.Wait()
		n.injectMu.Lock()
		n.eventsClosed = true
		close(n.an.ch)
		n.injectMu.Unlock()
	}()
}

// injectBatch hands one batch of externally produced events to the analyzer,
// unless the node has shut down.
func (n *Node) injectBatch(evs *[]event) {
	n.injectMu.RLock()
	defer n.injectMu.RUnlock()
	if n.eventsClosed {
		putEventBuf(evs)
		return
	}
	n.mEventBatches.Add(1)
	n.an.pending.Add(1)
	n.an.ch <- evs
}

// injector batches the analyzer events of stores applied from outside the
// node, as a worker's buffer batches its own: a store frame's events reach
// the analyzer in batches of eventFlushThreshold, not one channel send per
// entry.
type injector struct {
	n   *Node
	buf *[]event // nil until the first event the analyzer needs
}

// add buffers one store event, unless the analyzer has no use for it.
func (in *injector) add(ev *event) {
	if !ev.fs.analyzed(ev.grew) {
		return
	}
	if in.buf == nil {
		in.buf = getEventBuf()
	}
	*in.buf = append(*in.buf, *ev)
	if len(*in.buf) >= eventFlushThreshold {
		in.flush()
	}
}

// flush hands the buffered events to the analyzer.
func (in *injector) flush() {
	if in.buf != nil {
		in.n.injectBatch(in.buf)
		in.buf = nil
	}
}

// InjectStore applies a store received from a remote node: the value is
// written to the local field replica and the analyzer is notified exactly as
// for a local store. A store that would grow its generation past
// MaxRemoteCells is refused with ErrRemoteGrowth.
func (n *Node) InjectStore(sn StoreNotice) error {
	ev, err := n.applyStore(sn)
	if err != nil {
		return err
	}
	in := injector{n: n}
	in.add(&ev)
	in.flush()
	return nil
}

// applyStore writes one store notice, a box, to the local field replica and
// returns the analyzer event that announces it. A store that would grow its
// generation past MaxRemoteCells is refused with ErrRemoteGrowth. The notice
// may be borrowed: the field copies what it keeps.
func (n *Node) applyStore(sn StoreNotice) (event, error) {
	sn = sn.normalize()
	fs, ok := n.fields[sn.Field]
	if !ok {
		return event{}, fmt.Errorf("p2g: remote store to unknown field %q", sn.Field)
	}
	arr := sn.Value.Array()
	if sn.Sel == nil || arr == nil {
		return event{}, errNoArray(sn.Field)
	}
	if err := checkGrowth(sn, arr, func(d int) int { return fs.f.Extent(sn.Age, d) }); err != nil {
		return event{}, err
	}
	res, err := fs.f.StoreSlice(sn.Age, sn.Sel, arr)
	if err != nil {
		return event{}, err
	}
	ev := event{fs: fs, age: sn.Age}
	ev.setBox(sn.Sel, arr)
	ev.setGrowth(&res)
	return ev, nil
}

// setBox records on the event the box a store covered: per dimension a fixed
// coordinate spanning 1, or an origin spanning the next extent of cells.
func (ev *event) setBox(sel []field.SlabDim, cells cellShape) {
	var orgBuf, spanBuf [4]int
	org, span := orgBuf[:0], spanBuf[:0]
	j := 0
	for _, sd := range sel {
		n := 1
		if !sd.Fixed {
			n, j = cells.Extent(j), j+1
		}
		org, span = append(org, sd.Index), append(span, n)
	}
	ev.org.set(org)
	ev.span.set(span)
}

// setGrowth records a store's growth, and the extents it grew to, on the
// event announcing it.
func (ev *event) setGrowth(res *field.StoreResult) {
	ev.grew = res.Grew
	if res.Grew {
		ev.ext.set(res.Extents())
	}
}

// InjectRemoteDone records that a remote kernel finished all instances of
// one age — of one share, for a kernel split across nodes (Options.Shares):
// its stores' target generations count the producer (share) as done, and a
// paced source waiting for it counts it toward its next age.
func (n *Node) InjectRemoteDone(kernel string, age int) error {
	ks, ok := n.kernels[kernel]
	if !ok {
		return fmt.Errorf("p2g: remote done for unknown kernel %q", kernel)
	}
	evs := getEventBuf()
	*evs = append(*evs, event{remoteDone: ks, age: age})
	n.injectBatch(evs)
	return nil
}

// Stop ends a NoAutoQuiesce node: the analyzer shuts down after draining
// in-flight work.
func (n *Node) Stop() {
	evs := getEventBuf()
	*evs = append(*evs, event{stop: true})
	n.injectBatch(evs)
}

// Idle reports whether the node currently has no dispatched instances and no
// backlogged events. Distributed masters poll this (twice, with stable event
// counts) to detect global quiescence.
func (n *Node) Idle() bool {
	// pending counts every unit of in-flight work: buffered and injected
	// batches, and ready-but-not-done instances.
	return n.an.pending.Load() == 0
}

func (n *Node) fail(err error) {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	if n.runErr == nil {
		n.runErr = err
	}
}

func (n *Node) failed() bool {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.runErr != nil
}

// kernelMaxAge returns the per-kernel age bound, or MaxAge when none is set.
func (n *Node) kernelMaxAge(ks *kernelState) int {
	if a, ok := n.opts.KernelMaxAge[ks.decl.Name]; ok {
		return a
	}
	return n.opts.MaxAge
}

// Timers exposes the node's deadline timers.
func (n *Node) Timers() *deadline.TimerSet { return n.timers }

// Metrics exposes the node's metrics registry: Options.Metrics when one was
// supplied, otherwise the private registry backing the Report.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Snapshot returns a copy of a field generation after (or during) a run.
func (n *Node) Snapshot(fieldName string, age int) (*field.Array, error) {
	fs, ok := n.fields[fieldName]
	if !ok {
		return nil, fmt.Errorf("p2g: unknown field %q", fieldName)
	}
	return fs.f.Snapshot(age), nil
}

// Release returns every field generation still live at end of run to the
// slab pools. Mid-run garbage collection only recycles ages whose consumers
// all finished; the youngest generations survive to the end and would
// otherwise be lost to the GC. Call it once final state has been read —
// snapshots are copies and stay valid — after which the node must not run.
func (n *Node) Release() {
	for _, fs := range n.fields {
		fs.f.Release()
	}
}

// FieldMemoryElems reports the total allocated field elements across live
// generations; used by the garbage-collection tests and report.
func (n *Node) FieldMemoryElems() int {
	total := 0
	for _, fs := range n.fields {
		total += fs.f.MemoryElems()
	}
	return total
}

// eventFlushThreshold bounds a worker's local event buffer within one slice:
// the buffer is flushed to the analyzer when it reaches this many events, and
// always when the slice ends (worker).
const eventFlushThreshold = 64

// eventChanBatches is the analyzer's event-channel capacity in batches: 1024
// batches buffer ~65k events.
const eventChanBatches = 1024

// workerState is one worker goroutine's dispatch state: its scheduler slot
// and the local analyzer-event buffer of the running slice.
type workerState struct {
	n   *Node
	id  int // 0-based scheduler slot; tracer lane is id+1 (analyzer is 0)
	buf *[]event

	// timeAll forces per-instance timing (tracer spans and stage histograms
	// need every instance); otherwise execSlice times one slice in
	// timeSampleEvery, paced by tick.
	timeAll bool
	tick    uint
	// mark is the worker's last stamp under timeAll (its last slice's or idle
	// wait's end, Run's start before). What it does between stamps — the
	// done event, pin releases, the pop, the event flush — counts toward the
	// next interval, so stages tile its time even where the OS deschedules it.
	mark time.Time
	// stages gathers the running slice's per-instance stage timings; they
	// reach the shared histograms once per slice (flushStages).
	stages struct{ queue, fetch, exec, store obs.HistogramBatch }

	// frames holds the worker's execution frame per kernel (indexed by
	// kernelState.idx), built on its first slice of that kernel.
	frames []*execFrame
}

// timeSampleEvery is the uninstrumented dispatch path's timing sample rate:
// one slice in this many gets the time.Now() stamping. Must be a power of two
// (sampling uses a mask).
const timeSampleEvery = 8

func newWorkerState(n *Node, id int) *workerState {
	return &workerState{n: n, id: id, buf: getEventBuf(), timeAll: n.stamp, mark: n.started, frames: make([]*execFrame, len(n.order))}
}

// emit buffers one analyzer event, flushing at the batching threshold. The
// quiescence count covers the buffer from its first event: the increment
// happens here (empty -> non-empty) and the matching decrement only after the
// flushed batch is fully processed.
func (w *workerState) emit(ev *event) {
	if len(*w.buf) == 0 {
		w.n.an.pending.Add(1)
	}
	*w.buf = append(*w.buf, *ev)
	if len(*w.buf) >= eventFlushThreshold {
		w.flush()
	}
}

// flush hands the buffered events to the analyzer as one batch (a single
// channel send) and starts a fresh pooled buffer.
func (w *workerState) flush() {
	if len(*w.buf) == 0 {
		return
	}
	w.n.mEventBatches.Add(1)
	w.n.an.ch <- w.buf
	w.buf = getEventBuf()
}

// frame returns the worker's execution frame for ks, building it on first
// use.
func (w *workerState) frame(ks *kernelState) *execFrame {
	fr := w.frames[ks.idx]
	if fr == nil {
		fr = ks.newFrame()
		w.frames[ks.idx] = fr
	}
	return fr
}

// worker is one worker goroutine: it pops slices oldest-age-first and
// executes each, buffering the slice's store and done events and flushing
// them to the analyzer when the slice ends. A slice is a quarter of a
// worker's share of its kernel-age and may run for milliseconds; held across
// the next slice, its done event would hold back what it readies — an older
// age's next kernel — by that long. Nor does a worker block in Pop with
// events the analyzer needs still in its buffer.
func (n *Node) worker(id int) {
	defer n.wg.Done()
	w := newWorkerState(n, id)
	for {
		b, ok := n.sched.TryPop()
		if !ok {
			b, ok = n.sched.Pop()
			if w.timeAll {
				// Out of work since the last stamp: the idle stage of the
				// attribution report (worker-seconds not spent dispatching).
				now := time.Now()
				n.hIdle.Observe(now.Sub(w.mark))
				w.mark = now
			}
			if !ok {
				return
			}
		}
		n.execSlice(b, w)
		w.flush()
	}
}

// execSlice runs one slice — instances of one kernel-age — as a unit. Once
// per slice: check out the kernel's frame, pin every viewable fetch's
// generation, alias its whole-field fetches, write the staged stores of all
// instances as boxes under one field lock per store statement, and send one
// done event carrying the slice. Per instance: alias slab views and read
// elements out of the pins, run the body, apply whole-field stores and stage
// the others — unless the kernel has a
// slice body and the slice is long enough for it (minLockstepInsts and
// the kernel's own SliceMin), in which case the bodies are one call
// (lockstep). Dispatch time (everything but the bodies) and kernel time (the
// bodies) feed the Table II/III instrumentation. The path allocates nothing
// for element fetches and stores: coordinates evaluate into the frame's
// scratch.
//
// An instance that fails ends the slice: the instances after it do not run,
// the ones before it keep their stores, and the done event still covers the
// whole slice so the analyzer's accounting balances while the run shuts down.
func (n *Node) execSlice(b *batch, w *workerState) {
	t := b.tracker
	ks := t.ks
	kd := ks.decl
	timed := w.timeAll
	if !timed {
		w.tick++
		// Sample the timing stamps; a kernel not timed yet is timed anyway,
		// so that the report has a sample of every kernel that ran.
		timed = w.tick&(timeSampleEvery-1) == 0 || ks.timedInsts.Load() == 0
	}
	// The frame is checked out before the clock starts: building a worker's
	// first frame of a kernel is a one-off, and a kernel's first slice is
	// always timed.
	fr := w.frame(ks)
	ctx := fr.ctx
	var start time.Time
	if timed {
		start = time.Now()
	}

	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		if fp.viewable {
			pin := &fr.pins[i]
			pin.tok, pin.ok = fp.fs.f.PinView(fp.fe.Age.Eval(t.age))
		}
	}

	// cur holds the stamps of the instance in flight. Its start is the end of
	// the instance before it — the worker's last stamp for the first, so the
	// pop and the pinning count as that instance's fetch time — and the last
	// instance ends with the slice, so the batched stores count as its store
	// time: every nanosecond of the worker lands in some stage.
	cur := instStamps{start: start}
	if w.timeAll && !w.mark.IsZero() {
		cur.start = w.mark
	}
	// coords and readyNs are the instance in flight; observe marks one that
	// ran and has not been observed yet.
	var coords []int
	var readyNs int64
	observe := false
	var bodyNs time.Duration
	ran, stores := 0, 0
	stopped := false
	locked, rows := false, 1
	if k := b.len(); kd.SliceBody != nil && k >= max(minLockstepInsts, kd.SliceMin) {
		rows = k
		locked, ran, stores, stopped = n.lockstep(t, b, fr, w, timed, &cur)
	}
	for i, k := 0, b.len(); !locked && i < k; i++ {
		if observe {
			cur.end = time.Now()
			n.observeInst(t, coords, readyNs, w, cur)
			cur.start, observe = cur.end, false
		}
		coords, readyNs = b.inst(i, fr.coords)
		ctx.Reset(t.age, coords)
		if !n.fetchInst(t, coords, fr, i == 0) {
			break
		}
		if timed {
			cur.body = time.Now()
		}
		err := n.runBody(kd, ctx)
		if timed {
			cur.bodyEnd = time.Now()
			bodyNs += cur.bodyEnd.Sub(cur.body)
		}
		ran++
		observe = w.timeAll
		if err != nil {
			n.fail(fmt.Errorf("p2g: kernel %s(age=%d): %w", kd.Name, t.age, err))
			break
		}
		st, ok := n.storeInst(t, k, coords, fr, w)
		stores += st
		if !ok {
			break
		}
		stopped = stopped || ctx.Stopped()
	}
	stores += n.flushStaged(t, fr, w)
	ks.instances.Add(int64(ran))
	ks.slices.Add(1)
	ks.storeOps.Add(int64(stores))

	if timed {
		cur.end = time.Now()
		if locked {
			bodyNs = cur.bodyEnd.Sub(cur.body)
			if w.timeAll {
				n.observeLockstep(t, b, fr.coords, ran, w, cur)
			}
		}
		w.mark = cur.end
		ks.timedInsts.Add(int64(ran))
		ks.dispatchNs.Add(int64(cur.end.Sub(start) - bodyNs))
		ks.kernelNs.Add(int64(bodyNs))
		if observe {
			n.observeInst(t, coords, readyNs, w, cur)
		}
		if w.timeAll {
			n.flushStages(ks, w, ran)
		}
	}

	w.emit(&event{isDone: true, b: b, stores: stores, stopped: stopped})
	// The frame stays checked out in w.frames; drop the pins (stores are
	// applied, nothing reads the aliased generations anymore) and clear the
	// context so the cached frame does not pin fetched values between slices.
	for i := range fr.pins {
		if fr.pins[i].ok {
			fr.pins[i].tok.Release()
			fr.pins[i] = viewPin{}
		}
	}
	if rows > 1 {
		ctx.ClearRows(rows)
	}
	ctx.Reset(0, nil)
}

// minLockstepInsts is the shortest slice handed to any kernel's slice body:
// below it, running the bodies one by one is as fast as setting up the rows.
// A kernel that knows what one call costs against so many asks for more
// (core.KernelDecl.SliceMin; the kernel language derives it from the body).
const minLockstepInsts = 4

// lockstep runs a slice through the kernel's slice body: every instance is
// fetched into its own row of the frame's context, one SliceBody call runs
// all the bodies, then every row's stores are handled — the same fetchInst
// and storeInst as the per-instance loop, and whole-field fetches are aliased
// out of the pins once for all rows. It reports done false, with nothing
// stored, when the slice body declines (the kernel language's does when an
// instance would fail: the per-instance loop then reproduces the failure in
// order). It leaves the stamps around the one body call in cur.
func (n *Node) lockstep(t *ageTracker, b *batch, fr *execFrame, w *workerState, timed bool, cur *instStamps) (done bool, ran, stores int, stopped bool) {
	ks := t.ks
	ctx := fr.ctx
	rows, rank := b.len(), len(ks.decl.IndexVars)
	if len(fr.coords) < rows*rank {
		fr.coords = make([]int, rows*rank)
	}
	ctx.Reset(t.age, nil)
	ctx.Rows(rows)
	for r := 0; r < rows; r++ {
		coords, _ := b.inst(r, fr.coords[r*rank:])
		ctx.ResetRow(r, t.age, coords)
		if !n.fetchInst(t, coords, fr, r == 0) {
			return true, 0, 0, false
		}
	}
	if timed {
		cur.body = time.Now()
	}
	ok := n.runSliceBody(ks.decl, ctx, rows)
	if timed {
		cur.bodyEnd = time.Now()
	}
	if !ok {
		ks.declined.Add(int64(rows))
		return false, 0, 0, false
	}
	ks.lockstep.Add(int64(rows))
	for r := 0; r < rows; r++ {
		ctx.Row(r)
		coords := fr.coords[r*rank : (r+1)*rank] // decoded by the fetch pass
		st, ok := n.storeInst(t, rows, coords, fr, w)
		stores += st
		if !ok {
			break
		}
	}
	return true, rows, stores, ctx.Stopped()
}

// runSliceBody calls the kernel's slice body; one that panics has declined.
func (n *Node) runSliceBody(kd *core.KernelDecl, ctx *core.Ctx, rows int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return kd.SliceBody(ctx, rows)
}

// observeLockstep is observeInst for the first ran instances of a slice that
// ran in lockstep, where the stages were not interleaved per instance: the
// slice's fetch, body and store intervals (at) are apportioned evenly,
// instance i getting the i-th share of each, so stage totals and
// per-instance spans still add up to the slice. coords holds the rows'
// coordinates of a range slice.
func (n *Node) observeLockstep(t *ageTracker, b *batch, coords []int, ran int, w *workerState, at instStamps) {
	k, rank := time.Duration(ran), len(t.ks.decl.IndexVars)
	total, fetch, exec := at.end.Sub(at.start)/k, at.body.Sub(at.start)/k, at.bodyEnd.Sub(at.body)/k
	for i := 0; i < ran; i++ {
		st := instStamps{start: at.start.Add(time.Duration(i) * total)}
		st.body = st.start.Add(fetch)
		st.bodyEnd = st.body.Add(exec)
		st.end = st.start.Add(total)
		c, readyNs := b.inst(i, coords[i*rank:])
		n.observeInst(t, c, readyNs, w, st)
	}
}

// fetchInst performs one instance's fetches into the frame's context: views
// aliased and elements read out of the slice's pins (copies and locked reads
// where a generation could not be pinned). alias is false when an earlier
// instance of the same slice has already filled the context's whole-field
// fetch arrays, which every instance and row shares: one is filled again
// only when it is no longer a view — a body's copy-on-write detached it, or
// it is a copy. It reports false after failing the run when an element the
// analyzer saw written is missing.
func (n *Node) fetchInst(t *ageTracker, coords []int, fr *execFrame, alias bool) bool {
	ks := t.ks
	ctx := fr.ctx
	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		g := fp.fe.Age.Eval(t.age)
		switch {
		case fp.slab != nil:
			dst := ctx.FetchDestAt(fp.local)
			if alias || !noneFixed(fp.slab) || !dst.Backing().Shared {
				sel := evalSel(fr.sel[:len(fp.slab)], fp.slab, coords)
				if pin := &fr.pins[i]; !pin.ok || !pin.tok.Slice(sel, dst) {
					fp.fs.f.FetchSlice(g, sel, dst)
				}
			}
			ctx.SetLocalValue(fp.local, field.ArrayVal(dst))
		default:
			idx := evalTerms(fr.idx[:len(fp.terms)], fp.terms, coords)
			var v field.Value
			var ok bool
			if pin := &fr.pins[i]; pin.ok {
				v, ok = pin.tok.At(idx)
			} else {
				v, ok = fp.fs.f.At(g, idx...)
			}
			if !ok {
				n.fail(fmt.Errorf("p2g: internal error: %s dispatched before %s(%d)%v was written", ks.decl.Name, fp.fe.Field, g, idx))
				return false
			}
			ctx.SetLocalValue(fp.local, v)
		}
	}
	return true
}

// storeInst handles the store statements of an instance at coords, in a
// slice of k instances, after its body: whole-field stores are applied at
// once (their source arrays are the context's reusable locals) and published
// as one box each; every other store is staged, typed, for flushStaged. It
// returns the number of stores applied and false after failing the run on a
// store error.
func (n *Node) storeInst(t *ageTracker, k int, coords []int, fr *execFrame, w *workerState) (int, bool) {
	ks := t.ks
	ctx := fr.ctx
	stores := 0
	for j := range ks.storePlans {
		sp := &ks.storePlans[j]
		if !ctx.BoundAt(sp.local) {
			continue
		}
		val := ctx.LocalValue(sp.local)
		if !sp.ss.Whole() {
			if err := fr.staged[j].stage(sp, coords, &val, k); err != nil {
				n.fail(fmt.Errorf("p2g: kernel %s(age=%d): %w", ks.decl.Name, t.age, err))
				return stores, false
			}
			continue
		}
		g := sp.ss.Age.Eval(t.age)
		sel := fr.sel[:len(sp.slab)] // fixing no dimension
		clear(sel)
		res, err := sp.fs.f.StoreSlice(g, sel, val.Array())
		if err != nil {
			n.fail(fmt.Errorf("p2g: kernel %s(age=%d): %w", ks.decl.Name, t.age, err))
			return stores, false
		}
		stores++
		if n.opts.OnStore != nil {
			n.opts.OnStore(StoreNotice{Field: sp.ss.Field, Age: g, Sel: sel, Value: val})
		}
		if sp.fs.analyzed(res.Grew) {
			ev := event{fs: sp.fs, age: g}
			ev.setBox(sel, val.Array())
			ev.setGrowth(&res)
			w.emit(&ev)
		}
	}
	return stores, true
}

// stage adds one instance's store to the statement's output: its box — per
// field dimension a fixed coordinate spanning one cell, or a free one
// spanning the next extent of the stored array from 0 — and its cells: the
// array's, or the value itself for an element store, which fixes every
// dimension. slice, the slice's length, sizes the cells on their first use.
// It fails when the array's rank is not the selector's free dimension count.
func (st *stagedStores) stage(sp *storePlan, coords []int, v *field.Value, slice int) error {
	var a *field.Array
	if sp.free > 0 {
		if a = v.Array(); a.Rank() != sp.free {
			return fmt.Errorf("field %s: store of a rank-%d array into %d free dimensions", sp.ss.Field, a.Rank(), sp.free)
		}
	} else if st.extend(sp.slab, coords) {
		st.cells.Append(*v)
		st.n++
		if len(st.ext) >= 2*len(sp.slab) {
			st.merge(len(sp.slab))
		}
		return nil
	}
	j := 0
	for _, tm := range sp.slab {
		o, e := 0, 1
		if tm.fixed {
			o = tm.term.eval(coords)
		} else {
			e, j = a.Extent(j), j+1
		}
		st.sels, st.ext = append(st.sels, field.SlabDim{Index: o}), append(st.ext, e)
	}
	if a == nil {
		st.cells.Append(*v)
	} else {
		st.cells.AppendCells(a, slice*a.Len())
	}
	st.n++
	st.merge(len(sp.slab))
	return nil
}

// extend grows the last box by one cell along the field's last dimension
// when the element store at coords is the next cell there — the fold merge
// would make after staging the cell as a box of its own — and reports
// whether it did.
func (st *stagedStores) extend(slab []slabTerm, coords []int) bool {
	r := len(slab)
	if r == 0 || len(st.ext) < r {
		return false
	}
	o, e := st.sels[len(st.sels)-r:], st.ext[len(st.ext)-r:]
	for d := 0; d < r-1; d++ {
		if e[d] != 1 || o[d].Index != slab[d].term.eval(coords) {
			return false
		}
	}
	if slab[r-1].term.eval(coords) != o[r-1].Index+e[r-1] {
		return false
	}
	e[r-1]++
	return true
}

// flushStaged writes the slice's staged stores: per store statement, its
// boxes with one StoreBoxes — one field lock — and then, per box, one
// OnStore notice and, when the analyzer needs it, one event, the first
// carrying the statement's growth. It returns the number of stores applied;
// a store error fails the run.
func (n *Node) flushStaged(t *ageTracker, fr *execFrame, w *workerState) int {
	ks := t.ks
	stores := 0
	for i := range fr.staged {
		st := &fr.staged[i]
		if st.n == 0 {
			continue
		}
		sp := &ks.storePlans[i]
		g := sp.ss.Age.Eval(t.age)
		res, err := sp.fs.f.StoreBoxes(g, st.sels, st.ext, &st.cells)
		if err != nil {
			n.fail(fmt.Errorf("p2g: kernel %s(age=%d): %w", ks.decl.Name, t.age, err))
		} else {
			stores += st.n
			rank, from := len(sp.slab), 0
			for k := 0; k < len(st.sels); k += rank {
				sel, span := st.sels[k:k+rank], st.ext[k:k+rank]
				fr.cells.Window(&st.cells, from, span)
				from += boxCells(span)
				if n.opts.OnStore != nil {
					n.opts.OnStore(StoreNotice{Field: sp.ss.Field, Age: g, Sel: sel, Value: field.ArrayVal(&fr.cells)})
				}
				if sp.fs.analyzed(k == 0 && res.Grew) {
					ev := event{fs: sp.fs, age: g}
					if k == 0 {
						ev.setGrowth(&res)
					}
					ev.setBox(sel, &fr.cells)
					w.emit(&ev)
				}
			}
		}
		// Reset the cells, which also drops staged strings and objects.
		st.cells.ResetEmpty(sp.fs.decl.Kind, 1)
		st.n, st.sels, st.ext = 0, st.sels[:0], st.ext[:0]
	}
	return stores
}

// instStamps are the four stamps of one instance on a worker: start (fetch
// begins), body and bodyEnd around the kernel body, end (stores handled, the
// next instance starts).
type instStamps struct{ start, body, bodyEnd, end time.Time }

// observeInst records one instance's stage timings (into the worker's
// batches) and lifecycle span from its stamps, its coordinates and ready
// stamp. Only called when a registry or tracer is attached
// (workerState.timeAll), where every instance is stamped, so the histograms
// and spans are never sampled. The span keeps a copy of the coordinates: a
// range slice decodes them into scratch.
func (n *Node) observeInst(t *ageTracker, coords []int, readyNs int64, w *workerState, at instStamps) {
	fetch, exec, store := at.body.Sub(at.start), at.bodyEnd.Sub(at.body), at.end.Sub(at.bodyEnd)
	// The start on the node's stage clock; with tracing on this equals the
	// span timestamp, so queue wait is identical in both views.
	ts := at.start.Sub(n.clock).Nanoseconds()
	wait := int64(0)
	if readyNs > 0 && ts > readyNs {
		wait = ts - readyNs
	}
	w.stages.queue.Observe(time.Duration(wait))
	w.stages.fetch.Observe(fetch)
	w.stages.exec.Observe(exec)
	w.stages.store.Observe(store)
	if tr := n.tracer; tr != nil {
		tr.Record(obs.Span{
			Name: t.ks.decl.Name, Cat: "kernel", Ph: obs.PhaseComplete,
			TS: ts, Dur: at.end.Sub(at.start).Nanoseconds(), TID: w.id + 1,
			Age: t.age, Index: append([]int(nil), coords...),
			WaitNs:   wait,
			FetchNs:  fetch.Nanoseconds(),
			KernelNs: exec.Nanoseconds(),
			StoreNs:  store.Nanoseconds(),
		})
	}
}

// flushStages adds a finished slice's stage timings to the node's and the
// kernel's histograms (nil handles unless a registry is attached).
func (n *Node) flushStages(ks *kernelState, w *workerState, ran int) {
	n.mDispatches.Add(int64(ran))
	w.stages.queue.Flush(ks.stageQueue.h)
	w.stages.fetch.Flush(n.hFetch, ks.stageFetch.h)
	w.stages.exec.Flush(n.hKernel, ks.stageExec.h)
	w.stages.store.Flush(n.hStore, ks.stageStore.h)
}

// runBody executes the kernel body, converting panics into errors so a buggy
// kernel fails the run instead of crashing the node.
func (n *Node) runBody(kd *core.KernelDecl, ctx *core.Ctx) (err error) {
	if kd.Body == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return kd.Body(ctx)
}
