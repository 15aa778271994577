package dist

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// MasterConfig configures a master node run.
type MasterConfig struct {
	// Prog is the program to distribute. Every participating node must
	// construct the same program (kernel bodies are code, not data).
	Prog *core.Program
	// Method exists for the benchmark ledger (bench/), which names
	// sched.KL: the zero value and the one HLS partitioning method.
	// Partitioning refuses any other value.
	Method sched.Method
	// Spec is an optional program identifier forwarded to workers that
	// build their program from a registry (the cmd tools).
	Spec string
	// Weights, when set, applies instrumentation from a previous run to
	// the final graph before partitioning — the repartitioning feedback
	// loop of §IV ("using instrumentation data collected from the nodes
	// executing the workload the final graph can be weighted ... and
	// repartitioned").
	Weights *runtime.Report
	// View, when set, is kept current with the run's phase, assignment and
	// per-worker heartbeats — it backs the master's /statusz endpoint. Only
	// then do the pings ask workers for their metric snapshots.
	View *ClusterView
	// Metrics, when set, counts the broker's frames, worker deaths,
	// failovers and replayed frames, and records per-worker message flight
	// times (clock-offset corrected) under obs.MStageFlightNs.
	Metrics *obs.Registry
	// Tracer, when set, records the master's own spans — one broker span per
	// forwarded store frame, tagged with the frame's causal trace id — and
	// has every worker trace and hand its span buffer over on its MReport,
	// clock-aligned in MasterResult.Traces and ready for
	// obs.WriteMergedChromeTrace.
	Tracer *obs.Tracer

	// Failover enables recovery from worker failures: a dead worker's
	// kernels are reassigned (to a waiting standby, else to survivors via a
	// fresh HLS partition over the remaining topology) and the affected
	// workers rebuild and receive the logged store frames of every field
	// they consume. Off (the default), a worker failure fails the run.
	Failover bool
	// Liveness is the failure-detection window, in both directions: a node
	// that does not register within it fails the run, a worker the master
	// does not hear from for as long dies (which fails the run without
	// Failover), and every worker, told the window by MStart, gives up on a
	// master silent for as long. Zero selects 300ms. Status pings go every
	// 2ms and any inbound message counts, so the window must only exceed
	// the longest legitimate silence (a worker's teardown between MStopReq
	// and MReport).
	Liveness time.Duration
}

// defaultLiveness is the liveness window of a zero MasterConfig.Liveness.
const defaultLiveness = 300 * time.Millisecond

// MasterResult is the outcome of a distributed run.
type MasterResult struct {
	// Assignment maps the kernels that run whole to worker indices
	// (reflecting any failover reassignments).
	Assignment map[string]int
	// Shares maps each kernel split by index share to the node IDs owning
	// its shares, in share order (see ShareString); empty on a one-worker
	// run, which splits nothing.
	Shares map[string][]string
	// Cost is the HLS cost of the chosen assignment.
	Cost sched.Cost
	// Reports holds each worker's instrumentation report by node ID.
	Reports map[string]*runtime.Report
	// Shadow is the log of every store frame the master brokered: Snapshot
	// on it decodes the complete program state.
	Shadow *StoreLog
	// Traces holds each worker's clock-aligned span bundle (only with a
	// Tracer); append the master's own tracer bundle and hand the lot to
	// obs.WriteMergedChromeTrace for one cluster-wide timeline.
	Traces []obs.NodeTrace
	// ClockOffsets maps node IDs to their estimated clock offset relative
	// to the master (nanoseconds, worker minus master); empty when the run
	// was not observed (no metrics or tracer).
	ClockOffsets map[string]int64
	// DeadWorkers lists node IDs declared dead during the run (failover
	// runs only; a death without failover fails the run instead).
	DeadWorkers []string
	// Replayed counts the logged store frames replayed to rebuilt workers.
	Replayed int64
}

// doneRec is one producer completion — of one share, for a split kernel —
// recorded for dedup (a rebuilt worker re-executes its kernels and
// re-announces their completions) and for replay ordering (a rebuilt worker
// must hear about remote completions after the replayed stores — a done
// marks generations complete, and under merge mode a store into a completed
// generation is silently dropped).
type doneRec struct {
	kernel     string
	share, age int
}

// peer is everything the master knows about one connected node. A worker's
// record sits in master.peers at its worker index for the whole run, dead or
// alive; a standby's waits in master.standbys until a death promotes it.
type peer struct {
	conn  Conn
	out   outbox // what the master sends it, drained by its writer
	idx   int    // worker index (the values of MasterResult.Assignment); -1 for a standby
	id    string
	cores int
	speed float64
	// offset is the node's clock minus the master's, estimated at
	// registration; zero when the run is not observed.
	offset int64
	// flight holds the flight times of the node's messages (clock-offset
	// corrected); nil without metrics.
	flight *obs.Histogram

	kernels  []string        // the unsplit kernels it runs; nil for a standby and after its death
	shares   []int           // the index shares of every split kernel it runs, likewise
	consumes map[string]bool // the fields those kernels fetch

	// Accounting since the node's last assignment (assign restarts it).
	forwarded  int64 // messages sent to it that its MStatus.Received counts
	status     Msg   // its latest MStatus
	statusSeen bool  // status answers the latest ping
	lastHeard  time.Time
	dead       bool
}

// inbound is one receive on a connection, or a master's failed send, as the
// reader or writer hands it to the loop (from names the node; nil on a worker).
type inbound struct {
	from *peer
	msg  *Msg
	err  error
}

// master is the control plane's state: the paper's §IV master as one value
// and the handlers that advance it. RunMaster feeds it one event at a time —
// handle for an inbound event, tick for the poll timer — and nothing else
// touches it. Neither waits on a connection: a send is an append to the
// peer's outbox, their one hand-off to another goroutine, so a simulator can
// drive the same two methods in place of the writers.
type master struct {
	cfg MasterConfig // with the defaults of its zero fields filled in
	// observed: metrics or a tracer were asked for, so clocks are synced at
	// registration. Plain runs skip the probes.
	observed bool

	nodes    []*peer // one per connection RunMaster was handed, in that order
	peers    []*peer // workers, by worker index
	standbys []*peer

	fin        *graph.Final
	cost       sched.Cost
	kernelNode map[string]int // unsplit kernel → worker index
	// Index shares: with more than one worker at setup every indexed kernel
	// is split into one share per worker, weighted by that worker's
	// capacity. The split is fixed for the run; a dead worker's shares move
	// whole. weights and owner are indexed by share (owner holds worker
	// indices); both are empty when nothing is split.
	split          map[string]bool
	weights, owner []int
	// Subscriber maps: which workers consume each field, and which need
	// each kernel's completion events (they consume a field it stores).
	fieldSubs, kernelSubs map[string][]*peer

	// log holds every store frame brokered, the master's only field data.
	log *StoreLog

	// inbox carries every receive and failed send to the loop. Once it is
	// over, stop is closed and readers and writers drop what they would
	// post, so a full inbox never strands them; gone counts them.
	inbox chan inbound
	stop  chan struct{}
	gone  sync.WaitGroup

	reports  map[string]*runtime.Report
	doneSeen map[doneRec]bool
	doneLog  []doneRec
	traces   []obs.NodeTrace
	deadIDs  []string
	replayed int64

	stableRounds      int
	lastTotal         int64
	lastTick          time.Time
	running, stopSent bool

	// Frame and failure accounting (nil-safe without metrics), created up
	// front so a healthy run exports its zeros.
	mFrames, mFrameBytes, mDeaths, mFailovers, mReplayed *obs.Counter
}

// RunMaster drives a distributed execution over already-established
// connections: registration, partitioning, assignment, event brokering,
// global quiescence detection, failure detection and recovery, shutdown and
// report collection. Each connection's first message says what it is: a
// worker (MRegister) takes part in the initial partition, a standby (MJoin)
// waits to replace a worker that dies.
// Past the registration handshake the master never waits on a connection:
// every send is queued for the peer's writer goroutine, and a failed send
// reaches the loop like a failed receive. No goroutine it starts outlives it.
func RunMaster(cfg MasterConfig, conns []Conn) (*MasterResult, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("dist: master needs at least one worker")
	}
	m := newMaster(cfg, conns)
	if err := m.setup(); err != nil {
		return nil, m.shutdown(err)
	}
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	for !m.stopSent || m.awaitingReports() {
		var err error
		select {
		case in := <-m.inbox:
			err = m.handle(in)
		case <-ticker.C:
			err = m.tick(time.Now())
		}
		if err != nil {
			return nil, m.shutdown(err)
		}
	}
	return m.finish(), nil
}

// pollInterval is the period of the master's tick: the quiescence-detection
// status pings and the liveness check.
const pollInterval = 2 * time.Millisecond

func newMaster(cfg MasterConfig, conns []Conn) *master {
	if cfg.Liveness <= 0 {
		cfg.Liveness = defaultLiveness
	}
	m := &master{
		cfg:         cfg,
		observed:    cfg.Metrics != nil || cfg.Tracer != nil,
		kernelNode:  map[string]int{},
		inbox:       make(chan inbound, 1024),
		stop:        make(chan struct{}),
		reports:     map[string]*runtime.Report{},
		doneSeen:    map[doneRec]bool{},
		lastTotal:   -1,
		mFrames:     cfg.Metrics.Counter(obs.MDistFramesTotal),
		mFrameBytes: cfg.Metrics.Counter(obs.MDistFrameBytesTotal),
		mDeaths:     cfg.Metrics.Counter(obs.MDistWorkerDeaths),
		mFailovers:  cfg.Metrics.Counter(obs.MDistFailovers),
		mReplayed:   cfg.Metrics.Counter(obs.MDistReplayedFrames),
	}
	for _, c := range conns {
		p := &peer{conn: c, idx: -1}
		p.out.cond.L = &p.out.mu
		m.nodes = append(m.nodes, p)
		m.gone.Add(1)
		go m.write(p)
	}
	return m
}

// setup takes the run from connected to running: the topology is collected,
// the final graph partitioned over it and every worker assigned its
// partition.
func (m *master) setup() error {
	if err := m.cfg.Prog.Validate(); err != nil {
		return err
	}
	m.log = newStoreLog(m.cfg.Prog, m.cfg.Failover)
	if err := m.register(); err != nil {
		return err
	}
	m.cfg.View.setPhase("partitioning")
	// The final implicit static dependency graph, weighted with prior
	// instrumentation when available.
	m.fin = graph.BuildFinal(m.cfg.Prog)
	if err := m.fin.CheckSchedulable(); err != nil {
		return err
	}
	if m.cfg.Weights != nil {
		sched.ApplyInstrumentation(m.fin, m.cfg.Weights)
	}
	m.splitShares()
	var whole []string
	for _, kn := range m.fin.Nodes {
		if !m.split[kn.Name] {
			whole = append(whole, kn.Name)
		}
	}
	var err error
	if _, m.cost, err = m.place(whole); err != nil {
		return err
	}
	m.subscribe()
	m.cfg.View.setAssignment(m.kernelNode, m.shareMap(), m.cfg.Method.String())
	m.assign(m.peers)
	for _, p := range m.peers {
		m.listen(p)
	}
	m.running = true
	m.cfg.View.setPhase("running")
	return nil
}

// register reads each connection's first message and files the node under
// workers (MRegister) or standbys (MJoin) — nodes classify themselves, so
// they may connect in any order — then, in an observed run, estimates its
// clock offset so spans and flight times land on one timeline — the one
// exchange made on a connection directly, before anything is queued, and so
// the one the liveness window bounds through the transport.
func (m *master) register() error {
	for i, p := range m.nodes {
		p.conn.SetIdleTimeout(m.cfg.Liveness)
		first, err := p.conn.Recv()
		if err != nil {
			return fmt.Errorf("dist: connection %d/%d: waiting for registration: %w", i+1, len(m.nodes), err)
		}
		p.id, p.cores, p.speed = first.NodeID, first.Cores, first.Speed
		switch first.Kind {
		case MRegister:
			m.enroll(p)
		case MJoin:
			m.standbys = append(m.standbys, p)
		default:
			return fmt.Errorf("dist: expected registration, got %v", first.Kind)
		}
		if m.observed {
			if p.offset, err = estimateClockOffset(p.conn, clockProbes); err != nil {
				return fmt.Errorf("dist: syncing clock of %s: %w", p.id, err)
			}
		}
		p.conn.SetIdleTimeout(0) // from here on tick's scan detects silence
	}
	if len(m.peers) == 0 {
		return fmt.Errorf("dist: master needs at least one worker, got %d standbys", len(m.standbys))
	}
	m.cfg.View.setLiveness(m.cfg.Liveness, m.cfg.Failover, len(m.standbys))
	return nil
}

// enroll makes p a worker: it takes the next worker index.
func (m *master) enroll(p *peer) {
	p.idx = len(m.peers)
	m.peers = append(m.peers, p)
	if m.cfg.Metrics != nil {
		p.flight = m.cfg.Metrics.Histogram(obs.Label(obs.MStageFlightNs, "node", p.id))
	}
	m.cfg.View.registerWorker(p.idx, p.id, p.cores, p.speed)
}

// splitShares splits every indexed kernel of a run with more than one worker
// into one index share per worker, weighted by its capacity and owned by it.
func (m *master) splitShares() {
	if len(m.peers) < 2 {
		return
	}
	m.split = map[string]bool{}
	for _, k := range m.cfg.Prog.Kernels {
		if len(k.IndexVars) > 0 {
			m.split[k.Name] = true
		}
	}
	caps := make([]float64, len(m.peers))
	m.owner = make([]int, len(m.peers))
	for i, p := range m.peers {
		caps[i] = p.capacity()
		m.owner[i], p.shares = i, []int{i}
	}
	m.weights = shareWeights(caps)
}

// shareWeights sizes one share per capacity: the capacity in quarters
// (cores × speed, at least one), reduced by the weights' common divisor so
// that equal capacities deal granules strictly round robin.
func shareWeights(caps []float64) []int {
	w := make([]int, len(caps))
	g := 0
	for i, c := range caps {
		w[i] = max(1, int(math.Round(4*c)))
		g = gcd(g, w[i])
	}
	for i := range w {
		w[i] /= g
	}
	return w
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (p *peer) capacity() float64 {
	return sched.ExecNode{Cores: p.cores, Speed: p.speed}.Capacity()
}

// dealShares hands each of a dead worker's shares to the live worker whose
// share weight per capacity stays lowest with it, and returns the workers
// that gained shares.
func (m *master) dealShares(shares []int) []*peer {
	var gained []*peer
	for _, s := range shares {
		var best *peer
		var bestLoad float64
		for _, p := range m.peers {
			if p.dead {
				continue
			}
			held := m.weights[s]
			for _, o := range p.shares {
				held += m.weights[o]
			}
			if load := float64(held) / p.capacity(); best == nil || load < bestLoad {
				best, bestLoad = p, load
			}
		}
		if best == nil {
			return nil
		}
		best.shares = append(best.shares, s)
		m.owner[s] = best.idx
		if !slices.Contains(gained, best) {
			gained = append(gained, best)
		}
	}
	return gained
}

// place partitions the final graph's unsplit kernels over the live workers
// and hands each of the named kernels to the worker the partition chose for
// it. Kernels not named stay where they are — moving a live kernel would
// force a needless rebuild. It returns the workers that gained kernels and
// the partition's cost.
func (m *master) place(kernels []string) ([]*peer, sched.Cost, error) {
	topo := sched.Topology{Bandwidth: 1}
	var live []*peer
	for _, p := range m.peers {
		if !p.dead {
			topo = topo.Add(p.id, p.cores, p.speed)
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil, sched.Cost{}, fmt.Errorf("no surviving workers to take over %d kernels", len(kernels))
	}
	split := make([]bool, len(m.fin.Nodes))
	for i, kn := range m.fin.Nodes {
		split[i] = m.split[kn.Name]
	}
	assign, cost, err := sched.PartitionSplit(m.fin, topo, m.cfg.Method, split)
	if err != nil {
		return nil, cost, err
	}
	var gained []*peer
	for i, kn := range m.fin.Nodes {
		if !slices.Contains(kernels, kn.Name) {
			continue
		}
		p := live[assign[i]]
		p.kernels = append(p.kernels, kn.Name)
		m.kernelNode[kn.Name] = p.idx
		if !slices.Contains(gained, p) {
			gained = append(gained, p)
		}
	}
	return gained, cost, nil
}

// subscribe rebuilds the subscriber maps from the workers' partitions; run
// after every change of assignment. A worker hears the completions of every
// kernel that stores a field it consumes and, when it runs a source, of
// every split kernel that fetches from it: their shares pace the source.
func (m *master) subscribe() {
	m.fieldSubs = map[string][]*peer{}
	m.kernelSubs = map[string][]*peer{}
	for _, p := range m.peers {
		p.consumes = map[string]bool{}
		for _, k := range m.cfg.Prog.Kernels {
			if m.runsKernel(p, k.Name) {
				for _, f := range k.Fetches {
					p.consumes[f.Field] = true
				}
			}
		}
	}
	for _, f := range m.cfg.Prog.Fields {
		for _, p := range m.peers {
			if p.consumes[f.Name] {
				m.fieldSubs[f.Name] = append(m.fieldSubs[f.Name], p)
			}
		}
	}
	sub := func(kernel string, p *peer) {
		if !slices.Contains(m.kernelSubs[kernel], p) {
			m.kernelSubs[kernel] = append(m.kernelSubs[kernel], p)
		}
	}
	for _, k := range m.cfg.Prog.Kernels {
		for _, s := range k.Stores {
			for _, p := range m.fieldSubs[s.Field] {
				sub(k.Name, p)
			}
		}
		if !m.split[k.Name] {
			continue
		}
		for _, f := range k.Fetches {
			for _, src := range m.cfg.Prog.Producers(f.Field) {
				if owner, ok := m.kernelNode[src.Kernel.Name]; ok && src.Kernel.Source() {
					sub(k.Name, m.peers[owner])
				}
			}
		}
	}
}

// runsKernel reports whether p runs kernel — all of it, or shares of it.
func (m *master) runsKernel(p *peer, kernel string) bool {
	if m.split[kernel] {
		return len(p.shares) > 0
	}
	return slices.Contains(p.kernels, kernel)
}

// produces reports whether p itself produces what a completion of kernel at
// share announces: a worker is never told of its own completions.
func (m *master) produces(p *peer, kernel string, share int) bool {
	if m.split[kernel] {
		return m.owner[share] == p.idx
	}
	return slices.Contains(p.kernels, kernel)
}

// shareMap lists, per split kernel, the node owning each of its shares.
func (m *master) shareMap() map[string][]string {
	if len(m.split) == 0 {
		return nil
	}
	ids := make([]string, len(m.owner))
	for s, w := range m.owner {
		ids[s] = m.peers[w].id
	}
	out := make(map[string][]string, len(m.split))
	for k := range m.split {
		out[k] = ids
	}
	return out
}

// assign is the one way a node is given kernels, at the start of the run and
// after a death alike: MAssign carries the node's whole partition, MStart
// follows with the clock-sync result (so the worker can correct
// master-stamped timestamps), and the node's accounting restarts — a worker
// builds its node from scratch on every MAssign and counts from zero. Every
// assignment is queued before the first start, so the nodes build in
// parallel.
func (m *master) assign(targets []*peer) {
	for _, p := range targets {
		p.out.push(&Msg{Kind: MAssign, Kernels: p.kernels, ShareWeights: m.weights, Shares: p.shares, Spec: m.cfg.Spec, TraceOn: m.cfg.Tracer != nil, Failover: m.cfg.Failover})
	}
	for _, p := range targets {
		p.out.push(&Msg{Kind: MStart, OffsetNs: p.offset, Synced: m.observed, Liveness: m.cfg.Liveness, SentNs: time.Now().UnixNano()})
		p.forwarded, p.status, p.statusSeen, p.lastHeard = 0, Msg{}, false, time.Now()
	}
}

// listen starts p's reader, which feeds the loop until the connection fails
// or the run ends.
func (m *master) listen(p *peer) {
	m.gone.Add(1)
	go func() {
		defer m.gone.Done()
		for {
			msg, err := p.conn.Recv()
			m.post(inbound{from: p, msg: msg, err: err})
			if err != nil {
				return
			}
		}
	}()
}

// write is p's writer: it sends p's queue in order until it is hung up and
// empty, then closes the connection. A failed send goes to the loop like a
// failed receive.
func (m *master) write(p *peer) {
	defer m.gone.Done()
	defer p.conn.Close()
	for msg := p.out.next(); msg != nil; msg = p.out.next() {
		if err := p.conn.Send(msg); err != nil {
			m.post(inbound{from: p, err: err})
			return
		}
	}
}

// post hands the loop one event, or drops it once the loop is over.
func (m *master) post(in inbound) {
	select {
	case m.inbox <- in:
	case <-m.stop:
	}
}

// outbox is one peer's unbounded send queue, the only hand-off between the
// loop, which appends and never waits, and the peer's writer, which sends in
// order. A bound would buy nothing: every frame it can hold is retained by the
// StoreLog anyway. A status ping waits in a slot of its own, at most one per
// peer, and overtakes queued frames and completions — never a queued MAssign
// or MStart — so liveness never waits behind the master's own replay. It
// overtakes one message at a time: after a ping the next queued message goes
// before another ping, so a send slower than the poll interval cannot leave
// the queue behind a ping every time.
type outbox struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu
	queue  []*Msg    // sent from head on; reused once drained
	head   int
	fence  int  // a ping waits until head passes the last queued MAssign or MStart
	ping   *Msg // the pending status ping
	pinged bool // the last message sent was a ping
	hungUp bool // no more pushes: send what is queued, then close
}

func (o *outbox) push(msg *Msg) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cond.Signal()
	if msg.Kind == MPing {
		o.ping = msg
		return
	}
	o.queue = append(o.queue, msg)
	if msg.Kind == MAssign || msg.Kind == MStart {
		o.fence = len(o.queue)
	}
}

// hangUp ends the queue; a set last replaces whatever is still queued.
func (o *outbox) hangUp(last *Msg) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cond.Signal()
	if last != nil {
		o.queue, o.head, o.fence = []*Msg{last}, 0, 0
	}
	o.ping, o.hungUp = nil, true
}

// next waits for the message to send next; nil once hung up and empty.
func (o *outbox) next() (msg *Msg) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.ping == nil && o.head == len(o.queue) && !o.hungUp {
		o.cond.Wait()
	}
	if o.ping != nil && o.head >= o.fence && !(o.pinged && o.head < len(o.queue)) {
		msg, o.ping, o.pinged = o.ping, nil, true
	} else if o.head < len(o.queue) {
		msg, o.queue[o.head], o.pinged = o.queue[o.head], nil, false
		if o.head++; o.head == len(o.queue) {
			o.queue, o.head, o.fence = o.queue[:0], 0, 0
		}
	}
	return msg
}

// handle advances the master by one inbound event: a worker's message is
// brokered to its subscribers (a store frame is also logged), or folded into
// the worker's record; a failed receive or send is the worker's death.
func (m *master) handle(in inbound) error {
	p := in.from
	if in.err != nil {
		// A connection failing after its report, after its death or after a
		// standby's release is the expected end of it.
		if m.reported(p) || p.idx < 0 {
			return nil
		}
		return m.die(p, in.err)
	}
	msg := in.msg
	p.lastHeard = time.Now()
	p.observeFlight(msg)
	if p.dead && msg.Kind != MStoreFrame && msg.Kind != MDone {
		// A declared-dead worker's buffered data is still valid (it was
		// produced before the death was noticed and its generations are
		// write-once), but its control messages describe a worker that
		// no longer participates.
		return nil
	}
	switch msg.Kind {
	case MStoreFrame:
		// The envelope's Field/Age mirror the frame header, so routing
		// and logging need no decode: the frame bytes are logged and
		// forwarded to subscribers as-is.
		brokerFrom := m.cfg.Tracer.Now()
		if err := m.log.add(msg.Field, msg.Age, msg.Frame); err != nil {
			return err
		}
		m.mFrames.Inc()
		m.mFrameBytes.Add(int64(len(msg.Frame)))
		m.forward(p, m.fieldSubs[msg.Field], msg, nil)
		if tr := m.cfg.Tracer; tr != nil {
			// The broker hop of the frame's causal trace: the log
			// append plus the fan-out to subscribers.
			tr.Record(obs.Span{
				Name: "broker " + msg.Field, Cat: "dist", Ph: obs.PhaseComplete,
				TS: brokerFrom, Dur: tr.Now() - brokerFrom,
				Age: msg.Age, Trace: msg.Trace, Flow: obs.FlowStep,
			})
		}
	case MDone:
		d := doneRec{kernel: msg.Kernel, share: msg.Share, age: msg.Age}
		if m.doneSeen[d] {
			// A rebuilt worker re-executes its kernels and re-announces
			// completions the cluster already accounted for. Forwarding
			// a duplicate would overshoot a subscriber's producer count
			// and mark generations complete while a slower producer is
			// still storing — merge mode would then silently drop its
			// legitimate stores.
			return nil
		}
		m.doneSeen[d] = true
		m.doneLog = append(m.doneLog, d)
		m.forward(p, m.kernelSubs[msg.Kernel], msg, func(q *peer) bool { return m.produces(q, msg.Kernel, msg.Share) })
	case MStatus:
		p.status = *msg
		p.statusSeen = true
		m.cfg.View.updateWorker(p.idx, msg.Idle, msg.Sent, msg.Received, msg.Metrics)
	case MReport:
		m.reports[p.id] = msg.Report
		m.cfg.View.workerDone(p.idx, msg.Report)
		if m.cfg.Tracer != nil {
			m.traces = append(m.traces, obs.NodeTrace{
				Node:        p.id,
				PID:         p.idx + 2, // pid 1 is the master's lane
				StartUnixNs: msg.TraceStartNs,
				OffsetNs:    p.offset,
				Dropped:     msg.TraceDropped,
				Spans:       msg.Spans,
			})
		}
	case MError:
		return fmt.Errorf("dist: worker %s failed: %s", p.id, msg.Err)
	}
	return nil
}

// observeFlight records how long a worker message spent in flight: master
// receive time minus the worker's send stamp rebased to the master clock.
// Clamped at zero — the offset estimate has RTT/2 error, so fast messages can
// appear to arrive before they left.
func (p *peer) observeFlight(msg *Msg) {
	if p.flight == nil || msg.SentNs == 0 {
		return
	}
	flight := time.Now().UnixNano() - (msg.SentNs - p.offset)
	p.flight.Observe(time.Duration(max(flight, 0)))
}

// forward fans one worker's event out to its subscribers, except the sender
// and those skip names. The envelope is shared, not copied: no transport
// mutates a message it sends.
func (m *master) forward(from *peer, subs []*peer, msg *Msg, skip func(*peer) bool) {
	for _, p := range subs {
		if p != from && !p.dead && (skip == nil || !skip(p)) {
			p.out.push(msg)
			p.forwarded++
		}
	}
}

func (m *master) reported(p *peer) bool {
	_, ok := m.reports[p.id]
	return ok
}

// awaitingReports reports whether a live worker still owes its final report.
func (m *master) awaitingReports() bool {
	for _, p := range m.peers {
		if !p.dead && !m.reported(p) {
			return true
		}
	}
	return false
}

// tick advances the master by one poll interval: the liveness scan, then —
// until the stop has gone out — the quiescence check, which ends in either
// the stop or the next round of status pings.
func (m *master) tick(now time.Time) error {
	// The scan is the one detector of a silent running worker. It runs in
	// every phase — including after the stop was sent, where a worker dying
	// between its last heartbeat and its report would otherwise hang report
	// collection forever. Past it every live worker was heard from within
	// the window: quiescence trusts no stale status. A tick more than a
	// window after the last one is the master's own stall, whose messages
	// wait unread in the inbox: silence is measured from this tick.
	stalled := !m.lastTick.IsZero() && now.Sub(m.lastTick) > m.cfg.Liveness
	m.lastTick = now
	for _, p := range m.peers {
		if p.dead || m.reported(p) {
			continue
		}
		if stalled {
			p.lastHeard = now
		}
		if silent := now.Sub(p.lastHeard); silent > m.cfg.Liveness {
			cause := fmt.Errorf("silent %v, past the liveness window %v", silent.Round(time.Millisecond), m.cfg.Liveness)
			if err := m.die(p, cause); err != nil {
				return err
			}
		}
	}
	if m.stopSent {
		return nil
	}
	quiet := true
	var total int64
	for _, p := range m.peers {
		if p.dead {
			continue
		}
		if !p.statusSeen || !p.status.Idle || p.status.Received != p.forwarded {
			quiet = false
		}
		total += p.status.Sent + p.status.Received
	}
	if quiet && total == m.lastTotal {
		m.stableRounds++
	} else {
		m.stableRounds = 0
	}
	m.lastTotal = total
	if m.stableRounds >= 2 {
		m.requestStop()
		return nil
	}
	for _, p := range m.peers {
		if !p.dead {
			p.statusSeen = false
			p.out.push(&Msg{Kind: MPing, WantMetrics: m.cfg.View != nil, SentNs: now.UnixNano()})
		}
	}
	return nil
}

// requestStop ends a quiescent run: every live worker is asked to stop —
// with a Tracer, to put its span buffer on its report — and the standbys that
// were never needed are released.
func (m *master) requestStop() {
	m.stopSent = true
	for _, p := range m.peers {
		if !p.dead {
			p.out.push(&Msg{Kind: MStopReq, TraceOn: m.cfg.Tracer != nil})
		}
	}
	for _, sb := range m.standbys {
		sb.out.hangUp(&Msg{Kind: MStopReq})
	}
	m.standbys = nil
}

// die declares a worker dead, for a failed connection (handle) or silence
// (tick). Without failover it returns the error that fails the run (named
// after the worker); with failover it recovers — a death during a recovery
// included — unless quiescence was already reached, in which case all data is
// safe in the log and only the worker's report is lost.
func (m *master) die(p *peer, cause error) error {
	if p.dead {
		return nil
	}
	p.dead = true
	m.deadIDs = append(m.deadIDs, p.id)
	p.conn.Close() // fails the writer's send, blocked or next
	m.mDeaths.Inc()
	m.cfg.View.workerDead(p.idx)
	if !m.cfg.Failover {
		return fmt.Errorf("dist: worker %s: %w", p.id, cause)
	}
	if m.stopSent {
		return nil
	}
	return m.recover(p)
}

// recover reassigns a dead worker's kernels — to the first standby when one
// is waiting, else to survivors chosen by a fresh HLS partition over the
// remaining topology — and replays the lost state to every affected worker.
// Reassignment is assignment: the affected workers get their whole new
// partition through assign, exactly as at the start of the run.
func (m *master) recover(dead *peer) error {
	lost, lostShares := dead.kernels, dead.shares
	dead.kernels, dead.shares = nil, nil
	if len(lost) == 0 && len(lostShares) == 0 {
		return nil
	}
	m.mFailovers.Inc()
	var targets []*peer
	if len(m.standbys) > 0 {
		sb := m.standbys[0]
		m.standbys = m.standbys[1:]
		m.enroll(sb)
		m.cfg.View.setLiveness(m.cfg.Liveness, m.cfg.Failover, len(m.standbys))
		m.listen(sb)
		sb.kernels, sb.shares = lost, lostShares
		for _, k := range lost {
			m.kernelNode[k] = sb.idx
		}
		for _, s := range lostShares {
			m.owner[s] = sb.idx
		}
		targets = []*peer{sb}
	} else {
		var err error
		if targets, _, err = m.place(lost); err != nil {
			return fmt.Errorf("dist: repartitioning after loss of %s: %w", dead.id, err)
		}
		// Shares are never re-split: each moves whole to a survivor.
		for _, p := range m.dealShares(lostShares) {
			if !slices.Contains(targets, p) {
				targets = append(targets, p)
			}
		}
	}
	m.subscribe()
	m.cfg.View.setAssignment(m.kernelNode, m.shareMap(), m.cfg.Method.String())
	m.assign(targets)
	for _, t := range targets {
		m.replay(t)
	}
	// The cluster must restabilize from scratch: the rebuilt workers
	// re-execute their kernels before quiescence means anything.
	m.stableRounds = 0
	m.lastTotal = -1
	return nil
}

// replay queues for a rebuilt worker the message stream it would have
// received from the start of the run: the logged store frames of every field
// it consumes, in arrival order, then every remote producer completion it
// subscribes to, in original order. Stores strictly before dones — a done
// marks its generations complete, and merge mode silently drops stores into
// completed generations.
func (m *master) replay(t *peer) {
	for _, fd := range m.cfg.Prog.Fields {
		if !t.consumes[fd.Name] {
			continue
		}
		for _, lf := range m.log.frames[fd.Name] {
			t.out.push(&Msg{Kind: MStoreFrame, Field: fd.Name, Age: lf.age, Frame: lf.frame})
			t.forwarded++
			m.replayed++
			m.mReplayed.Inc()
		}
	}
	for _, d := range m.doneLog {
		if !m.produces(t, d.kernel, d.share) && slices.Contains(m.kernelSubs[d.kernel], t) {
			t.out.push(&Msg{Kind: MDone, Kernel: d.kernel, Age: d.age, Share: d.share})
			t.forwarded++
		}
	}
}

// shutdown fails the run and returns err. Nodes still in their handshake are
// told why (MError) — they would otherwise wait forever on a master that
// already returned. Once the run is under way survivors are asked to stop
// instead: a worker that only saw its connection drop would return an error
// with its node state still live, while MStopReq routes it through the normal
// stop path (teardown, slab release). Best effort either way — a broken
// connection that caused the failure will refuse the send.
func (m *master) shutdown(err error) error {
	m.cfg.View.setPhase("failed: " + err.Error())
	bye := &Msg{Kind: MError, Err: err.Error()}
	if m.running {
		bye = &Msg{Kind: MStopReq}
	}
	m.hangUp(bye)
	return err
}

// hangUp ends every connection once the loop is over: each writer sends what
// is queued — only last, when set — and closes the connection, ending its
// reader too. Connections still open a liveness window later, to peers that
// stopped reading, are closed under their writers.
func (m *master) hangUp(last *Msg) {
	for _, p := range m.nodes {
		p.out.hangUp(last)
	}
	close(m.stop)
	release := time.AfterFunc(m.cfg.Liveness, func() {
		for _, p := range m.nodes {
			p.conn.Close()
		}
	})
	defer release.Stop()
	m.gone.Wait()
}

// finish closes a completed run and assembles its result.
func (m *master) finish() *MasterResult {
	m.hangUp(nil)
	m.cfg.View.setPhase("done")
	clockOffsets := map[string]int64{}
	if m.observed {
		for _, p := range m.peers {
			clockOffsets[p.id] = p.offset
		}
	}
	return &MasterResult{
		Assignment:   m.kernelNode,
		Shares:       m.shareMap(),
		Cost:         m.cost,
		Reports:      m.reports,
		Shadow:       m.log,
		Traces:       m.traces,
		ClockOffsets: clockOffsets,
		DeadWorkers:  m.deadIDs,
		Replayed:     m.replayed,
	}
}
