package dist

import (
	"fmt"
	"net"
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
	// Method selects the HLS partitioning algorithm.
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
	// PollInterval is the quiescence-detection ping period; zero selects
	// 2ms.
	PollInterval time.Duration
	// View, when set, is kept current with the run's phase, assignment and
	// per-worker heartbeats — it backs the master's /statusz endpoint.
	View *ClusterView
	// Metrics, when set, instruments the master's shadow node, and the
	// broker additionally records per-worker message flight times
	// (clock-offset corrected) under obs.MStageFlightNs.
	Metrics *obs.Registry
	// Tracer, when set, records the master's own spans: the shadow node's
	// lifecycle plus one broker span per forwarded store frame, tagged with
	// the frame's causal trace id.
	Tracer *obs.Tracer
	// CollectTraces pulls every worker's span buffer at shutdown
	// (MTraceReq/MTrace) into MasterResult.Traces, clock-aligned and ready
	// for obs.WriteMergedChromeTrace. Implied by Tracer for the handshake's
	// clock sync, but useful alone: workers trace, the master only merges.
	CollectTraces bool

	// Failover enables recovery from worker failures: a dead worker's
	// kernels are reassigned (to a standby from Standbys, else to survivors
	// via a fresh HLS partition over the remaining topology) and the
	// affected workers rebuild and receive the lost write-once field
	// generations replayed from the master's shadow node. Off (the
	// default), a worker failure fails the run — the fail-fast A/B
	// reference.
	Failover bool
	// Heartbeat is the liveness accounting interval: a worker silent for
	// MaxMissed of these is declared dead. Zero selects 100ms. (Status
	// pings still go at PollInterval; any inbound message counts as a
	// heartbeat.)
	Heartbeat time.Duration
	// MaxMissed is the number of missed heartbeat intervals after which a
	// worker is declared dead. Zero disables the liveness monitor unless
	// Failover is on, which defaults it to 3.
	MaxMissed int
	// IdleTimeout, when positive, bounds every blocking transport
	// operation on the worker connections (see IdleTimeoutConn), so a
	// half-open connection surfaces as a worker-named error instead of
	// wedging RunMaster forever. It must comfortably exceed the longest
	// legitimate silence (worker teardown between MStopReq and MReport).
	IdleTimeout time.Duration
	// Standbys are connections to spare workers that registered with MJoin
	// instead of MRegister: they receive no initial partition and wait;
	// on a worker death (with Failover) the first standby is promoted via
	// MAssign/MStart. Unused standbys are released with MStopReq at
	// shutdown.
	Standbys []Conn
}

// MasterResult is the outcome of a distributed run.
type MasterResult struct {
	// Assignment maps kernel names to worker indices (reflecting any
	// failover reassignments).
	Assignment map[string]int
	// Cost is the HLS cost of the chosen assignment.
	Cost sched.Cost
	// Reports holds each worker's instrumentation report by node ID.
	Reports map[string]*runtime.Report
	// Shadow is the master's field replica: it observed every store, so
	// Snapshot on it returns the complete program state.
	Shadow *runtime.Node
	// Traces holds each worker's clock-aligned span bundle (only with
	// CollectTraces); append the master's own tracer bundle and hand the
	// lot to obs.WriteMergedChromeTrace for one cluster-wide timeline.
	Traces []obs.NodeTrace
	// ClockOffsets maps node IDs to their estimated clock offset relative
	// to the master (nanoseconds, worker minus master); empty when the run
	// was not observed (no metrics, tracer, or trace collection).
	ClockOffsets map[string]int64
	// DeadWorkers lists node IDs declared dead during the run (failover
	// runs only; a death without failover fails the run instead).
	DeadWorkers []string
	// Replayed counts field generations replayed to rebuilt workers.
	Replayed int64
}

// doneRec is one producer completion, recorded for dedup (a rebuilt worker
// re-executes its kernels and re-announces their completions) and for replay
// ordering (a rebuilt worker must hear about remote completions after the
// replayed stores — a done marks generations complete, and under merge mode
// a store into a completed generation is silently dropped).
type doneRec struct {
	kernel string
	age    int
}

// RunMaster drives a distributed execution over already-established worker
// connections: registration, partitioning, assignment, event brokering,
// global quiescence detection, failure detection and recovery, shutdown and
// report collection.
func RunMaster(cfg MasterConfig, conns []Conn) (*MasterResult, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("dist: master needs at least one worker")
	}
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	heartbeat := cfg.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 100 * time.Millisecond
	}
	maxMissed := cfg.MaxMissed
	if maxMissed <= 0 && cfg.Failover {
		maxMissed = 3
	}
	var liveTimeout time.Duration
	if maxMissed > 0 {
		liveTimeout = time.Duration(maxMissed) * heartbeat
	}
	if cfg.IdleTimeout > 0 {
		for _, c := range conns {
			SetConnIdleTimeout(c, cfg.IdleTimeout)
		}
		for _, c := range cfg.Standbys {
			SetConnIdleTimeout(c, cfg.IdleTimeout)
		}
	}
	cfg.View.setLiveness(heartbeat, maxMissed, cfg.Failover, len(cfg.Standbys))

	// abort fails the run before the broker loop exists. Every worker is
	// blocked in its handshake at this point; telling them why (and closing)
	// lets them tear down instead of waiting forever on a master that
	// already returned.
	abort := func(err error) error {
		cfg.View.setPhase("failed: " + err.Error())
		for _, c := range conns {
			c.Send(&Msg{Kind: MError, Err: err.Error()})
			c.Close()
		}
		for _, c := range cfg.Standbys {
			c.Send(&Msg{Kind: MError, Err: err.Error()})
			c.Close()
		}
		return err
	}

	if err := cfg.Prog.Validate(); err != nil {
		return nil, abort(err)
	}

	// Registration: collect the global topology.
	type workerCap struct {
		cores int
		speed float64
	}
	topo := sched.Topology{Bandwidth: 1}
	ids := make([]string, len(conns))
	caps := make([]workerCap, len(conns))
	for i, c := range conns {
		m, err := c.Recv()
		if err != nil {
			return nil, abort(fmt.Errorf("dist: waiting for registration: %w", err))
		}
		if m.Kind != MRegister {
			return nil, abort(fmt.Errorf("dist: expected registration, got %v", m.Kind))
		}
		ids[i] = m.NodeID
		caps[i] = workerCap{cores: m.Cores, speed: m.Speed}
		topo = topo.Add(m.NodeID, m.Cores, m.Speed)
		cfg.View.registerWorker(i, m.NodeID, m.Cores, m.Speed)
	}
	// Standby registration: they join the roster but not the topology.
	type standbyWorker struct {
		conn   Conn
		id     string
		cores  int
		speed  float64
		offset int64
	}
	var standbys []standbyWorker
	for _, c := range cfg.Standbys {
		m, err := c.Recv()
		if err != nil {
			return nil, abort(fmt.Errorf("dist: waiting for standby join: %w", err))
		}
		if m.Kind != MJoin {
			return nil, abort(fmt.Errorf("dist: expected standby join, got %v", m.Kind))
		}
		standbys = append(standbys, standbyWorker{conn: c, id: m.NodeID, cores: m.Cores, speed: m.Speed})
	}

	// Clock sync: estimate each worker's offset so spans and flight times
	// land on one timeline. Gated on observability being requested — the
	// probes add handshake round trips, and workers that predate the
	// protocol extension tolerate them but plain runs shouldn't pay.
	observed := cfg.Metrics != nil || cfg.Tracer != nil || cfg.CollectTraces
	offsets := make([]int64, len(conns))
	if observed {
		for i, c := range conns {
			off, err := estimateClockOffset(c, clockProbes)
			if err != nil {
				return nil, abort(fmt.Errorf("dist: syncing clock of %s: %w", ids[i], err))
			}
			offsets[i] = off
		}
		for i := range standbys {
			off, err := estimateClockOffset(standbys[i].conn, clockProbes)
			if err != nil {
				return nil, abort(fmt.Errorf("dist: syncing clock of standby %s: %w", standbys[i].id, err))
			}
			standbys[i].offset = off
		}
	}
	cfg.View.setPhase("partitioning")

	// Partition the final implicit static dependency graph, weighted with
	// prior instrumentation when available.
	fin := graph.BuildFinal(cfg.Prog)
	if err := fin.CheckSchedulable(); err != nil {
		return nil, abort(err)
	}
	if cfg.Weights != nil {
		sched.ApplyInstrumentation(fin, cfg.Weights)
	}
	assign, cost, err := sched.Partition(fin, topo, cfg.Method)
	if err != nil {
		return nil, abort(err)
	}
	kernelNode := make(map[string]int, len(fin.Nodes))
	kernelsOf := make([][]string, len(conns))
	for i, kn := range fin.Nodes {
		kernelNode[kn.Name] = assign[i]
		kernelsOf[assign[i]] = append(kernelsOf[assign[i]], kn.Name)
	}
	cfg.View.setAssignment(kernelNode, cfg.Method.String())

	// Subscriber maps: which workers consume each field, and which workers
	// need each kernel's completion events (they consume a field it
	// stores). Rebuilt by rebuildSubs after every reassignment.
	dead := make([]bool, len(conns))
	var fieldSubs map[string][]int
	var kernelSubs map[string][]int
	var consumes []map[string]bool
	rebuildSubs := func() {
		fieldSubs = make(map[string][]int)
		kernelSubs = make(map[string][]int)
		consumes = make([]map[string]bool, len(conns))
		for i := range conns {
			consumes[i] = map[string]bool{}
			for _, kn := range kernelsOf[i] {
				k := cfg.Prog.Kernel(kn)
				for _, f := range k.Fetches {
					consumes[i][f.Field] = true
				}
			}
		}
		for _, f := range cfg.Prog.Fields {
			for i := range conns {
				if !dead[i] && consumes[i][f.Name] {
					fieldSubs[f.Name] = append(fieldSubs[f.Name], i)
				}
			}
		}
		for _, k := range cfg.Prog.Kernels {
			seen := map[int]bool{}
			for _, s := range k.Stores {
				for _, i := range fieldSubs[s.Field] {
					if !seen[i] {
						seen[i] = true
						kernelSubs[k.Name] = append(kernelSubs[k.Name], i)
					}
				}
			}
		}
	}
	rebuildSubs()

	// The master's shadow node replicates all fields (every kernel is
	// remote from its perspective), giving complete final state. Under
	// failover it runs merge-tolerant: rebuilt workers re-execute their
	// kernels and their re-sent stores reach the shadow a second time.
	allRemote := make(map[string]bool, len(cfg.Prog.Kernels))
	for _, k := range cfg.Prog.Kernels {
		allRemote[k.Name] = true
	}
	shadow, err := runtime.NewNode(cfg.Prog, runtime.Options{
		Workers:       1,
		RemoteKernels: allRemote,
		NoAutoQuiesce: true,
		Metrics:       cfg.Metrics,
		Tracer:        cfg.Tracer,
		MergeStores:   cfg.Failover,
	})
	if err != nil {
		return nil, abort(err)
	}
	shadowDone := make(chan error, 1)
	go func() {
		_, err := shadow.Run()
		shadowDone <- err
	}()
	// Master-side frame accounting (nil-safe when cfg.Metrics is nil), plus
	// per-worker message flight histograms when metrics are on.
	mFrames := cfg.Metrics.Counter(obs.MDistFramesTotal)
	mFrameBytes := cfg.Metrics.Counter(obs.MDistFrameBytesTotal)
	mDeaths := cfg.Metrics.Counter(obs.MDistWorkerDeaths)
	mFailovers := cfg.Metrics.Counter(obs.MDistFailovers)
	mReplayed := cfg.Metrics.Counter(obs.MDistReplayedGens)
	hFlight := make([]*obs.Histogram, len(conns))
	if cfg.Metrics != nil {
		for i := range conns {
			hFlight[i] = cfg.Metrics.Histogram(obs.Label(obs.MStageFlightNs, "node", ids[i]))
		}
	}

	// Assign partitions and start; MStart carries the clock-sync result so
	// workers can correct master-stamped timestamps.
	for i, c := range conns {
		if err := c.Send(&Msg{Kind: MAssign, Kernels: kernelsOf[i], Spec: cfg.Spec, TraceOn: cfg.CollectTraces, Failover: cfg.Failover}); err != nil {
			shadow.Stop()
			<-shadowDone
			return nil, abort(err)
		}
	}
	for i, c := range conns {
		if err := c.Send(&Msg{Kind: MStart, OffsetNs: offsets[i], Synced: observed, SentNs: time.Now().UnixNano()}); err != nil {
			shadow.Stop()
			<-shadowDone
			return nil, abort(err)
		}
	}
	cfg.View.setPhase("running")

	// Broker loop: fan worker events to subscribers and the shadow.
	type inbound struct {
		from int
		msg  *Msg
		err  error
	}
	// Readers select on brokerStop so they exit once RunMaster returns:
	// after a failure the main loop stops draining inboxes, and a reader
	// blocked on the full buffer would otherwise leak (its Recv keeps
	// producing until the closed connection errors out).
	inboxes := make(chan inbound, 1024)
	brokerStop := make(chan struct{})
	defer close(brokerStop)
	startReader := func(i int, c Conn) {
		go func() {
			for {
				m, err := c.Recv()
				select {
				case inboxes <- inbound{from: i, msg: m, err: err}:
				case <-brokerStop:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	for i, c := range conns {
		startReader(i, c)
	}

	forwarded := make([]int64, len(conns))
	status := make([]Msg, len(conns))
	statusSeen := make([]bool, len(conns))
	lastHeard := make([]time.Time, len(conns))
	for i := range lastHeard {
		lastHeard[i] = time.Now()
	}
	reports := map[string]*runtime.Report{}
	doneSeen := map[doneRec]bool{}
	var doneLog []doneRec
	var traces []obs.NodeTrace
	var deadIDs []string
	var replayedGens int64
	stableRounds := 0
	var lastTotal int64 = -1
	stopSent := false
	// backlog holds inbound messages drained while the main loop was busy
	// replaying generations to a rebuilt worker: replay sends many frames
	// without returning to the select, and a full inboxes channel would
	// stall the readers (and transitively the workers' send paths).
	var backlog []inbound
	drain := func(buf []inbound) []inbound {
		for {
			select {
			case in := <-inboxes:
				buf = append(buf, in)
			default:
				return buf
			}
		}
	}

	// observeFlight records how long a worker message spent in flight:
	// master receive time minus the worker's send stamp rebased to the
	// master clock. Clamped at zero — the offset estimate has RTT/2 error,
	// so fast messages can appear to arrive before they left.
	observeFlight := func(from int, m *Msg) {
		if hFlight[from] == nil || m.SentNs == 0 {
			return
		}
		flight := time.Now().UnixNano() - (m.SentNs - offsets[from])
		if flight < 0 {
			flight = 0
		}
		hFlight[from].Observe(time.Duration(flight))
	}

	var die func(i int, cause error) error

	forward := func(from int, subs []int, m *Msg) error {
		for _, i := range subs {
			if i == from || dead[i] {
				continue
			}
			// Frame payloads skip gob on capable transports: the broker
			// writes the received bytes raw after a copied envelope, so a
			// frame is gob-encoded at most zero times on the fan-out path.
			// SendFrame never mutates m, which all subscribers share.
			var err error
			if fc, ok := conns[i].(FrameConn); ok && len(m.Frame) > 0 {
				err = fc.SendFrame(m, net.Buffers{m.Frame})
			} else {
				err = conns[i].Send(m)
			}
			if err != nil {
				if derr := die(i, err); derr != nil {
					return derr
				}
				continue
			}
			forwarded[i]++
		}
		return nil
	}

	// replayTo re-sends a rebuilt worker the message stream it would have
	// received from the start of the run: every live generation of every
	// field it consumes (from the shadow, as store frames), then every
	// remote producer completion it subscribes to, in original order.
	// Stores strictly before dones — a done marks its generations complete,
	// and merge mode silently drops stores into completed generations.
	replayTo := func(t int) error {
		forwarded[t] = 0
		status[t] = Msg{}
		statusSeen[t] = false
		lastHeard[t] = time.Now()
		for _, fd := range cfg.Prog.Fields {
			if !consumes[t][fd.Name] {
				continue
			}
			ages, err := shadow.FieldAges(fd.Name)
			if err != nil {
				return err
			}
			for _, age := range ages {
				genFrom := cfg.Tracer.Now()
				fr, err := shadow.EncodeGenerationFrame(fd.Name, age)
				if err != nil {
					return fmt.Errorf("dist: encoding replay of %s(%d): %w", fd.Name, age, err)
				}
				if fr == nil {
					continue
				}
				env := &Msg{Kind: MStoreFrame, Field: fd.Name, Age: age, SentNs: time.Now().UnixNano()}
				var serr error
				if fc, ok := conns[t].(FrameConn); ok {
					serr = fc.SendFrame(env, fr.Segments())
				} else {
					env.Frame = fr.AppendTo(nil)
					serr = conns[t].Send(env)
				}
				runtime.PutStoreFrame(fr)
				if serr != nil {
					return fmt.Errorf("dist: replaying %s(%d) to %s: %w", fd.Name, age, ids[t], serr)
				}
				forwarded[t]++
				replayedGens++
				mReplayed.Inc()
				if tr := cfg.Tracer; tr != nil {
					tr.Record(obs.Span{
						Name: "replay " + fd.Name, Cat: "dist", Ph: obs.PhaseComplete,
						TS: genFrom, Dur: tr.Now() - genFrom, Age: age,
					})
				}
				// Keep the readers moving while replay hogs the main loop.
				backlog = drain(backlog)
			}
		}
		local := map[string]bool{}
		for _, k := range kernelsOf[t] {
			local[k] = true
		}
		subscribed := map[string]bool{}
		for k, subs := range kernelSubs {
			for _, i := range subs {
				if i == t {
					subscribed[k] = true
				}
			}
		}
		for _, d := range doneLog {
			if local[d.kernel] || !subscribed[d.kernel] {
				continue
			}
			if err := conns[t].Send(&Msg{Kind: MDone, Kernel: d.kernel, Age: d.age, SentNs: time.Now().UnixNano()}); err != nil {
				return fmt.Errorf("dist: replaying completion %s(%d) to %s: %w", d.kernel, d.age, ids[t], err)
			}
			forwarded[t]++
		}
		return nil
	}

	// recoverWorker reassigns a dead worker's kernels — to the first
	// standby when one is waiting, else to survivors chosen by a fresh HLS
	// partition over the remaining topology (survivors keep their existing
	// kernels; moving a live kernel would force a needless rebuild) — and
	// replays the lost state to every affected worker.
	recoverWorker := func(i int) error {
		lost := kernelsOf[i]
		kernelsOf[i] = nil
		rebuildSubs()
		if len(lost) == 0 {
			return nil
		}
		mFailovers.Inc()
		failFrom := cfg.Tracer.Now()
		var targets []int
		if len(standbys) > 0 {
			sb := standbys[0]
			standbys = standbys[1:]
			t := len(conns)
			conns = append(conns, sb.conn)
			ids = append(ids, sb.id)
			caps = append(caps, workerCap{cores: sb.cores, speed: sb.speed})
			offsets = append(offsets, sb.offset)
			forwarded = append(forwarded, 0)
			status = append(status, Msg{})
			statusSeen = append(statusSeen, false)
			dead = append(dead, false)
			lastHeard = append(lastHeard, time.Now())
			kernelsOf = append(kernelsOf, lost)
			var h *obs.Histogram
			if cfg.Metrics != nil {
				h = cfg.Metrics.Histogram(obs.Label(obs.MStageFlightNs, "node", sb.id))
			}
			hFlight = append(hFlight, h)
			topo = topo.Add(sb.id, sb.cores, sb.speed)
			cfg.View.registerWorker(t, sb.id, sb.cores, sb.speed)
			cfg.View.setLiveness(heartbeat, maxMissed, cfg.Failover, len(standbys))
			if err := sb.conn.Send(&Msg{Kind: MAssign, Kernels: lost, Spec: cfg.Spec, TraceOn: cfg.CollectTraces, Failover: cfg.Failover}); err != nil {
				return fmt.Errorf("dist: assigning standby %s: %w", sb.id, err)
			}
			if err := sb.conn.Send(&Msg{Kind: MStart, OffsetNs: sb.offset, Synced: observed, SentNs: time.Now().UnixNano()}); err != nil {
				return fmt.Errorf("dist: starting standby %s: %w", sb.id, err)
			}
			startReader(t, sb.conn)
			targets = append(targets, t)
		} else {
			surv := sched.Topology{Bandwidth: topo.Bandwidth}
			var survIdx []int
			for j := range conns {
				if dead[j] {
					continue
				}
				surv = surv.Add(ids[j], caps[j].cores, caps[j].speed)
				survIdx = append(survIdx, j)
			}
			if len(survIdx) == 0 {
				return fmt.Errorf("dist: no surviving workers to take over %d kernels of %s", len(lost), ids[i])
			}
			assign2, _, err := sched.Partition(fin, surv, cfg.Method)
			if err != nil {
				return fmt.Errorf("dist: repartitioning after loss of %s: %w", ids[i], err)
			}
			lostSet := map[string]bool{}
			for _, k := range lost {
				lostSet[k] = true
			}
			seen := map[int]bool{}
			for gi, kn := range fin.Nodes {
				if !lostSet[kn.Name] {
					continue
				}
				t := survIdx[assign2[gi]]
				kernelsOf[t] = append(kernelsOf[t], kn.Name)
				if !seen[t] {
					seen[t] = true
					targets = append(targets, t)
				}
			}
			for _, t := range targets {
				if err := conns[t].Send(&Msg{Kind: MReassign, Kernels: kernelsOf[t], Spec: cfg.Spec, TraceOn: cfg.CollectTraces, Failover: cfg.Failover}); err != nil {
					return fmt.Errorf("dist: reassigning to %s: %w", ids[t], err)
				}
			}
		}
		for _, t := range targets {
			for _, k := range kernelsOf[t] {
				kernelNode[k] = t
			}
		}
		rebuildSubs()
		cfg.View.setAssignment(kernelNode, cfg.Method.String())
		for _, t := range targets {
			if err := replayTo(t); err != nil {
				return err
			}
		}
		// Rebuilding and replaying a large shadow can outlast the liveness
		// window, and this loop was not reading while it ran: the silence
		// is the master's, not the workers'. Restart every live worker's
		// clock so one recovery does not cascade into false deaths.
		refreshed := time.Now()
		for j := range lastHeard {
			if !dead[j] {
				lastHeard[j] = refreshed
			}
		}
		if tr := cfg.Tracer; tr != nil {
			tr.Record(obs.Span{
				Name: "failover " + ids[i], Cat: "dist", Ph: obs.PhaseComplete,
				TS: failFrom, Dur: tr.Now() - failFrom,
			})
		}
		// The cluster must restabilize from scratch: the rebuilt workers
		// re-execute their kernels before quiescence means anything.
		stableRounds = 0
		lastTotal = -1
		return nil
	}

	// die declares a worker dead. Without failover it returns the error
	// that fails the run (named after the worker); with failover it
	// recovers — unless quiescence was already reached, in which case all
	// data is safe in the shadow and only the worker's report is lost.
	die = func(i int, cause error) error {
		if dead[i] {
			return nil
		}
		dead[i] = true
		deadIDs = append(deadIDs, ids[i])
		conns[i].Close()
		mDeaths.Inc()
		cfg.View.workerDead(i)
		if !cfg.Failover {
			return fmt.Errorf("dist: worker %s: %w", ids[i], cause)
		}
		if stopSent {
			return nil
		}
		return recoverWorker(i)
	}

	ticker := time.NewTicker(poll)
	defer ticker.Stop()

	fail := func(err error) (*MasterResult, error) {
		cfg.View.setPhase("failed: " + err.Error())
		// Tell survivors to stop before closing: a worker that only saw
		// its connection drop would return an error with its node state
		// still live, while MStopReq routes it through the normal stop
		// path (teardown, slab release). Best effort — the broken
		// connection that caused the failure will refuse the send.
		for i, c := range conns {
			if dead[i] {
				continue
			}
			c.Send(&Msg{Kind: MStopReq})
			c.Close()
		}
		for _, sb := range standbys {
			sb.conn.Send(&Msg{Kind: MStopReq})
			sb.conn.Close()
		}
		shadow.Stop()
		<-shadowDone
		return nil, err
	}

	needReports := func() bool {
		for i := range conns {
			if dead[i] {
				continue
			}
			if _, ok := reports[ids[i]]; !ok {
				return true
			}
		}
		return false
	}

	for !stopSent || needReports() {
		var in inbound
		gotMsg := false
		if len(backlog) > 0 {
			in = backlog[0]
			backlog = backlog[1:]
			gotMsg = true
		} else {
			select {
			case in = <-inboxes:
				gotMsg = true
			case <-ticker.C:
			}
		}
		if !gotMsg {
			now := time.Now()
			// Liveness runs in every phase — including after the stop was
			// sent, where a worker dying between its last heartbeat and
			// its report would otherwise hang report collection forever.
			if liveTimeout > 0 {
				for i := range conns {
					if dead[i] {
						continue
					}
					if _, have := reports[ids[i]]; have {
						continue
					}
					if silent := now.Sub(lastHeard[i]); silent > liveTimeout {
						cause := fmt.Errorf("missed %d heartbeats (silent %v, liveness window %v)", maxMissed, silent.Round(time.Millisecond), liveTimeout)
						if err := die(i, cause); err != nil {
							return fail(err)
						}
					}
				}
			}
			if stopSent {
				continue
			}
			quiet := true
			var total int64
			for i := range conns {
				if dead[i] {
					continue
				}
				if !statusSeen[i] || !status[i].Idle || status[i].Received != forwarded[i] {
					quiet = false
				}
				// A stale heartbeat must not count toward quiescence: the
				// worker has to have been heard from within the liveness
				// window, or its Idle claim describes a world that may no
				// longer exist.
				if liveTimeout > 0 && now.Sub(lastHeard[i]) > liveTimeout {
					quiet = false
				}
				total += status[i].Sent + status[i].Received
			}
			if quiet && shadow.Idle() && total == lastTotal {
				stableRounds++
			} else {
				stableRounds = 0
			}
			lastTotal = total
			if stableRounds >= 2 {
				stopSent = true
				for i, c := range conns {
					if dead[i] {
						continue
					}
					// Pull span buffers before the stop: per-connection
					// FIFO ordering guarantees each MTrace reply arrives
					// before its MReport, so report collection still
					// terminates the loop.
					if cfg.CollectTraces {
						if err := c.Send(&Msg{Kind: MTraceReq}); err != nil {
							if derr := die(i, err); derr != nil {
								return fail(derr)
							}
							continue
						}
					}
					if err := c.Send(&Msg{Kind: MStopReq}); err != nil {
						if derr := die(i, err); derr != nil {
							return fail(derr)
						}
					}
				}
				// Release the standbys that were never needed.
				for _, sb := range standbys {
					sb.conn.Send(&Msg{Kind: MStopReq})
					sb.conn.Close()
				}
				standbys = nil
				continue
			}
			for i := range conns {
				if dead[i] {
					continue
				}
				statusSeen[i] = false
				if err := conns[i].Send(&Msg{Kind: MPing, SentNs: time.Now().UnixNano()}); err != nil {
					if derr := die(i, err); derr != nil {
						return fail(derr)
					}
				}
			}
			continue
		}

		if in.err != nil {
			if _, have := reports[ids[in.from]]; have {
				continue // connection closed after its report: fine
			}
			if dead[in.from] {
				continue
			}
			if err := die(in.from, in.err); err != nil {
				return fail(err)
			}
			continue
		}
		m := in.msg
		lastHeard[in.from] = time.Now()
		observeFlight(in.from, m)
		if dead[in.from] {
			// A declared-dead worker's buffered data is still valid (it was
			// produced before the death was noticed and its generations are
			// write-once), but its control messages describe a worker that
			// no longer participates.
			switch m.Kind {
			case MStoreFrame, MDone:
			default:
				continue
			}
		}
		switch m.Kind {
		case MStoreFrame:
			// The envelope's Field/Age mirror the frame header, so
			// routing needs no decode; the frame bytes are forwarded
			// to subscribers as-is and only replayed into the shadow.
			brokerFrom := cfg.Tracer.Now()
			if err := shadow.InjectStoreFrame(m.Frame); err != nil {
				return fail(fmt.Errorf("dist: shadow store frame: %w", err))
			}
			mFrames.Inc()
			mFrameBytes.Add(int64(len(m.Frame)))
			if err := forward(in.from, fieldSubs[m.Field], m); err != nil {
				return fail(err)
			}
			if tr := cfg.Tracer; tr != nil {
				// The broker hop of the frame's causal trace: replay
				// into the shadow plus fan-out to subscribers.
				tr.Record(obs.Span{
					Name: "broker " + m.Field, Cat: "dist", Ph: obs.PhaseComplete,
					TS: brokerFrom, Dur: tr.Now() - brokerFrom,
					Age: m.Age, Trace: m.Trace, Flow: obs.FlowStep,
				})
			}
		case MDone:
			d := doneRec{kernel: m.Kernel, age: m.Age}
			if doneSeen[d] {
				// A rebuilt worker re-executes its kernels and re-announces
				// completions the cluster already accounted for. Injecting
				// a duplicate would overshoot the shadow's producer count
				// and mark generations complete while a slower producer is
				// still storing — merge mode would then silently drop its
				// legitimate stores.
				continue
			}
			doneSeen[d] = true
			doneLog = append(doneLog, d)
			if err := shadow.InjectRemoteDone(m.Kernel, m.Age); err != nil {
				return fail(fmt.Errorf("dist: shadow done: %w", err))
			}
			if err := forward(in.from, kernelSubs[m.Kernel], m); err != nil {
				return fail(err)
			}
		case MStatus:
			status[in.from] = *m
			statusSeen[in.from] = true
			cfg.View.updateWorker(in.from, m.Idle, m.Sent, m.Received, m.Metrics)
		case MTrace:
			traces = append(traces, obs.NodeTrace{
				Node:        ids[in.from],
				PID:         in.from + 2, // pid 1 is the master's lane
				StartUnixNs: m.TraceStartNs,
				OffsetNs:    offsets[in.from],
				Dropped:     m.TraceDropped,
				Spans:       m.Spans,
			})
		case MReport:
			reports[ids[in.from]] = m.Report
			cfg.View.workerDone(in.from, m.Report)
		case MError:
			return fail(fmt.Errorf("dist: worker %s failed: %s", ids[in.from], m.Err))
		}
	}

	shadow.Stop()
	if err := <-shadowDone; err != nil {
		return nil, err
	}
	for _, c := range conns {
		c.Close()
	}
	for _, sb := range standbys {
		sb.conn.Send(&Msg{Kind: MStopReq})
		sb.conn.Close()
	}
	cfg.View.setPhase("done")
	clockOffsets := map[string]int64{}
	if observed {
		for i, id := range ids {
			clockOffsets[id] = offsets[i]
		}
	}
	return &MasterResult{
		Assignment:   kernelNode,
		Cost:         cost,
		Reports:      reports,
		Shadow:       shadow,
		Traces:       traces,
		ClockOffsets: clockOffsets,
		DeadWorkers:  deadIDs,
		Replayed:     replayedGens,
	}, nil
}
