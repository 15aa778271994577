package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// WorkerConfig configures one execution node.
type WorkerConfig struct {
	// NodeID identifies the node in the topology and reports.
	NodeID string
	// Cores is the worker-thread count reported to the master and used
	// locally.
	Cores int
	// Speed is the relative speed factor reported to the master (0 means
	// 1.0).
	Speed float64
	// Prog is the program; it must be structurally identical to the
	// master's. When nil, Factory builds it from the assignment's Spec.
	Prog *core.Program
	// Factory builds the program from the spec carried in the assignment
	// message (used by cmd/p2g-worker, where programs come from a
	// registry).
	Factory func(spec string) (*core.Program, error)
	// BoundsFactory derives per-kernel age bounds from the spec; used with
	// Factory when KernelMaxAge is nil.
	BoundsFactory func(spec string) map[string]int
	// Output receives kernel Printf output.
	Output io.Writer
	// MaxAge and KernelMaxAge mirror the runtime options.
	MaxAge       int
	KernelMaxAge map[string]int

	// Standby registers this worker as a hot spare: it sends MJoin instead
	// of MRegister, receives no initial partition, and waits (answering
	// clock probes) until the master either promotes it after a peer's
	// death (MAssign/MStart, with the lost state replayed) or releases it
	// with MStopReq — in which case RunWorker returns (nil, nil).
	Standby bool

	// Metrics receives the node's full instrumentation and is snapshotted
	// into every status heartbeat whose ping asks for it (a master with a
	// ClusterView does); when nil a private registry is created so that
	// view still sees live per-kernel stats.
	Metrics *obs.Registry
	// Tracer records kernel-instance lifecycle spans on this node.
	Tracer *obs.Tracer
}

// workerState is where a worker stands in the protocol. MAssign moves it to
// built from any state, MStart from built to running; DESIGN.md §12 has the
// whole state × message table.
type workerState uint8

const (
	unassigned workerState = iota // registered, no kernels yet; a standby waits here while the cluster stays healthy
	built                         // node constructed from an MAssign, waiting for MStart
	running                       // node executing, brokered events flowing
)

// worker is one execution node's side of the protocol: the connection, the
// protocol state and what that state holds.
type worker struct {
	cfg   WorkerConfig // Cores, Speed and Metrics defaulted
	conn  Conn
	state workerState

	// Event counters since the last MAssign, reported in every MStatus; the
	// master's quiescence check matches them against its own.
	sent, received atomic.Int64
	// sendErr holds the first failed send: sends happen on runtime
	// goroutines, the loop in RunWorker decides what the failure means.
	sendErr chan error

	// Flight accounting: master-stamped pings measured against this node's
	// clock, corrected by the clock offset MStart carried (this node's clock
	// minus the master's, so master-equivalent local time is local − offset).
	// The baseline projects only this run's flight time into the report (the
	// registry may be shared across runs).
	hFlight     *obs.Histogram
	flightBase  int64
	clockOffset int64
	synced      bool

	// The node and its batcher are built from scratch by every MAssign.
	// rep/runErr are written by the run goroutine strictly before
	// close(runDone) and read only after it, so rebuilds are race-free.
	node    *runtime.Node
	batcher *storeBatcher
	runDone chan struct{}
	rep     *runtime.Report
	runErr  error
}

// RunWorker executes one node of a distributed run over an established
// connection to the master. It returns the local instrumentation report.
// A standby worker that was never promoted returns (nil, nil).
func RunWorker(cfg WorkerConfig, conn Conn) (*runtime.Report, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	w := &worker{cfg: cfg, conn: conn, sendErr: make(chan error, 1)}
	w.hFlight = cfg.Metrics.Histogram(obs.MStageFlightNs)
	w.flightBase = w.hFlight.SumNs()

	hello := MRegister
	if cfg.Standby {
		hello = MJoin
	}
	if err := conn.Send(&Msg{Kind: hello, NodeID: cfg.NodeID, Cores: cfg.Cores, Speed: cfg.Speed}); err != nil {
		return nil, err
	}

	// Receive on a separate goroutine so the loop can select a failed send
	// (a dead master) without waiting for the master to speak next. Closing
	// the connection on return unblocks the receiver; the stop channel reaps
	// it if it is blocked handing over a message.
	recvCh := make(chan inbound)
	recvStop := make(chan struct{})
	defer close(recvStop)
	defer conn.Close()
	go func() {
		for {
			m, err := conn.Recv()
			if err == nil && m.Kind == MStart {
				// The handshake — registration and, for a standby, the wait
				// for promotion — is legitimately unbounded; everything
				// after MStart is bounded by the master's liveness window,
				// so a silent master ends the worker. Armed here rather than
				// in the loop so that the very next Recv is already bounded.
				conn.SetIdleTimeout(m.Liveness)
			}
			select {
			case recvCh <- inbound{msg: m, err: err}:
			case <-recvStop:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for {
		var in inbound
		// Prefer inbound traffic over a pending send failure: when the
		// master stops and closes in one breath, a status send can fail
		// just before the already-queued MStopReq is read, and the stop
		// (clean teardown through the normal path) must win over reporting
		// that race as an error. A genuinely dead master still surfaces —
		// nothing more arrives, so the send failure is selected next.
		select {
		case in = <-recvCh:
		default:
			select {
			case err := <-w.sendErr:
				err = w.sendFailed(err, recvCh)
				return w.rep, err
			case in = <-recvCh:
			}
		}
		if done, err := w.handle(in); done {
			return w.rep, err
		}
	}
}

// handle advances the worker by one receive on the master connection; done
// reports that the run is over, cleanly or with err.
func (w *worker) handle(in inbound) (done bool, err error) {
	if in.err != nil {
		return true, w.fail(w.unexpected(nil, in.err))
	}
	m := in.msg
	switch m.Kind {
	case MClockProbe:
		// An observed master probes between registration and assignment;
		// the echo is this node's clock, whatever the state.
		if err := w.conn.Send(&Msg{Kind: MClockEcho, SentNs: m.SentNs, NodeNs: time.Now().UnixNano()}); err != nil {
			return true, w.fail(fmt.Errorf("dist: answering clock probe: %w", err))
		}
		return false, nil
	case MAssign:
		// The one way to be given kernels: at the start of the run, on
		// promotion from standby, and again after a peer died. Whatever
		// this node was running is torn down and rebuilt from scratch: the
		// replayed generations that follow MStart (the connection is FIFO)
		// restore the remote field state, and the local kernels re-execute
		// from age zero — their stores merge idempotently into peers that
		// already hold them.
		w.release()
		if w.runErr != nil {
			return true, w.runErr
		}
		if err := w.build(m); err != nil {
			return true, w.fail(w.tell(err))
		}
		return false, nil
	}
	if m.Kind == MStopReq && w.state != running {
		// Released before a node ever ran: a standby the run finished (or
		// failed) without, or a worker whose MStart was still queued when
		// the run failed — the master's stop replaces what it had not sent.
		w.release()
		return true, nil
	}
	switch w.state {
	case built:
		if m.Kind == MStart {
			w.start(m)
			return false, nil
		}
	case running:
		switch m.Kind {
		case MStoreFrame:
			w.received.Add(1)
			injectFrom := w.cfg.Tracer.Now()
			if err := w.node.InjectStoreFrame(m.Frame); err != nil {
				return true, w.fail(w.tell(err))
			}
			if tr := w.cfg.Tracer; tr != nil {
				// Terminal hop of the frame's causal trace: the remote
				// generation lands in this node's field replica.
				tr.Record(obs.Span{
					Name: "inject " + m.Field, Cat: "dist", Ph: obs.PhaseComplete,
					TS: injectFrom, Dur: tr.Now() - injectFrom,
					Age: m.Age, Trace: m.Trace, Flow: obs.FlowFinish,
				})
			}
			return false, nil
		case MDone:
			w.received.Add(1)
			if err := w.node.InjectRemoteDone(m.Kernel, m.Age); err != nil {
				return true, w.fail(w.tell(err))
			}
			return false, nil
		case MPing:
			if w.synced && m.SentNs != 0 {
				// Master→worker flight: the ping's master-clock stamp
				// against local time rebased to the master clock. Clamped
				// at zero (the offset estimate has RTT/2 error).
				flight := (time.Now().UnixNano() - w.clockOffset) - m.SentNs
				w.hFlight.Observe(time.Duration(max(flight, 0)))
			}
			// Every ping flushes. Besides bounding how long a
			// generation sits unsent, this is the only flush that lets
			// the shares of a split kernel that depend on each other
			// within one age progress: neither share's kernel-age
			// completes, and so flushes before its MDone, until it has
			// the other's stores.
			w.batcher.flushAll(func() {
				w.updateTransport()
				status := &Msg{Kind: MStatus, Idle: w.node.Idle(), Sent: w.sent.Load(), Received: w.received.Load()}
				if m.WantMetrics {
					status.Metrics = w.cfg.Metrics.Snapshot()
				}
				w.send(status)
			})
			return false, nil
		case MStopReq:
			return true, w.stopAndReport(m)
		}
	}
	return true, w.fail(w.unexpected(m, nil))
}

// unexpected formats what the current state did not expect: a transport
// error, an MError carrying the master's reason, or a message kind the state
// has no use for.
func (w *worker) unexpected(m *Msg, err error) error {
	if w.state == running {
		switch {
		case err != nil:
			return fmt.Errorf("dist: master connection: %w", err)
		case m.Kind == MError:
			return fmt.Errorf("dist: master reported error: %s", m.Err)
		}
		return fmt.Errorf("dist: unexpected %v from master", m.Kind)
	}
	phase := "assignment"
	if w.state == built {
		phase = "start"
	}
	switch {
	case err != nil:
		return fmt.Errorf("dist: waiting for %s: %w", phase, err)
	case m.Kind == MError:
		return fmt.Errorf("dist: waiting for %s: master reported error: %s", phase, m.Err)
	default:
		return fmt.Errorf("dist: waiting for %s: unexpected %v", phase, m.Kind)
	}
}

// send stamps and sends one message. Every message through here is freshly
// allocated, so stamping is race-free; the master turns the stamp into a
// flight measurement.
func (w *worker) send(m *Msg) {
	m.SentNs = time.Now().UnixNano()
	w.noteSendErr(w.conn.Send(m))
}

// sendFrame sends a batched store frame and recycles the frame.
func (w *worker) sendFrame(m *Msg, f *runtime.StoreFrame) {
	m.SentNs = time.Now().UnixNano()
	err := w.conn.SendFrame(m, net.Buffers{f.Bytes()})
	runtime.PutStoreFrame(f)
	w.noteSendErr(err)
}

// noteSendErr keeps the first send failure for the loop to act on.
func (w *worker) noteSendErr(err error) {
	if err != nil {
		select {
		case w.sendErr <- err:
		default:
		}
	}
}

// updateTransport folds the connection's traffic counters into the registry
// (as gauges: each sample replaces the last) right before a snapshot or
// report, so heartbeats carry current transport totals.
func (w *worker) updateTransport() ConnStats {
	st := w.conn.Stats()
	w.cfg.Metrics.Gauge(obs.MTransportSentMsgs).Set(st.SentMsgs)
	w.cfg.Metrics.Gauge(obs.MTransportRecvMsgs).Set(st.RecvMsgs)
	w.cfg.Metrics.Gauge(obs.MTransportSentBytes).Set(st.SentBytes)
	w.cfg.Metrics.Gauge(obs.MTransportRecvBytes).Set(st.RecvBytes)
	return st
}

// build constructs the node for an assignment and moves to built. Counters
// restart at zero to match the master's accounting, which assign restarts
// too.
func (w *worker) build(assign *Msg) error {
	if assign.TraceOn && w.cfg.Tracer == nil {
		// The master will collect span buffers at shutdown; give it
		// something to collect even without this worker's own -trace.
		w.cfg.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	// Re-execution only reproduces lost stores if the kernels start from
	// their initial state. A factory-built program is built anew for every
	// assignment, so stateful kernel closures — a video source mid-stream,
	// most importantly — start over instead of resuming where a torn-down
	// node left them. A directly injected Prog is reused as-is and must be
	// restartable.
	prog := w.cfg.Prog
	if prog == nil {
		if w.cfg.Factory == nil {
			return errors.New("dist: worker has neither a program nor a factory")
		}
		var err error
		if prog, err = w.cfg.Factory(assign.Spec); err != nil {
			return fmt.Errorf("dist: building program %q: %w", assign.Spec, err)
		}
	}
	if w.cfg.KernelMaxAge == nil && w.cfg.BoundsFactory != nil {
		w.cfg.KernelMaxAge = w.cfg.BoundsFactory(assign.Spec)
	}
	// A split run runs every indexed kernel here, on the shares assigned;
	// the other kernels run here only when named.
	var shares *runtime.Shares
	if len(assign.ShareWeights) > 0 {
		shares = &runtime.Shares{Weights: assign.ShareWeights, Own: assign.Shares}
	}
	remote := map[string]bool{}
	split := map[string]bool{}
	for _, k := range prog.Kernels {
		switch {
		case shares != nil && len(k.IndexVars) > 0:
			split[k.Name] = true
		case !slices.Contains(assign.Kernels, k.Name):
			remote[k.Name] = true
		}
	}
	// The store batcher coalesces store notices into whole-generation
	// MStoreFrame messages; it is flushed before every MDone (keeping the
	// per-origin stores-before-done order) and on every ping (see MPing).
	// With a tracer it also gives each frame a causal trace id and records
	// the emit span.
	b := newStoreBatcher(w.sendFrame, w.cfg.Metrics, w.cfg.NodeID, w.cfg.Tracer)
	w.sent.Store(0)
	w.received.Store(0)
	n, err := runtime.NewNode(prog, runtime.Options{
		Workers:       w.cfg.Cores,
		MaxAge:        w.cfg.MaxAge,
		KernelMaxAge:  w.cfg.KernelMaxAge,
		Output:        w.cfg.Output,
		RemoteKernels: remote,
		Shares:        shares,
		NoAutoQuiesce: true,
		Metrics:       w.cfg.Metrics,
		Tracer:        w.cfg.Tracer,
		MergeStores:   assign.Failover,
		OnStore: func(sn runtime.StoreNotice) {
			w.sent.Add(1)
			if err := b.add(sn); err != nil {
				w.noteSendErr(w.tell(err))
			}
		},
		OnKernelDone: func(kernel string, age int) {
			b.flushAll(func() {
				if !split[kernel] {
					w.sent.Add(1)
					w.send(&Msg{Kind: MDone, Kernel: kernel, Age: age})
					return
				}
				// One completion per share this node ran: the master
				// counts, dedups and forwards shares, not nodes.
				for _, sh := range assign.Shares {
					w.sent.Add(1)
					w.send(&Msg{Kind: MDone, Kernel: kernel, Age: age, Share: sh})
				}
			})
		},
	})
	if err != nil {
		return err
	}
	w.node, w.batcher, w.state = n, b, built
	return nil
}

// start runs the built node and moves to running.
func (w *worker) start(start *Msg) {
	w.clockOffset, w.synced = start.OffsetNs, start.Synced
	done := make(chan struct{})
	w.runDone = done
	n := w.node
	go func() {
		r, err := n.Run()
		w.rep, w.runErr = r, err
		close(done)
		// A failed run can end before the master requests a stop; report
		// it proactively so the cluster shuts down instead of waiting for
		// a quiescence that can never be detected.
		if err != nil {
			w.tell(err)
		}
	}()
	w.state = running
}

// release gives up what the current state holds — a running node is stopped
// first — returning its field generations to the slab pools (a long-lived
// worker process runs many programs over one process lifetime), and moves
// back to unassigned.
func (w *worker) release() {
	switch w.state {
	case running:
		w.node.Stop()
		<-w.runDone
		fallthrough
	case built:
		w.node.Release()
	}
	w.state = unassigned
}

// fail ends the run with err; every failing exit releases the node.
func (w *worker) fail(err error) error {
	w.release()
	return err
}

// tell reports a failure of this node's own to the master, which cannot know
// of it otherwise, and returns it.
func (w *worker) tell(err error) error {
	w.send(&Msg{Kind: MError, Err: err.Error()})
	return err
}

// stopAndReport runs the orderly shutdown the master requested: stop the
// node, surface a failed run, fold transport totals into the report and ship
// it, with the span buffer and its alignment anchor when the stop asks — an
// untraced node's are empty, so the master's collection needs no special
// case. Reached from MStopReq and from a send failure that raced one.
func (w *worker) stopAndReport(stop *Msg) error {
	w.node.Stop()
	<-w.runDone
	if w.runErr != nil {
		w.tell(w.runErr)
		w.node.Release()
		return w.runErr
	}
	if st := w.updateTransport(); w.rep != nil {
		w.rep.SentMsgs = st.SentMsgs
		w.rep.RecvMsgs = st.RecvMsgs
		w.rep.SentBytes = st.SentBytes
		w.rep.RecvBytes = st.RecvBytes
		if w.rep.Stages != nil {
			w.rep.Stages.FlightNs = w.hFlight.SumNs() - w.flightBase
		}
	}
	report := &Msg{Kind: MReport, Report: w.rep}
	if tr := w.cfg.Tracer; stop.TraceOn {
		report.Spans, report.TraceStartNs, report.TraceDropped = tr.Spans(), tr.StartUnixNs(), tr.Dropped()
	}
	w.send(report)
	// Release only after the report is out: a long-lived worker
	// (cmd/p2g-worker) reuses the slab pools for its next program.
	w.node.Release()
	return nil
}

// sendFailed decides what a failed send means. It may have raced a stop the
// master issued just before the link broke (stop, then close — with this
// send already failing), so what the connection still delivers is drained
// for a bounded moment: an in-flight MStopReq means this is an orderly
// shutdown, not a dead link.
func (w *worker) sendFailed(err error, recvCh <-chan inbound) error {
	grace := time.NewTimer(250 * time.Millisecond)
	defer grace.Stop()
	for {
		select {
		case in := <-recvCh:
			if in.err == nil && in.msg.Kind == MStopReq && w.state == running {
				return w.stopAndReport(in.msg)
			}
			if in.err == nil {
				// Data racing the failure is moot — the run ends either
				// way; keep draining within the window.
				continue
			}
		case <-grace.C:
		}
		return w.fail(fmt.Errorf("dist: sending to master: %w", err))
	}
}
