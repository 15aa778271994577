package dist

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/mjpeg"
	"repro/internal/runtime"
	"repro/internal/video"
	"repro/internal/workloads"
)

// mulSumReference runs MulSum on a single node and returns it for snapshot
// comparison; failover runs must reproduce its state bit for bit.
func mulSumReference(t *testing.T) *runtime.Node {
	t.Helper()
	ref, err := runtime.NewNode(workloads.MulSum(), runtime.Options{Workers: 2, MaxAge: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	return ref
}

func assertMulSumShadow(t *testing.T, res *MasterResult, ref *runtime.Node) {
	t.Helper()
	for a := 0; a <= 8; a++ {
		for _, f := range []string{"m_data", "p_data"} {
			want, _ := ref.Snapshot(f, a)
			got, err := res.Shadow.Snapshot(f, a)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s(%d) = %v, want %v", f, a, got, want)
			}
		}
	}
}

// assertRecovered fails the test unless the mul/sum failover run r finished
// with no master error, w0 (node 0) clean, exactly the given workers dead and
// the state of a single-node run.
func assertRecovered(t *testing.T, r clusterRun, dead ...string) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("failover run failed: %v", r.err)
	}
	if r.errs[0] != nil {
		t.Fatalf("survivor failed: %v", r.errs[0])
	}
	if !slices.Equal(r.res.DeadWorkers, dead) {
		t.Fatalf("DeadWorkers = %v, want %v", r.res.DeadWorkers, dead)
	}
	if _, ok := r.res.Reports["w0"]; !ok {
		t.Fatalf("missing survivor report: %v", r.res.Reports)
	}
	assertMulSumShadow(t, r.res, mulSumReference(t))
}

// TestFailoverSurvivorTakeover kills one of two workers mid-run (its
// connection severs on its Nth send) with failover enabled: the master must
// reassign the lost kernels to the survivor, replay the lost write-once
// frames, and finish with exactly the state a clean run produces.
func TestFailoverSurvivorTakeover(t *testing.T) {
	r := cluster{
		master:  MasterConfig{Failover: true},
		workers: mulSumNodes(2, 8, "w0", "w1"),
		// w1 dies abruptly at its 12th send: registration plus a stretch of
		// stores and completions, then the connection severs mid-run.
		wrap: workerFault(1, FaultPlan{SeverSendAt: 12}),
	}.run(t)
	assertRecovered(t, r, "w1")
	if r.errs[1] == nil {
		t.Fatal("killed worker returned cleanly despite its severed connection")
	}
	if r.res.Replayed == 0 {
		t.Fatal("no logged frames were replayed to the survivor")
	}
}

// TestFailoverStandbyTakeover: same kill, but a hot standby (registered with
// MJoin) is waiting. The master must promote it, replay the log to it,
// and finish bit-identically; the promoted standby returns a real report.
func TestFailoverStandbyTakeover(t *testing.T) {
	r := cluster{
		master:  MasterConfig{Failover: true},
		workers: mulSumNodes(2, 8, "w0", "w1", "spare"),
		wrap:    workerFault(1, FaultPlan{SeverSendAt: 12}),
	}.run(t)
	assertRecovered(t, r, "w1")
	if r.errs[2] != nil || r.reports[2] == nil {
		t.Fatalf("promoted standby returned (%v, %v), want a report", r.reports[2], r.errs[2])
	}
	if _, ok := r.res.Reports["spare"]; !ok {
		t.Fatalf("standby report missing: %v", r.res.Reports)
	}
}

// TestReplayTargetDeath (regression): a node that dies while its recovery
// replay is still going out is one more death, not a failed run. w1 dies
// mid-run (its connection severs at its 12th send); the promoted standby's
// connection severs at a send inside the replay it is being given (its
// MAssign and MStart are sends 1 and 2). The master must re-place the work
// on the survivor, replay to it, and finish bit for bit like a single node.
func TestReplayTargetDeath(t *testing.T) {
	killW1 := workerFault(1, FaultPlan{SeverSendAt: 12})
	r := cluster{
		master:  MasterConfig{Failover: true},
		workers: mulSumNodes(2, 8, "w0", "w1", "spare"),
		wrap: func(i int, mc, wc Conn) (Conn, Conn) {
			if i == 2 {
				mc = NewFaultConn(mc, FaultPlan{SeverSendAt: 5})
			}
			return killW1(i, mc, wc)
		},
	}.run(t)
	assertRecovered(t, r, "w1", "spare")
}

// TestFailoverSeverSweep generates its faults instead of picking one: one
// row severs w1 at each send from its first after registration to the 40th,
// in a two-worker mul/sum failover run. Every row recovers to the
// single-node state with w0 clean and w1 dead — or nobody dead, when the
// sever point lies past what w1 sent in that run. How many sends a run
// makes depends on timing (25 or so, more under the race detector), so the
// rows are fixed, and a clean run that sends more than 40 fails the test
// rather than leave its last sends unswept.
func TestFailoverSeverSweep(t *testing.T) {
	const lastSever = 40
	run := func(t *testing.T, at int64) (clusterRun, *FaultConn) {
		var w1 *FaultConn
		r := cluster{
			master:  MasterConfig{Failover: true},
			workers: mulSumNodes(2, 8, "w0", "w1"),
			wrap: func(i int, mc, wc Conn) (Conn, Conn) {
				if i == 1 {
					w1 = NewFaultConn(wc, FaultPlan{SeverSendAt: at})
					wc = w1
				}
				return mc, wc
			},
		}.run(t)
		return r, w1
	}
	r, w1 := run(t, 0)
	assertRecovered(t, r)
	if n := w1.sends.Load(); n > lastSever {
		t.Fatalf("w1 made %d sends in a clean run, the sweep severs at %d at most", n, lastSever)
	}
	for at := int64(2); at <= lastSever; at++ {
		t.Run(fmt.Sprintf("sever=%d", at), func(t *testing.T) {
			r, w1 := run(t, at)
			var dead []string
			if w1.sends.Load() >= at {
				dead = []string{"w1"}
			}
			assertRecovered(t, r, dead...)
		})
	}
}

// TestStoppedWorkerDeclaredDead (regression): a stopped worker — a SIGSTOPped
// process, which neither reads nor writes while its connection stays open —
// is declared dead by the liveness check, not waited on. Its master-side
// connection wedges in both directions right after MAssign and MStart, so
// every later send to it blocks; the master's loop must never be the one
// blocked, or liveness never runs. Without failover the run fails naming the
// worker; with a standby it completes bit for bit like a single node.
func TestStoppedWorkerDeclaredDead(t *testing.T) {
	run := func(t *testing.T, failover bool) (*MasterResult, error) {
		ids := []string{"w0", "w1"}
		if failover {
			ids = append(ids, "spare")
		}
		start := time.Now()
		r := cluster{
			master:  MasterConfig{Failover: failover},
			workers: mulSumNodes(1, 8, ids...),
			wrap: func(i int, mc, wc Conn) (Conn, Conn) {
				if i == 1 {
					mc = NewFaultConn(mc, FaultPlan{WedgeSendAt: 3, WedgeRecvAt: 2})
				}
				return mc, wc
			},
		}.run(t)
		if took := time.Since(start); !failover && took > 10*defaultLiveness {
			t.Errorf("the stopped worker took %v to be declared dead, liveness window %v", took, defaultLiveness)
		}
		for i, err := range r.errs {
			if i != 1 && err != nil {
				t.Errorf("%s failed: %v", ids[i], err)
			}
		}
		return r.res, r.err
	}
	t.Run("fail-fast", func(t *testing.T) {
		_, err := run(t, false)
		if err == nil || !strings.Contains(err.Error(), "w1") || !strings.Contains(err.Error(), "liveness window") {
			t.Fatalf("error %v does not name the stopped worker and the liveness window", err)
		}
	})
	t.Run("failover", func(t *testing.T) {
		res, err := run(t, true)
		if err != nil {
			t.Fatalf("failover run failed: %v", err)
		}
		if !slices.Equal(res.DeadWorkers, []string{"w1"}) {
			t.Fatalf("DeadWorkers = %v, want [w1]", res.DeadWorkers)
		}
		assertMulSumShadow(t, res, mulSumReference(t))
	})
}

// TestStandbyReleasedCleanly: a standby the run never needs must be released
// at shutdown — RunWorker returns (nil, nil), not an error.
func TestStandbyReleasedCleanly(t *testing.T) {
	r := cluster{master: MasterConfig{Failover: true}, workers: mulSumNodes(1, 4, "w0", "w1", "spare")}.run(t)
	if r.err != nil || r.errs[0] != nil || r.errs[1] != nil {
		t.Fatalf("master %v, workers %v", r.err, r.errs)
	}
	if r.reports[2] != nil || r.errs[2] != nil {
		t.Errorf("unused standby returned (%v, %v), want (nil, nil)", r.reports[2], r.errs[2])
	}
	if len(r.res.DeadWorkers) != 0 || r.res.Replayed != 0 {
		t.Fatalf("clean run recorded deaths %v / %d replays", r.res.DeadWorkers, r.res.Replayed)
	}
}

// TestLivenessSilentWorker (regression): a worker that falls silent mid-run
// while its half of the connection stays open — its sends block (the
// half-open case: the peer machine is gone but no RST ever arrives) or vanish
// (a silent partition) — so no transport error ever fires, used to hang
// RunMaster forever at the zero MasterConfig. The liveness scan must declare
// it dead within a few windows and fail the run naming it, while the healthy
// worker is stopped cleanly.
func TestLivenessSilentWorker(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan FaultPlan // on w1's end; its registration (send 1) goes through
	}{
		{"wedge-send", FaultPlan{WedgeSendAt: 2}},
		{"drop-send", FaultPlan{DropSendFrom: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			r := cluster{workers: mulSumNodes(1, 8, "w0", "w1"), wrap: workerFault(1, tc.plan)}.run(t)
			if took := time.Since(start); took > 10*defaultLiveness {
				t.Errorf("the silent worker took %v to be declared dead, liveness window %v", took, defaultLiveness)
			}
			if r.err == nil || !strings.Contains(r.err.Error(), "w1") || !strings.Contains(r.err.Error(), "liveness window") {
				t.Fatalf("master error %v does not name the silent worker and the liveness window", r.err)
			}
			if r.errs[0] != nil {
				t.Errorf("healthy worker failed: %v", r.errs[0])
			}
		})
	}
}

// TestLivenessMasterStall (regression): a master whose own loop stalls for
// three liveness windows — a kill -STOP of the master, a long pause — finds
// on its next tick that its healthy workers were last heard before the
// stall. It used to declare them dead for its own silence; silence is now
// measured from that tick, and a worker silent for a window past it still
// dies.
func TestLivenessMasterStall(t *testing.T) {
	const window = 100 * time.Millisecond
	m := newMaster(MasterConfig{Liveness: window}, nil)
	t0 := time.Now()
	for i, id := range []string{"w0", "w1"} {
		c, _ := pipe(t)
		p := &peer{conn: c, idx: i, id: id, lastHeard: t0}
		p.out.cond.L = &p.out.mu
		m.peers = append(m.peers, p)
	}
	for _, at := range []time.Duration{0, 3 * window, 3*window + window/2} {
		if err := m.tick(t0.Add(at)); err != nil || len(m.deadIDs) != 0 {
			t.Fatalf("tick at +%v: %v, dead %v", at, err, m.deadIDs)
		}
	}
	err := m.tick(t0.Add(4*window + window/2))
	if err == nil || !strings.Contains(err.Error(), "w0") || !strings.Contains(err.Error(), "liveness window") {
		t.Fatalf("a worker silent a window past the stall: %v, want its death", err)
	}
}

// TestLivenessSilentMaster (regression): a master that falls silent mid-run
// — its end of the connection wedges every send after MAssign and MStart —
// used to leave a worker at the zero WorkerConfig waiting forever. MStart
// carries the liveness window, and the worker, whose never-ending mul/sum
// keeps the master hearing from it, must give up on its own within a few
// windows with an error naming the master connection.
func TestLivenessSilentMaster(t *testing.T) {
	start := time.Now()
	r := cluster{
		workers: mulSumNodes(1, 0, "w0"),
		wrap: func(_ int, mc, wc Conn) (Conn, Conn) {
			return NewFaultConn(mc, FaultPlan{WedgeSendAt: 3}), wc
		},
	}.run(t)
	if took := time.Since(start); took > 10*defaultLiveness {
		t.Errorf("the worker took %v to give up on its master, liveness window %v", took, defaultLiveness)
	}
	if err := r.errs[0]; err == nil || !strings.Contains(err.Error(), "master connection") || !strings.Contains(err.Error(), "idle timeout") {
		t.Fatalf("worker error %v does not name the master connection and its idle timeout", err)
	}
	if r.err == nil {
		t.Error("the master finished a run whose only worker gave up")
	}
}

// TestLivenessSilentRegistrant (regression): a node that connects but never
// registers — its first send wedges — used to block RunMaster forever in
// registration. The handshake is bounded by the liveness window: the master
// must fail naming the registration and the connection, and release the
// node that did register with the reason.
func TestLivenessSilentRegistrant(t *testing.T) {
	start := time.Now()
	r := cluster{workers: mulSumNodes(1, 8, "w0", "w1"), wrap: workerFault(1, FaultPlan{WedgeSendAt: 1})}.run(t)
	if took := time.Since(start); took > 10*defaultLiveness {
		t.Errorf("the silent registrant took %v to fail the run, liveness window %v", took, defaultLiveness)
	}
	if r.err == nil || !strings.Contains(r.err.Error(), "connection 2/2: waiting for registration") {
		t.Fatalf("master error %v does not name the silent registrant's connection and the registration", r.err)
	}
	if r.errs[0] == nil || !strings.Contains(r.errs[0].Error(), "master reported error") {
		t.Errorf("registered worker: %v, want the master's reason", r.errs[0])
	}
}

// TestLivenessDuringStopPhase (regression): quiescence used to trust a stale
// heartbeat forever — a worker that died right after its last idle status
// (and after MStopReq went out) hung report collection with no timeout. The
// liveness monitor must keep running through the stop phase and fail the run
// naming the worker.
func TestLivenessDuringStopPhase(t *testing.T) {
	prog := bigStoreProg(t, 4)
	mc, wc := pipe(t)
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		// Scripted worker: run the protocol honestly up to the stop request,
		// then die silently — the connection stays open but the final report
		// never comes.
		if err := wc.Send(&Msg{Kind: MRegister, NodeID: "w0", Cores: 1, Speed: 1}); err != nil {
			return
		}
		for {
			m, err := wc.Recv()
			if err != nil {
				return
			}
			switch m.Kind {
			case MStart:
				// Behave as if src ran: one whole generation plus its
				// completion, then the idle heartbeats below.
				arr := field.ArrayFromInt32([]int32{0, 1, 2, 3})
				wc.Send(storeFrameMsg(runtime.StoreNotice{Field: "data", Age: 0, Whole: true, Value: field.ArrayVal(arr)}))
				wc.Send(&Msg{Kind: MDone, Kernel: "src", Age: 0})
			case MPing:
				wc.Send(&Msg{Kind: MStatus, Idle: true, Sent: 2, Received: 0})
			case MStopReq:
				return // dead: no MReport, connection left open
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(MasterConfig{Prog: prog}, []Conn{mc})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("master collected a report from a dead worker")
		}
		if !strings.Contains(err.Error(), "w0") || !strings.Contains(err.Error(), "liveness window") {
			t.Fatalf("error %q does not name the dead worker and the liveness window", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master hung waiting for a dead worker's report")
	}
	<-workerDone
}

// failoverBoomProg: "src" stores a generation, "bad" consumes it and fails.
// The fetch dependency guarantees the failure fires mid-protocol, with the
// other worker's state still live.
func failoverBoomProg(t *testing.T) *core.Program {
	t.Helper()
	b := core.NewBuilder("boom")
	b.Field("f", field.Int32, 1, true)
	b.Field("g", field.Int32, 1, true)
	b.Kernel("src").
		Local("v", field.Int32, 1).
		StoreAll("f", core.AgeAt(0), "v").
		Body(func(c *core.Ctx) error {
			c.Array("v").Put(field.Int32Val(1), 0)
			return nil
		})
	b.Kernel("bad").Age("a").Index("x").
		Local("v", field.Int32, 0).
		Fetch("v", "f", core.AgeVar(0), core.Idx("x")).
		Store("g", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "v").
		Body(func(c *core.Ctx) error {
			return errors.New("boom failure")
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMasterFailureBroadcastsStop (regression): a kernel that fails on one
// node must shut the whole cluster down with its error instead of hanging.
// The master used to just close every connection: survivors then saw a
// transport error and exited through the error path, reported as failures
// with their node state torn down abruptly. The master must broadcast
// MStopReq first so survivors shut down through the normal stop path and
// return nil.
func TestMasterFailureBroadcastsStop(t *testing.T) {
	r := cluster{workers: nodes(2, func(int) WorkerConfig {
		return WorkerConfig{Cores: 1, Prog: failoverBoomProg(t)}
	})}.run(t)
	if r.err == nil || !strings.Contains(r.err.Error(), "boom failure") {
		t.Fatalf("master error = %v, want the injected kernel failure", r.err)
	}
	// Exactly one worker hosted the failing kernel; the other must have been
	// stopped cleanly instead of erroring on a closed connection.
	if (r.errs[0] == nil) == (r.errs[1] == nil) {
		t.Fatalf("worker exits: %v — want one failure (the faulty kernel's host) and one clean stop", r.errs)
	}
}

// TestMasterAbortReleasesHandshakeWorkers (regression): a master that failed
// before the broker loop existed (bad registration, partition error, ...)
// used to just return, leaving every already-connected worker blocked in its
// handshake forever. It must broadcast the reason and close.
func TestMasterAbortReleasesHandshakeWorkers(t *testing.T) {
	r := cluster{
		workers: mulSumNodes(1, 2, "good", "bad"),
		// The bad worker speaks garbage first, failing the master's
		// registration phase while the good worker sits in its handshake.
		wrap: func(i int, mc, wc Conn) (Conn, Conn) {
			if i == 1 {
				if err := wc.Send(&Msg{Kind: MPing}); err != nil {
					t.Fatal(err)
				}
			}
			return mc, wc
		},
	}.run(t)
	if r.err == nil || !strings.Contains(r.err.Error(), "expected registration") {
		t.Fatalf("master error = %v, want registration failure", r.err)
	}
	if r.errs[0] == nil || !strings.Contains(r.errs[0].Error(), "master reported error") {
		t.Fatalf("worker error = %v, want the master's abort reason", r.errs[0])
	}
}

// mjpegFailover is spec's MJPEG pipeline on two workers that dial one
// listener, w1's connection severing at its severAt-th send. Workers build
// the program from the spec via the factory — required for failover, since a
// rebuilt node must restart the video source from frame zero rather than
// resume a half-consumed stream.
func mjpegFailover(tb testing.TB, spec string, severAt int64, failover bool) cluster {
	prog, err := workloads.FromSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return cluster{
		master: MasterConfig{Prog: prog, Spec: spec, Failover: failover},
		workers: nodes(2, func(int) WorkerConfig {
			return WorkerConfig{Cores: 2, Factory: workloads.FromSpec}
		}),
		wrap:   workerFault(1, FaultPlan{SeverSendAt: severAt}),
		listen: true,
	}
}

// TestFailoverMJPEGOverTCP is the acceptance scenario: the MJPEG pipeline
// over real TCP, one worker killed mid-stream. With failover on, the
// bitstream must come out bit-identical to the single-node encoder; with it
// off, the run must fail promptly with an error naming the killed worker.
func TestFailoverMJPEGOverTCP(t *testing.T) {
	const frames = 4
	var baseline bytes.Buffer
	enc := &mjpeg.Encoder{Quality: 70}
	if _, err := enc.EncodeStream(video.NewSynthetic(32, 32, frames, 4), &baseline); err != nil {
		t.Fatal(err)
	}

	spec := fmt.Sprintf("mjpeg:frames=%d,w=32,h=32,quality=70,seed=4", frames)
	t.Run("failover-on-bit-identical", func(t *testing.T) {
		r := mjpegFailover(t, spec, 4, true).run(t)
		if r.err != nil || r.errs[0] != nil {
			t.Fatalf("failover run failed: master %v, survivor %v", r.err, r.errs[0])
		}
		if !slices.Equal(r.res.DeadWorkers, []string{"w1"}) {
			t.Fatalf("DeadWorkers = %v, want [w1]", r.res.DeadWorkers)
		}
		stream, err := workloads.MJPEGStream(r.res.Shadow, frames)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream, baseline.Bytes()) {
			t.Errorf("failover bitstream (%d bytes) differs from baseline (%d bytes)",
				len(stream), baseline.Len())
		}
	})
	t.Run("failover-off-named-error", func(t *testing.T) {
		r := mjpegFailover(t, spec, 4, false).run(t)
		if r.err == nil || !strings.Contains(r.err.Error(), "w1") {
			t.Fatalf("fail-fast run: %v, want an error naming the killed worker", r.err)
		}
	})
}

// BenchmarkTransportMJPEGFailover measures the end-to-end cost of surviving a
// worker death mid-encode, in TestFailoverMJPEGOverTCP's scenario at
// BenchmarkTransportMJPEG's frame size: w1 is severed at its fourth send and
// the master repartitions onto the survivor and replays its log of store
// frames. Compare ns/op against BenchmarkTransportMJPEG for the failover
// penalty; replayed-frames/op sizes the replay traffic.
func BenchmarkTransportMJPEGFailover(b *testing.B) {
	var wire, replayed int64
	for i := 0; i < b.N; i++ {
		c := mjpegFailover(b, "mjpeg:frames=4,w=128,h=128,quality=70,seed=4,fast=1", 4, true)
		wireBytes := countWire(&c)
		r := c.run(b)
		if r.err != nil || r.errs[0] != nil || len(r.res.DeadWorkers) != 1 {
			b.Fatalf("master %v, survivor %v", r.err, r.errs[0])
		}
		wire += wireBytes()
		replayed += r.res.Replayed
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed-frames/op")
}

// TestOutboxPingsLetQueueThrough (regression): a status ping overtakes
// queued messages one at a time. With a fresh ping pushed before every next —
// a writer whose every send outlasts the poll interval — pings and queued
// messages alternate, and the queue still drains in order.
func TestOutboxPingsLetQueueThrough(t *testing.T) {
	var o outbox
	o.cond.L = &o.mu
	queued := []*Msg{{Kind: MStoreFrame, Age: 0}, {Kind: MStoreFrame, Age: 1}, {Kind: MDone, Age: 1}}
	for _, m := range queued {
		o.push(m)
	}
	for i := range 2 * len(queued) {
		ping := &Msg{Kind: MPing}
		o.push(ping)
		want := ping
		if i%2 == 1 {
			want = queued[i/2]
		}
		if got := o.next(); got != want {
			t.Fatalf("send %d: %v (age %d), want %v (age %d)", i, got.Kind, got.Age, want.Kind, want.Age)
		}
	}
}

// TestFailoverRecoveryDoesNotCascade (regression): replaying a long log to a
// rebuilt worker can take several liveness windows to drain, and the
// survivor receiving it must stay alive all the while. Pings must not wait
// behind that replay backlog: queued after it, they would reach the survivor
// only once the replay had gone out, its answers would come too late, and one
// death would cascade into falsely declaring a healthy survivor dead. Every
// master-side link here is artificially slowed so the replay takes several
// liveness windows.
func TestFailoverRecoveryDoesNotCascade(t *testing.T) {
	b := core.NewBuilder("cascade")
	b.Field("data", field.Int32, 1, true)
	// Self-feeding source: consumes its own output, so the rebuilt worker's
	// kernel set consumes "data" and the recovery replays every generation.
	b.Kernel("gen").Age("a").
		Local("v", field.Int32, 1).
		FetchAll("v", "data", core.AgeVar(0)).
		StoreAll("data", core.AgeVar(1), "v").
		Body(func(c *core.Ctx) error { return nil })
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	const gens = 40
	// The victim's stores cross a link delayed up to 20ms per message, so it
	// must stay visibly alive (busy heartbeats) long enough for the master
	// to ingest all of them — only then does it fall silent, guaranteeing
	// the recovery replays the full log.
	const silenceAfter = 1200 * time.Millisecond
	// Scripted worker: whichever node the partitioner hands "gen" plays the
	// victim. The other node stays healthy but quiet: it answers every ping
	// and otherwise only counts the data the master sends it.
	mkWorker := func(conn Conn, id string) chan error {
		done := make(chan error, 1)
		go func() {
			done <- func() error {
				if err := conn.Send(&Msg{Kind: MRegister, NodeID: id, Cores: 1, Speed: 1}); err != nil {
					return err
				}
				victim, assigned := false, false
				var started time.Time
				var received int64
				for {
					m, err := conn.Recv()
					if err != nil {
						if victim {
							return nil // master closed the declared-dead node
						}
						return err
					}
					if victim && !started.IsZero() && time.Since(started) > silenceAfter {
						for { // silent death: connection open, no replies
							if _, err := conn.Recv(); err != nil {
								return nil
							}
						}
					}
					switch m.Kind {
					case MAssign:
						if assigned {
							received = 0 // rebuilt from scratch, like a real worker
							break
						}
						assigned = true
						for _, k := range m.Kernels {
							if k == "gen" {
								victim = true
							}
						}
					case MStart:
						if victim {
							started = time.Now()
							for a := 0; a < gens; a++ {
								arr := field.ArrayFromInt32([]int32{int32(a), int32(a * 2)})
								if err := conn.Send(storeFrameMsg(runtime.StoreNotice{Field: "data", Age: a, Whole: true, Value: field.ArrayVal(arr)})); err != nil {
									return err
								}
							}
						}
					case MStoreFrame, MDone:
						received++
					case MPing:
						// The victim reports busy so the run cannot quiesce
						// before its death; the survivor is honestly idle.
						st := &Msg{Kind: MStatus, Idle: !victim, Received: received}
						if victim {
							st.Sent = gens
						}
						if err := conn.Send(st); err != nil {
							return err
						}
					case MStopReq:
						return conn.Send(&Msg{Kind: MReport, Report: &runtime.Report{}})
					}
				}
			}()
		}()
		return done
	}

	mc0, wc0 := pipe(t)
	mc1, wc1 := pipe(t)
	w0 := mkWorker(wc0, "w0")
	w1 := mkWorker(wc1, "w1")
	// Liveness window 240ms; replaying 40 generations across a
	// link delaying each message up to 20ms takes several windows. The
	// master pings every 2ms, so while a slow send is under way the next
	// ping is already pending; after a ping the outbox sends one queued
	// frame before the next ping, so the replay drains and a ping waits
	// behind at most one frame. A healthy ping round trip is then at most
	// ~60ms (one frame, a delayed ping, a delayed answer), well inside the
	// window, so the only way the survivor can look stale is a ping stuck
	// behind the replay.
	slow := FaultPlan{Delay: 20 * time.Millisecond, DelayEvery: 1}
	res, err := RunMaster(MasterConfig{
		Prog: prog, Failover: true, Liveness: 240 * time.Millisecond,
	}, []Conn{NewFaultConn(mc0, slow), NewFaultConn(mc1, slow)})
	if err != nil {
		t.Fatalf("recovery cascaded into failure: %v", err)
	}
	if len(res.DeadWorkers) != 1 {
		t.Fatalf("dead workers = %v, want exactly the victim", res.DeadWorkers)
	}
	if res.Replayed < gens {
		t.Fatalf("replayed %d frames, want at least one per generation (%d)", res.Replayed, gens)
	}
	for _, c := range []chan error{w0, w1} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatalf("worker failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker never released")
		}
	}
}
