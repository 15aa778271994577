package dist

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
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

// TestFailoverSurvivorTakeover kills one of two workers mid-run (its
// connection severs on its Nth send) with failover enabled: the master must
// reassign the lost kernels to the survivor, replay the lost write-once
// frames, and finish with exactly the state a clean run produces.
func TestFailoverSurvivorTakeover(t *testing.T) {
	ref := mulSumReference(t)
	const n = 2
	masterConns := make([]Conn, n)
	workerErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		if i == 1 {
			// w1 dies abruptly at its 12th send: registration plus a stretch
			// of stores and completions, then the connection severs mid-run.
			wc = NewFaultConn(wc, FaultPlan{SeverSendAt: 12})
		}
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			_, workerErrs[i] = RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i), Cores: 2,
				Prog: workloads.MulSum(), MaxAge: 8,
			}, conn)
		}(i, wc)
	}
	res, err := RunMaster(MasterConfig{
		Prog: workloads.MulSum(), Failover: true,
	}, masterConns)
	wg.Wait()
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if workerErrs[0] != nil {
		t.Fatalf("survivor failed: %v", workerErrs[0])
	}
	if workerErrs[1] == nil {
		t.Fatal("killed worker returned cleanly despite its severed connection")
	}
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != "w1" {
		t.Fatalf("DeadWorkers = %v, want [w1]", res.DeadWorkers)
	}
	if res.Replayed == 0 {
		t.Fatal("no logged frames were replayed to the survivor")
	}
	if _, ok := res.Reports["w0"]; !ok {
		t.Fatalf("missing survivor report: %v", res.Reports)
	}
	assertMulSumShadow(t, res, ref)
}

// TestFailoverStandbyTakeover: same kill, but a hot standby (registered with
// MJoin) is waiting. The master must promote it, replay the log to it,
// and finish bit-identically; the promoted standby returns a real report.
func TestFailoverStandbyTakeover(t *testing.T) {
	ref := mulSumReference(t)
	const n = 2
	masterConns := make([]Conn, n)
	workerErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		if i == 1 {
			wc = NewFaultConn(wc, FaultPlan{SeverSendAt: 12})
		}
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			_, workerErrs[i] = RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i), Cores: 2,
				Prog: workloads.MulSum(), MaxAge: 8,
			}, conn)
		}(i, wc)
	}
	sbMaster, sbWorker := InprocPipe()
	var sbRep *runtime.Report
	var sbErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sbRep, sbErr = RunWorker(WorkerConfig{
			NodeID: "spare", Cores: 2,
			Prog: workloads.MulSum(), MaxAge: 8, Standby: true,
		}, sbWorker)
	}()
	res, err := RunMaster(MasterConfig{
		Prog: workloads.MulSum(), Failover: true,
	}, append(masterConns, sbMaster))
	wg.Wait()
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if workerErrs[0] != nil {
		t.Fatalf("survivor failed: %v", workerErrs[0])
	}
	if sbErr != nil {
		t.Fatalf("promoted standby failed: %v", sbErr)
	}
	if sbRep == nil {
		t.Fatal("promoted standby returned no report")
	}
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != "w1" {
		t.Fatalf("DeadWorkers = %v, want [w1]", res.DeadWorkers)
	}
	if _, ok := res.Reports["spare"]; !ok {
		t.Fatalf("standby report missing: %v", res.Reports)
	}
	assertMulSumShadow(t, res, ref)
}

// TestReplayTargetDeath (regression): a node that dies while its recovery
// replay is still going out is one more death, not a failed run. w1 dies
// mid-run (its connection severs at its 12th send); the promoted standby's
// connection severs at a send inside the replay it is being given (its
// MAssign and MStart are sends 1 and 2). The master must re-place the work
// on the survivor, replay to it, and finish bit for bit like a single node.
func TestReplayTargetDeath(t *testing.T) {
	ref := mulSumReference(t)
	conns := make([]Conn, 3)
	workerErrs := make([]error, 3)
	var wg sync.WaitGroup
	for i, id := range []string{"w0", "w1", "spare"} {
		mc, wc := InprocPipe()
		conns[i] = mc
		switch id {
		case "w1":
			wc = NewFaultConn(wc, FaultPlan{SeverSendAt: 12})
		case "spare":
			conns[i] = NewFaultConn(mc, FaultPlan{SeverSendAt: 5})
		}
		wg.Add(1)
		go func(i int, id string, conn Conn) {
			defer wg.Done()
			_, workerErrs[i] = RunWorker(WorkerConfig{
				NodeID: id, Cores: 2, Prog: workloads.MulSum(), MaxAge: 8, Standby: id == "spare",
			}, conn)
		}(i, id, wc)
	}
	res, err := RunMaster(MasterConfig{
		Prog: workloads.MulSum(), Failover: true,
	}, conns)
	wg.Wait()
	if err != nil {
		t.Fatalf("a death during recovery failed the run: %v", err)
	}
	if workerErrs[0] != nil {
		t.Fatalf("survivor failed: %v", workerErrs[0])
	}
	if !slices.Equal(res.DeadWorkers, []string{"w1", "spare"}) {
		t.Fatalf("DeadWorkers = %v, want [w1 spare]", res.DeadWorkers)
	}
	if _, ok := res.Reports["w0"]; !ok {
		t.Fatalf("missing survivor report: %v", res.Reports)
	}
	assertMulSumShadow(t, res, ref)
}

// TestStoppedWorkerDeclaredDead (regression): a stopped worker — a SIGSTOPped
// process, which neither reads nor writes while its connection stays open —
// is declared dead by the liveness check, not waited on. Its master-side
// connection wedges in both directions right after MAssign and MStart, so
// every later send to it blocks; the master's loop must never be the one
// blocked, or liveness never runs. Without failover the run fails naming the
// worker; with a standby it completes bit for bit like a single node.
func TestStoppedWorkerDeclaredDead(t *testing.T) {
	const heartbeat, maxMissed = 50 * time.Millisecond, 4
	run := func(t *testing.T, failover bool) (*MasterResult, error) {
		ids := []string{"w0", "w1"}
		if failover {
			ids = append(ids, "spare")
		}
		conns := make([]Conn, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			mc, wc := InprocPipe()
			conns[i] = mc
			if id == "w1" {
				conns[i] = NewFaultConn(mc, FaultPlan{WedgeSendAt: 3, WedgeRecvAt: 2})
			}
			wg.Add(1)
			go func(id string, conn Conn) {
				defer wg.Done()
				_, err := RunWorker(WorkerConfig{
					NodeID: id, Cores: 1, Prog: workloads.MulSum(), MaxAge: 8, Standby: id == "spare",
				}, conn)
				if id != "w1" && err != nil {
					t.Errorf("%s failed: %v", id, err)
				}
			}(id, wc)
		}
		type outcome struct {
			res *MasterResult
			err error
		}
		done := make(chan outcome, 1)
		start := time.Now()
		go func() {
			res, err := RunMaster(MasterConfig{
				Prog: workloads.MulSum(), Failover: failover,
				Heartbeat: heartbeat, MaxMissed: maxMissed,
			}, conns)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			wg.Wait()
			if took := time.Since(start); !failover && took > 10*heartbeat*maxMissed {
				t.Errorf("the stopped worker took %v to be declared dead, liveness window %v", took, heartbeat*maxMissed)
			}
			return o.res, o.err
		case <-time.After(10 * time.Second):
			t.Fatal("master wedged in a send to a stopped worker")
			return nil, nil
		}
	}
	t.Run("fail-fast", func(t *testing.T) {
		_, err := run(t, false)
		if err == nil || !strings.Contains(err.Error(), "w1") || !strings.Contains(err.Error(), "missed") {
			t.Fatalf("error %v does not name the stopped worker and the missed heartbeats", err)
		}
	})
	t.Run("failover", func(t *testing.T) {
		ref := mulSumReference(t)
		res, err := run(t, true)
		if err != nil {
			t.Fatalf("failover run failed: %v", err)
		}
		if !slices.Equal(res.DeadWorkers, []string{"w1"}) {
			t.Fatalf("DeadWorkers = %v, want [w1]", res.DeadWorkers)
		}
		assertMulSumShadow(t, res, ref)
	})
}

// TestStandbyReleasedCleanly: a standby the run never needs must be released
// at shutdown — RunWorker returns (nil, nil), not an error.
func TestStandbyReleasedCleanly(t *testing.T) {
	const n = 2
	masterConns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i), Cores: 1,
				Prog: workloads.MulSum(), MaxAge: 4,
			}, conn); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, wc)
	}
	sbMaster, sbWorker := InprocPipe()
	released := make(chan struct{})
	go func() {
		defer close(released)
		rep, err := RunWorker(WorkerConfig{
			NodeID: "spare", Cores: 1,
			Prog: workloads.MulSum(), MaxAge: 4, Standby: true,
		}, sbWorker)
		if rep != nil || err != nil {
			t.Errorf("unused standby returned (%v, %v), want (nil, nil)", rep, err)
		}
	}()
	res, err := RunMaster(MasterConfig{
		Prog: workloads.MulSum(), Failover: true,
	}, append(masterConns, sbMaster))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeadWorkers) != 0 || res.Replayed != 0 {
		t.Fatalf("clean run recorded deaths %v / %d replays", res.DeadWorkers, res.Replayed)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("standby was never released")
	}
}

// TestMasterIdleTimeoutNamesWedgedWorker (regression): a half-open worker
// connection — the peer machine is gone but no RST ever arrives, so the
// worker just falls silent — used to wedge RunMaster forever in a blocking
// Recv. With an idle timeout set, the master must return promptly with an
// error naming the wedged worker.
func TestMasterIdleTimeoutNamesWedgedWorker(t *testing.T) {
	const n = 2
	masterConns := make([]Conn, n)
	var wedged *FaultConn
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		if i == 1 {
			// Everything after registration blocks: the half-open case.
			wedged = NewFaultConn(wc, FaultPlan{WedgeSendAt: 2})
			wc = wedged
		}
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			// w1 is expected to fail once the wedge releases; w0 must not.
			_, err := RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i), Cores: 1,
				Prog: workloads.MulSum(), MaxAge: 8,
			}, conn)
			if i == 0 && err != nil {
				t.Errorf("healthy worker failed: %v", err)
			}
		}(i, wc)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(MasterConfig{
			Prog:        workloads.MulSum(),
			IdleTimeout: 200 * time.Millisecond,
		}, masterConns)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("master succeeded with a wedged worker")
		}
		if !strings.Contains(err.Error(), "w1") || !strings.Contains(err.Error(), "idle timeout") {
			t.Fatalf("error %q does not name the wedged worker and the idle timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master wedged on a half-open worker connection")
	}
	// Release the wedge so the blocked worker goroutine can tear down.
	wedged.Close()
	wg.Wait()
}

// TestLivenessCatchesSilentPartition (regression): a worker whose sends are
// silently discarded (its half of the connection stays open, so no transport
// error ever fires) must be declared dead by the heartbeat monitor — without
// failover the run fails naming the worker instead of hanging.
func TestLivenessCatchesSilentPartition(t *testing.T) {
	const n = 2
	masterConns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		if i == 1 {
			// Registration goes through; every later send vanishes.
			wc = NewFaultConn(wc, FaultPlan{DropSendFrom: 2})
		}
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			// w1's connection is eventually closed by the master; both exits
			// are tolerated here, correctness is asserted master-side.
			_, _ = RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i), Cores: 1,
				Prog: workloads.MulSum(), MaxAge: 8,
			}, conn)
		}(i, wc)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(MasterConfig{
			Prog:      workloads.MulSum(),
			Heartbeat: 50 * time.Millisecond, MaxMissed: 4,
		}, masterConns)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("master succeeded despite a silently partitioned worker")
		}
		if !strings.Contains(err.Error(), "w1") || !strings.Contains(err.Error(), "missed") {
			t.Fatalf("error %q does not name the silent worker and the missed heartbeats", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("liveness monitor never fired on a silent partition")
	}
	wg.Wait()
}

// TestLivenessDuringStopPhase (regression): quiescence used to trust a stale
// heartbeat forever — a worker that died right after its last idle status
// (and after MStopReq went out) hung report collection with no timeout. The
// liveness monitor must keep running through the stop phase and fail the run
// naming the worker.
func TestLivenessDuringStopPhase(t *testing.T) {
	prog := bigStoreProg(t, 4)
	mc, wc := InprocPipe()
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
		_, err := RunMaster(MasterConfig{
			Prog:      prog,
			Heartbeat: 50 * time.Millisecond, MaxMissed: 4,
		}, []Conn{mc})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("master collected a report from a dead worker")
		}
		if !strings.Contains(err.Error(), "w0") || !strings.Contains(err.Error(), "missed") {
			t.Fatalf("error %q does not name the dead worker and the missed heartbeats", err)
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

// TestMasterFailureBroadcastsStop (regression): when the run fails (here: a
// worker's kernel errors), the master used to just close every connection.
// Survivors then saw a transport error and exited through the error path,
// reported as failures with their node state torn down abruptly. The master
// must broadcast MStopReq first so survivors shut down through the normal
// stop path and return nil.
func TestMasterFailureBroadcastsStop(t *testing.T) {
	const n = 2
	masterConns := make([]Conn, n)
	workerErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			_, workerErrs[i] = RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i), Cores: 1, Prog: failoverBoomProg(t),
			}, conn)
		}(i, wc)
	}
	_, err := RunMaster(MasterConfig{Prog: failoverBoomProg(t)}, masterConns)
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "boom failure") {
		t.Fatalf("master error = %v, want the injected kernel failure", err)
	}
	var failed, clean int
	for i := 0; i < n; i++ {
		if workerErrs[i] != nil {
			failed++
		} else {
			clean++
		}
	}
	// Exactly one worker hosted the failing kernel; the other must have been
	// stopped cleanly instead of erroring on a closed connection.
	if failed != 1 || clean != 1 {
		t.Fatalf("worker exits: %v — want one failure (the faulty kernel's host) and one clean stop", workerErrs)
	}
}

// TestMasterAbortReleasesHandshakeWorkers (regression): a master that failed
// before the broker loop existed (bad registration, partition error, ...)
// used to just return, leaving every already-connected worker blocked in its
// handshake forever. It must broadcast the reason and close.
func TestMasterAbortReleasesHandshakeWorkers(t *testing.T) {
	good, goodWorker := InprocPipe()
	bad, badWorker := InprocPipe()
	// The bad "worker" speaks garbage first, failing the master's
	// registration phase while the good worker sits in its handshake.
	if err := badWorker.Send(&Msg{Kind: MPing}); err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() {
		_, err := RunWorker(WorkerConfig{
			NodeID: "good", Cores: 1, Prog: workloads.MulSum(), MaxAge: 2,
		}, goodWorker)
		workerDone <- err
	}()
	_, err := RunMaster(MasterConfig{Prog: workloads.MulSum()}, []Conn{good, bad})
	if err == nil || !strings.Contains(err.Error(), "expected registration") {
		t.Fatalf("master error = %v, want registration failure", err)
	}
	select {
	case werr := <-workerDone:
		if werr == nil || !strings.Contains(werr.Error(), "master reported error") {
			t.Fatalf("worker error = %v, want the master's abort reason", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker still blocked in its handshake after the master aborted")
	}
}

// distMJPEGFailover runs spec's MJPEG pipeline across two TCP workers with
// the second worker's connection severing at its severAt-th send, and returns
// the master's outcome. The survivor must exit cleanly when failover is on.
// Workers build the program from the spec via the factory — required for
// failover, since a rebuilt node must restart the video source from frame
// zero rather than resume a half-consumed stream.
func distMJPEGFailover(t *testing.T, spec string, severAt int, failover bool) (*MasterResult, error) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 2
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := DialTCP(l.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			if i == 1 {
				// tcp1 dies abruptly severAt messages into the run.
				conn = NewFaultConn(conn, FaultPlan{SeverSendAt: int64(severAt)})
			}
			_, werr := RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("tcp%d", i), Cores: 2, Factory: workloads.FromSpec,
			}, conn)
			if i == 0 && failover && werr != nil {
				t.Errorf("survivor failed: %v", werr)
			}
		}(i)
	}
	conns := make([]Conn, n)
	for i := range conns {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return nil, err
		}
		conns[i] = c
	}
	prog, err := workloads.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMaster(MasterConfig{
		Prog: prog, Spec: spec, Failover: failover,
	}, conns)
	wg.Wait()
	return res, err
}

// TestFailoverMJPEGOverTCP is the acceptance scenario: the MJPEG pipeline
// over real TCP, one worker killed mid-stream. With failover on, the
// bitstream must come out bit-identical to the single-node encoder; with it
// off, the run must fail promptly with an error naming the killed worker.
func TestFailoverMJPEGOverTCP(t *testing.T) {
	workloads.RegisterPayloads()
	const frames = 4
	var baseline bytes.Buffer
	enc := &mjpeg.Encoder{Quality: 70}
	if _, err := enc.EncodeStream(video.NewSynthetic(32, 32, frames, 4), &baseline); err != nil {
		t.Fatal(err)
	}

	spec := fmt.Sprintf("mjpeg:frames=%d,w=32,h=32,quality=70,seed=4", frames)
	t.Run("failover-on-bit-identical", func(t *testing.T) {
		res, err := distMJPEGFailover(t, spec, 4, true)
		if err != nil {
			t.Fatalf("failover run failed: %v", err)
		}
		if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != "tcp1" {
			t.Fatalf("DeadWorkers = %v, want [tcp1]", res.DeadWorkers)
		}
		var stream []byte
		for a := 0; a < frames; a++ {
			s, err := res.Shadow.Snapshot("bitstream", a)
			if err != nil {
				t.Fatal(err)
			}
			if s.Extent(0) == 0 {
				t.Fatalf("frame %d missing from the logged bitstream", a)
			}
			stream = append(stream, s.At(0).Obj().([]byte)...)
		}
		if !bytes.Equal(stream, baseline.Bytes()) {
			t.Errorf("failover bitstream (%d bytes) differs from baseline (%d bytes)",
				len(stream), baseline.Len())
		}
	})
	t.Run("failover-off-named-error", func(t *testing.T) {
		done := make(chan error, 1)
		go func() {
			_, err := distMJPEGFailover(t, spec, 4, false)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("fail-fast run succeeded despite a killed worker")
			}
			if !strings.Contains(err.Error(), "tcp1") {
				t.Fatalf("error %q does not name the killed worker", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fail-fast run hung on a killed worker")
		}
	})
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

	mc0, wc0 := InprocPipe()
	mc1, wc1 := InprocPipe()
	w0 := mkWorker(wc0, "w0")
	w1 := mkWorker(wc1, "w1")
	// Liveness window 60ms x 4 = 240ms; replaying 40 generations across a
	// link delaying each message up to 20ms takes several windows. A healthy
	// ping round trip is at most ~60ms (a delayed send, then a delayed
	// receive), well inside the window at this poll interval, so the only
	// way the survivor can look stale is a ping stuck behind the replay.
	slow := FaultPlan{Delay: 20 * time.Millisecond, DelayEvery: 1}
	res, err := RunMaster(MasterConfig{
		Prog: prog, Failover: true,
		Heartbeat: 60 * time.Millisecond, MaxMissed: 4,
		PollInterval: 100 * time.Millisecond,
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
