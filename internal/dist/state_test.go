package dist

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// TestSendIdleTimeout: with the peer not reading, Sends fill the socket
// buffers and the next one fails with an idle timeout instead of blocking
// forever — SetIdleTimeout bounds Send as well as Recv.
func TestSendIdleTimeout(t *testing.T) {
	a, _ := pipe(t)
	a.SetIdleTimeout(20 * time.Millisecond)
	frame := net.Buffers{make([]byte, 64<<10)}
	done := make(chan error, 1)
	go func() {
		for {
			if err := a.SendFrame(&Msg{Kind: MStoreFrame, Field: "f"}, frame); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if !strings.Contains(err.Error(), "dist: idle timeout") {
			t.Fatalf("Send into a full socket failed with %q, want an idle timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send into a full socket blocked past its idle timeout")
	}
}

// scriptedMaster is the master end of a pipe to a real RunWorker, driven
// message by message.
type scriptedMaster struct {
	t *testing.T
	c Conn
}

func (s scriptedMaster) send(msgs ...*Msg) {
	s.t.Helper()
	for _, m := range msgs {
		if err := s.c.Send(m); err != nil {
			s.t.Fatal(err)
		}
	}
}

// expect receives until a message of the wanted kind arrives and returns it.
func (s scriptedMaster) expect(kind MsgKind) *Msg {
	s.t.Helper()
	for {
		m, err := s.c.Recv()
		if err != nil {
			s.t.Fatalf("waiting for %v: %v", kind, err)
		}
		if m.Kind == kind {
			return m
		}
	}
}

// probe sends one clock probe and checks the echo.
func (s scriptedMaster) probe(state string) {
	s.t.Helper()
	stamp := time.Now().UnixNano()
	s.send(&Msg{Kind: MClockProbe, SentNs: stamp})
	if echo := s.expect(MClockEcho); echo.SentNs != stamp || echo.NodeNs == 0 {
		s.t.Fatalf("%s: echo %+v does not answer probe %d", state, echo, stamp)
	}
}

// quiesce pings until the worker is idle having received want messages, and
// returns that status.
func (s scriptedMaster) quiesce(want int64) *Msg {
	s.t.Helper()
	for {
		s.send(&Msg{Kind: MPing})
		if st := s.expect(MStatus); st.Idle && st.Sent > 0 && st.Received == want {
			return st
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestWorkerStates drives one worker through unassigned → built → running by
// hand. The worker hosts every MulSum kernel but init, whose one generation
// and completion the scripted master supplies.
func TestWorkerStates(t *testing.T) {
	assign := &Msg{Kind: MAssign, Kernels: []string{"mul2", "plus5", "print"}}
	initData := func() []*Msg {
		seed := field.ArrayFromInt32([]int32{10, 11, 12, 13, 14})
		return []*Msg{
			storeFrameMsg(runtime.StoreNotice{Field: "m_data", Age: 0, Whole: true, Value: field.ArrayVal(seed)}),
			{Kind: MDone, Kernel: "init", Age: 0},
		}
	}
	cases := []struct {
		name   string
		script func(s scriptedMaster)
		// wantReport: RunWorker returns a report (and the master was sent
		// it); otherwise (nil, nil). ageZero counts how often the print
		// kernel must have printed age 0.
		wantReport bool
		ageZero    int
	}{
		{name: "clock probes are echoed in every state", wantReport: true, ageZero: 1,
			script: func(s scriptedMaster) {
				s.probe("unassigned")
				s.send(assign)
				s.probe("built")
				s.send(&Msg{Kind: MStart})
				s.probe("running")
				s.send(initData()...)
				s.quiesce(2)
				s.probe("running, idle")
				s.send(&Msg{Kind: MStopReq})
				s.expect(MReport)
			}},
		{name: "a status carries metrics only when its ping asks", wantReport: true, ageZero: 1,
			script: func(s scriptedMaster) {
				s.send(assign, &Msg{Kind: MStart})
				s.send(initData()...)
				if st := s.quiesce(2); st.Metrics != nil {
					s.t.Fatalf("a ping without WantMetrics was answered with %d counters", len(st.Metrics.Counters))
				}
				s.send(&Msg{Kind: MPing, WantMetrics: true})
				if st := s.expect(MStatus); st.Metrics == nil || len(st.Metrics.Counters) == 0 {
					s.t.Fatal("a ping with WantMetrics was answered without metrics")
				}
				s.send(&Msg{Kind: MStopReq})
				s.expect(MReport)
			}},
		{name: "a stop while unassigned releases the worker",
			script: func(s scriptedMaster) {
				s.probe("unassigned")
				s.send(&Msg{Kind: MStopReq})
			}},
		// A run that fails while a worker's MStart is still queued sends
		// that worker the stop in its place.
		{name: "a stop while assigned and not started releases the worker",
			script: func(s scriptedMaster) {
				s.send(assign)
				s.probe("built")
				s.send(&Msg{Kind: MStopReq})
			}},
		{name: "a second assignment mid-run rebuilds the node", wantReport: true, ageZero: 2,
			script: func(s scriptedMaster) {
				s.send(assign, &Msg{Kind: MStart})
				s.send(initData()...)
				first := s.quiesce(2)
				// Reassignment is assignment: counters restart at zero, and
				// with init's generation gone nothing can run until it is
				// replayed.
				s.send(assign, &Msg{Kind: MStart}, &Msg{Kind: MPing})
				if st := s.expect(MStatus); st.Sent != 0 || st.Received != 0 {
					s.t.Fatalf("status after reassignment: sent %d received %d, want 0/0", st.Sent, st.Received)
				}
				s.send(initData()...)
				if again := s.quiesce(2); again.Sent != first.Sent {
					s.t.Fatalf("rebuilt node sent %d events, the first run %d", again.Sent, first.Sent)
				}
				s.send(&Msg{Kind: MStopReq})
				s.expect(MReport)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc, wc := pipe(t)
			var out bytes.Buffer
			type result struct {
				rep *runtime.Report
				err error
			}
			done := make(chan result, 1)
			go func() {
				rep, err := RunWorker(WorkerConfig{NodeID: "w", Cores: 1, Prog: workloads.MulSum(), MaxAge: 2, Output: &out}, wc)
				done <- result{rep, err}
			}()
			s := scriptedMaster{t, mc}
			s.expect(MRegister)
			tc.script(s)
			select {
			case r := <-done:
				if r.err != nil || (r.rep != nil) != tc.wantReport {
					t.Fatalf("RunWorker = (%v, %v), want report %v and no error", r.rep, r.err, tc.wantReport)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("worker did not return")
			}
			if got := strings.Count(out.String(), "10 11 12 13 14 \n"); got != tc.ageZero {
				t.Errorf("age 0 printed %d times, want %d:\n%s", got, tc.ageZero, out.String())
			}
		})
	}
}

// TestMasterFilesPeersByFirstMessage: nodes classify themselves. RunMaster is
// handed three connections whose first messages arrive as MJoin, MRegister,
// MRegister; the two workers share the partition as workers 0 and 1, and the
// standby waits and is released.
func TestMasterFilesPeersByFirstMessage(t *testing.T) {
	view := NewClusterView("mulsum")
	r := cluster{master: MasterConfig{Failover: true, View: view}, workers: mulSumNodes(1, 4, "spare", "w0", "w1")}.run(t)
	if r.err != nil || r.errs[0] != nil || r.errs[1] != nil || r.errs[2] != nil {
		t.Fatalf("master %v, workers %v", r.err, r.errs)
	}
	res, reps := r.res, r.reports
	if reps[0] != nil || reps[1] == nil || reps[2] == nil {
		t.Errorf("reports (spare, w0, w1) = %v, want only the workers'", reps)
	}
	if len(res.Reports) != 2 || res.Reports["w0"] == nil || res.Reports["w1"] == nil {
		t.Errorf("master reports %v, want w0 and w1", res.Reports)
	}
	for k, w := range res.Assignment {
		if w < 0 || w > 1 {
			t.Errorf("kernel %s assigned to worker %d of 2", k, w)
		}
	}
	st := view.Status().(ClusterStatus)
	if st.Standbys != 1 || len(st.Workers) != 2 || st.Workers[0].ID != "w0" || st.Workers[1].ID != "w1" {
		t.Errorf("cluster view: %d standbys, workers %+v; want 1 standby and w0, w1", st.Standbys, st.Workers)
	}

	// Standbys alone are not a cluster, and are told so.
	r = cluster{workers: mulSumNodes(1, 0, "spare")}.run(t)
	if r.err == nil || !strings.Contains(r.err.Error(), "at least one worker") {
		t.Errorf("master with only a standby: %v, want a missing-worker error", r.err)
	}
	if r.errs[0] == nil || !strings.Contains(r.errs[0].Error(), "at least one worker") {
		t.Errorf("standby of a failed registration: %v, want the master's reason", r.errs[0])
	}
}
