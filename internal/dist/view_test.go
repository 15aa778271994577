package dist

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// TestClusterViewLifecycle runs a real distributed execution with a view
// attached and checks the view went through the whole lifecycle: workers
// registered, assignment recorded, heartbeat metrics merged, final reports
// folded in, phase "done".
func TestClusterViewLifecycle(t *testing.T) {
	const n = 2
	view := NewClusterView("mulsum")
	masterConns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i),
				Cores:  2,
				Prog:   workloads.MulSum(),
				MaxAge: 6,
			}, conn); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, wc)
	}
	if _, err := RunMaster(MasterConfig{Prog: workloads.MulSum(), View: view}, masterConns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	st, ok := view.Status().(ClusterStatus)
	if !ok {
		t.Fatalf("Status() returned %T", view.Status())
	}
	if st.Phase != "done" {
		t.Errorf("phase = %q, want done", st.Phase)
	}
	if st.Workload != "mulsum" || st.Method != "kl" {
		t.Errorf("workload/method = %q/%q", st.Workload, st.Method)
	}
	// init and print run whole; mul2 and plus5 are indexed, so each runs as
	// one share per worker.
	if len(st.Assignment) != 2 || st.Assignment["init"] < 0 || st.Assignment["print"] < 0 {
		t.Errorf("assignment %v", st.Assignment)
	}
	for _, k := range []string{"mul2", "plus5"} {
		if got, want := st.Shares[k], "0/2@w0 1/2@w1"; got != want {
			t.Errorf("shares of %s = %q, want %q", k, got, want)
		}
	}
	if len(st.Shares) != 2 {
		t.Errorf("shares %v", st.Shares)
	}
	if len(st.Workers) != n {
		t.Fatalf("workers = %d, want %d", len(st.Workers), n)
	}
	var instances int64
	for i, w := range st.Workers {
		if w.ID != fmt.Sprintf("w%d", i) || w.Cores != 2 {
			t.Errorf("worker %d registration: %+v", i, w)
		}
		if !w.Done || !w.Idle {
			t.Errorf("worker %d not done/idle: %+v", i, w)
		}
		if w.LastSeen.IsZero() {
			t.Errorf("worker %d never heartbeat", i)
		}
		if w.Metrics == nil {
			t.Errorf("worker %d heartbeat carried no metric snapshot", i)
		}
		for _, k := range w.Kernels {
			instances += k.Instances
		}
	}
	ref, _ := runtime.Run(workloads.MulSum(), runtime.Options{Workers: 1, MaxAge: 6})
	if want := ref.TotalInstances(); instances != want {
		t.Errorf("view kernels total %d instances, want %d", instances, want)
	}
	if st.Cluster == nil {
		t.Fatal("no merged cluster snapshot")
	}
	if got := st.Cluster.Counters[obs.MDispatchesTotal]; got != ref.TotalInstances() {
		t.Errorf("merged cluster dispatches = %d, want %d", got, ref.TotalInstances())
	}

	// The view must serve as a JSON payload for /statusz.
	if _, err := json.Marshal(view.Status()); err != nil {
		t.Errorf("view status not JSON-marshalable: %v", err)
	}
}

// TestClusterViewNilSafe checks every mutator is a no-op on a nil view, which
// is how RunMaster calls them when no view is configured.
func TestClusterViewNilSafe(t *testing.T) {
	var v *ClusterView
	v.setPhase("x")
	v.registerWorker(0, "w", 1, 1)
	v.setAssignment(map[string]int{"k": 0}, map[string][]string{"s": {"w"}}, "kl")
	v.updateWorker(0, true, 1, 2, nil)
	v.workerDone(0, nil)
	if v.Status() != nil {
		t.Error("nil view Status() should be nil")
	}
}

// TestKernelStatsFromSnapshot reconstructs Table II rows from labeled
// counters.
func TestKernelStatsFromSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.Label(obs.MKernelInstances, "kernel", "mul2")).Add(7)
	reg.Counter(obs.Label(obs.MKernelDispatchNs, "kernel", "mul2")).Add(7000)
	reg.Counter(obs.Label(obs.MKernelTimeNs, "kernel", "mul2")).Add(700)
	reg.Counter(obs.Label(obs.MKernelStoreOps, "kernel", "mul2")).Add(14)
	reg.Counter(obs.Label(obs.MKernelInstances, "kernel", "init")).Add(1)
	reg.Counter("unrelated_total").Add(99)

	rows := KernelStatsFromSnapshot(reg.Snapshot())
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Name != "init" || rows[1].Name != "mul2" {
		t.Errorf("rows not sorted: %+v", rows)
	}
	m := rows[1]
	if m.Instances != 7 || m.DispatchTotal != 7000*time.Nanosecond || m.KernelTotal != 700*time.Nanosecond || m.StoreOps != 14 {
		t.Errorf("mul2 row %+v", m)
	}
	if KernelStatsFromSnapshot(nil) != nil {
		t.Error("nil snapshot should give nil rows")
	}
}

// TestWorkerReportCarriesTransport checks the final worker reports include
// the connection's message counters (bytes stay zero in-process).
func TestWorkerReportCarriesTransport(t *testing.T) {
	res := runDistributed(t, nil, 2, func(i int) WorkerConfig {
		return WorkerConfig{NodeID: fmt.Sprintf("w%d", i), Cores: 1, Prog: workloads.MulSum(), MaxAge: 4}
	})
	for id, rep := range res.Reports {
		if rep.SentMsgs == 0 || rep.RecvMsgs == 0 {
			t.Errorf("worker %s report transport: %d sent / %d recv msgs", id, rep.SentMsgs, rep.RecvMsgs)
		}
	}
	merged := runtime.MergeReports(res.Reports["w0"], res.Reports["w1"])
	if merged.SentMsgs != res.Reports["w0"].SentMsgs+res.Reports["w1"].SentMsgs {
		t.Errorf("merged transport %d", merged.SentMsgs)
	}
}
