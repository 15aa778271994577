package dist

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/mjpeg"
	"repro/internal/runtime"
	"repro/internal/video"
	"repro/internal/workloads"
)

func init() {
	field.RegisterPayload(kmeans.Point{})
}

// runDistributed executes a program across n workers, each on a loopback
// pipe to the master, and returns the master result; the master runs
// wcfg(0)'s program. wrap, when set, sees both ends of each pipe and returns
// the connection the master uses.
func runDistributed(t *testing.T, n int, wcfg func(i int) WorkerConfig, wrap func(mc, wc Conn) Conn) *MasterResult {
	t.Helper()
	masterConns := make([]Conn, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := range masterConns {
		mc, wc := pipe(t)
		if masterConns[i] = mc; wrap != nil {
			masterConns[i] = wrap(mc, wc)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(wcfg(i), wc); err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}()
	}
	res, err := RunMaster(MasterConfig{Prog: wcfg(0).Prog}, masterConns)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runListener is runDistributed in the deployment's connection shape: the n
// workers dial one listener at once and the master takes the connections in
// accept order, so worker i need not sit on master connection i.
func runListener(t *testing.T, n int, wcfg func(i int) WorkerConfig) *MasterResult {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := DialTCP(l.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := RunWorker(wcfg(i), conn); err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}()
	}
	conns := make([]Conn, n)
	for i := range conns {
		if conns[i], err = l.Accept(); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	res, err := RunMaster(MasterConfig{Prog: wcfg(0).Prog}, conns)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedMulSum(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", workers), func(t *testing.T) {
			res := runDistributed(t, workers, func(i int) WorkerConfig {
				return WorkerConfig{
					NodeID: fmt.Sprintf("w%d", i),
					Cores:  2,
					Prog:   workloads.MulSum(),
					MaxAge: 8,
				}
			}, nil)
			// Reference: single-node execution.
			ref, err := runtime.NewNode(workloads.MulSum(), runtime.Options{Workers: 2, MaxAge: 8})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			for a := 0; a <= 8; a++ {
				for _, f := range []string{"m_data", "p_data"} {
					want, _ := ref.Snapshot(f, a)
					got, err := res.Shadow.Snapshot(f, a)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("nodes=%d: %s(%d) = %v, want %v", workers, f, a, got, want)
					}
				}
			}
			// Every kernel runs whole on one node or, indexed on more than
			// one node, as one share per node; total instances match the
			// single-node run.
			if len(res.Assignment)+len(res.Shares) != 4 || workers > 1 && len(res.Shares["mul2"]) != workers {
				t.Errorf("assignment %v, shares %v", res.Assignment, res.Shares)
			}
			var total int64
			for _, rep := range res.Reports {
				total += rep.TotalInstances()
			}
			refRep, _ := runtime.Run(workloads.MulSum(), runtime.Options{Workers: 1, MaxAge: 8})
			if total != refRep.TotalInstances() {
				t.Errorf("distributed ran %d instances, single node %d", total, refRep.TotalInstances())
			}
		})
	}
}

// TestDistributedOverTCP: mul/sum on two workers that share one listener
// ends at the closed form m(a+1) = m(a)*2+5 from {10..14}.
func TestDistributedOverTCP(t *testing.T) {
	res := runListener(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{NodeID: fmt.Sprintf("tcp%d", i), Cores: 2, Prog: workloads.MulSum(), MaxAge: 5}
	})
	s, err := res.Shadow.Snapshot("m_data", 5)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int32{10, 11, 12, 13, 14}
	for a := 0; a < 5; a++ {
		for i, v := range vals {
			vals[i] = v*2 + 5
		}
	}
	if !s.Equal(field.ArrayFromInt32(vals)) {
		t.Errorf("m_data(5) = %v, want %v", s, vals)
	}
}

func TestDistributedKMeansMatchesSequential(t *testing.T) {
	cfg := workloads.KMeansConfig{N: 120, Dim: 2, K: 6, Iter: 4, Seed: 9}
	res := runDistributed(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			NodeID:       fmt.Sprintf("w%d", i),
			Cores:        2,
			Prog:         workloads.KMeans(cfg),
			KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge,
		}
	}, nil)
	want := kmeans.Sequential(kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed), cfg.K, cfg.Iter)
	got, err := res.Shadow.Snapshot("centroids", cfg.Iter)
	if err != nil {
		t.Fatal(err)
	}
	if got.Extent(0) != cfg.K {
		t.Fatalf("%d centroids in the final state", got.Extent(0))
	}
	pts := workloads.CentroidPoints(got)
	for c := 0; c < cfg.K; c++ {
		if kmeans.SqDist(pts[c], want.Centroids[c]) != 0 {
			t.Fatalf("centroid %d: distributed %v, sequential %v", c, pts[c], want.Centroids[c])
		}
	}
}

func TestDistributedReportsCoverKernels(t *testing.T) {
	res := runDistributed(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{NodeID: fmt.Sprintf("w%d", i), Cores: 1, Prog: workloads.MulSum(), MaxAge: 3}
	}, nil)
	counts := map[string]int64{}
	for _, rep := range res.Reports {
		for _, k := range rep.Kernels {
			counts[k.Name] += k.Instances
		}
	}
	if counts["mul2"] != 20 || counts["plus5"] != 20 || counts["print"] != 4 || counts["init"] != 1 {
		t.Errorf("instance counts %v", counts)
	}
	if res.Cost.Imbalance < 1 {
		t.Errorf("cost %+v", res.Cost)
	}
}

// gobWatch records a master connection's gob byte count when MStart has gone
// out and when the stop request is about to.
type gobWatch struct {
	Conn
	tc              *tcpConn
	atStart, atStop atomic.Int64
}

func (w *gobWatch) Send(m *Msg) error {
	if m.Kind == MStopReq {
		w.atStop.Store(w.tc.gobBytes.Load())
	}
	err := w.Conn.Send(m)
	if m.Kind == MStart {
		w.atStart.Store(w.tc.gobBytes.Load())
	}
	return err
}

// TestTCPNoGobWhileRunning: between MStart and the stop request a cluster
// without a ClusterView exchanges only hot messages (store frames,
// completions, pings and statuses), so not one gob byte crosses a
// connection while the program runs.
func TestTCPNoGobWhileRunning(t *testing.T) {
	var watches []*gobWatch
	runDistributed(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{NodeID: fmt.Sprintf("w%d", i), Cores: 2, Prog: workloads.MulSum(), MaxAge: 5}
	}, func(mc, _ Conn) Conn {
		w := &gobWatch{Conn: mc, tc: mc.(*tcpConn)}
		watches = append(watches, w)
		return w
	})
	for i, w := range watches {
		start, stop := w.atStart.Load(), w.atStop.Load()
		if start == 0 || stop == 0 {
			t.Fatalf("connection %d: gob bytes %d at MStart, %d at the stop request; the handshake must use gob and both must be seen", i, start, stop)
		}
		if stop != start {
			t.Errorf("connection %d: %d gob bytes crossed between MStart and the stop request, want 0", i, stop-start)
		}
		if st := w.Stats(); st.SentMsgs+st.RecvMsgs < 20 {
			t.Errorf("connection %d carried %+v: too little traffic to show anything", i, st)
		}
	}
}

func TestValueGobRoundTrip(t *testing.T) {
	vals := []field.Value{
		field.Int32Val(-5),
		field.Float64Val(2.5),
		field.StringVal("hi"),
		field.BoolVal(true),
		field.AnyVal(kmeans.Point{1, 2}),
		field.ArrayVal(field.ArrayFromInt32([]int32{1, 2, 3})),
	}
	for _, v := range vals {
		data, err := field.AppendWireValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		back, n, err := field.DecodeWireValue(data)
		if err != nil || n != len(data) {
			t.Fatalf("decoded %d of %d bytes: %v", n, len(data), err)
		}
		if v.IsArray() {
			if !back.IsArray() || !back.Array().Equal(v.Array()) {
				t.Errorf("array round trip: %v -> %v", v, back)
			}
			continue
		}
		if v.Kind() == field.Any {
			p := back.Obj().(kmeans.Point)
			if kmeans.SqDist(p, v.Obj().(kmeans.Point)) != 0 {
				t.Errorf("payload round trip: %v", back.Obj())
			}
			continue
		}
		if !back.Equal(v) {
			t.Errorf("round trip %v -> %v", v, back)
		}
	}
}

// TestPipeSemantics: a message crosses a loopback pipe intact; once one end
// closes, a Recv on the other fails, and so does a Send on the closed end.
func TestPipeSemantics(t *testing.T) {
	a, b := pipe(t)
	sent := &Msg{Kind: MDone, Kernel: "mul2", Age: 3, Share: 1}
	if err := a.Send(sent); err != nil {
		t.Fatal(err)
	}
	if m, err := b.Recv(); err != nil || !reflect.DeepEqual(m, sent) {
		t.Fatalf("sent %+v, received %+v (%v)", sent, m, err)
	}
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Error("Recv after the peer closed should fail")
	}
	if err := a.Send(sent); err == nil {
		t.Error("Send on a closed connection should fail")
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := RunMaster(MasterConfig{Prog: workloads.MulSum()}, nil); err == nil {
		t.Error("no workers should error")
	}
}

func TestWorkerErrorsPropagate(t *testing.T) {
	mc, wc := pipe(t)
	done := make(chan error, 1)
	go func() {
		// Worker with neither program nor factory fails at assignment.
		_, err := RunWorker(WorkerConfig{NodeID: "w", Cores: 1}, wc)
		done <- err
	}()
	m, err := mc.Recv()
	if err != nil || m.Kind != MRegister {
		t.Fatal("registration")
	}
	if err := mc.Send(&Msg{Kind: MAssign, Kernels: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Error("worker without program should fail")
	}
}

// TestWeightedRepartition exercises the §IV feedback loop: a first run's
// merged instrumentation weights the final graph of a second run, whose
// assignment then reflects measured load rather than unit weights.
func TestWeightedRepartition(t *testing.T) {
	cfg := workloads.KMeansConfig{N: 200, Dim: 2, K: 8, Iter: 4, Seed: 5}
	wcfg := func(i int) WorkerConfig {
		return WorkerConfig{
			NodeID:       fmt.Sprintf("w%d", i),
			Cores:        2,
			Prog:         workloads.KMeans(cfg),
			KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge,
		}
	}
	run := func(weights *runtime.Report) *MasterResult {
		const n = 2
		masterConns := make([]Conn, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			var wc Conn
			masterConns[i], wc = pipe(t)
			wg.Add(1)
			go func(i int, conn Conn) {
				defer wg.Done()
				if _, err := RunWorker(wcfg(i), conn); err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}(i, wc)
		}
		res, err := RunMaster(MasterConfig{Prog: workloads.KMeans(cfg), Weights: weights}, masterConns)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(nil)
	var reports []*runtime.Report
	for _, r := range first.Reports {
		reports = append(reports, r)
	}
	merged := runtime.MergeReports(reports...)
	if merged.Kernel("assign").Instances != int64(cfg.N*cfg.Iter) {
		t.Fatalf("merged assign instances = %d", merged.Kernel("assign").Instances)
	}
	second := run(merged)
	// The weighted run still completes and produces identical results.
	a, _ := first.Shadow.Snapshot("centroids", cfg.Iter)
	b, _ := second.Shadow.Snapshot("centroids", cfg.Iter)
	if !a.Equal(b) {
		t.Error("weighted repartition changed the computation's result")
	}
	// assign dominates measured load; it must not share a node with every
	// other kernel unless the partitioner found that optimal — at minimum
	// the assignment is complete and the run reported per-node stats.
	if len(second.Assignment)+len(second.Shares) != 4 || len(second.Reports) != 2 {
		t.Errorf("assignment %v shares %v reports %d", second.Assignment, second.Shares, len(second.Reports))
	}
}

// TestDistributedKernelFailure injects a failing kernel body on one node and
// verifies the whole cluster shuts down with the error instead of hanging.
func TestDistributedKernelFailure(t *testing.T) {
	mkProg := func() *core.Program {
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
				return errors.New("injected failure")
			})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const n = 2
	masterConns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var wc Conn
		masterConns[i], wc = pipe(t)
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			_, _ = RunWorker(WorkerConfig{NodeID: fmt.Sprintf("w%d", i), Cores: 1, Prog: mkProg()}, conn)
		}(i, wc)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(MasterConfig{Prog: mkProg()}, masterConns)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("master error = %v, want injected failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cluster hung on kernel failure")
	}
	wg.Wait()
}

// TestDistributedMJPEG runs the full Motion JPEG pipeline across two nodes —
// macroblock payloads and encoded frames cross the wire as gob Any values —
// and the bitstream must equal the single-threaded baseline encoder's.
func TestDistributedMJPEG(t *testing.T) {
	checkMJPEGBitIdentical(t, func(wcfg func(int) WorkerConfig) *MasterResult {
		return runDistributed(t, 2, wcfg, nil)
	})
}

// TestDistributedMJPEGOverTCPBitIdentical: the same pipeline with both
// workers dialling one listener, as deployed nodes do.
func TestDistributedMJPEGOverTCPBitIdentical(t *testing.T) {
	checkMJPEGBitIdentical(t, func(wcfg func(int) WorkerConfig) *MasterResult {
		return runListener(t, 2, wcfg)
	})
}

// checkMJPEGBitIdentical runs a 3-frame 32x32 MJPEG program on the two-worker
// cluster run builds and compares the logged bitstream with the baseline
// encoder's.
func checkMJPEGBitIdentical(t *testing.T, run func(wcfg func(int) WorkerConfig) *MasterResult) {
	t.Helper()
	workloads.RegisterPayloads()
	const frames = 3
	mkProg := func() *core.Program {
		return workloads.MJPEG(workloads.MJPEGConfig{
			Source:  video.NewSynthetic(32, 32, frames, 4),
			Quality: 70,
		})
	}
	res := run(func(i int) WorkerConfig {
		return WorkerConfig{NodeID: fmt.Sprintf("w%d", i), Cores: 2, Prog: mkProg()}
	})
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
	var baseline bytes.Buffer
	enc := &mjpeg.Encoder{Quality: 70}
	if _, err := enc.EncodeStream(video.NewSynthetic(32, 32, frames, 4), &baseline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, baseline.Bytes()) {
		t.Errorf("distributed bitstream (%d bytes) differs from baseline (%d bytes)",
			len(stream), baseline.Len())
	}
}
