package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/mjpeg"
	"repro/internal/runtime"
	"repro/internal/video"
	"repro/internal/workloads"
)

func TestDistributedMulSum(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", workers), func(t *testing.T) {
			res := cluster{workers: mulSumNodes(2, 8, []string{"w0", "w1", "w2"}[:workers]...)}.mustRun(t)
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
	res := cluster{workers: mulSumNodes(2, 5, "w0", "w1"), listen: true}.mustRun(t)
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
	res := cluster{workers: nodes(2, func(int) WorkerConfig {
		return WorkerConfig{Cores: 2, Prog: workloads.KMeans(cfg), KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge}
	})}.mustRun(t)
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
	res := cluster{workers: mulSumNodes(1, 3, "w0", "w1")}.mustRun(t)
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

// kindWatch counts, per kind, the messages a master connection sends and
// receives from the moment MStart has gone out until the stop request is
// about to, and how many of them carry metrics.
type kindWatch struct {
	Conn
	mu               sync.Mutex
	running          bool
	started, stopped bool
	kinds            map[MsgKind]int
	metrics          int
}

func (w *kindWatch) note(m *Msg) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case m.Kind == MStopReq:
		w.running, w.stopped = false, true
	case w.running:
		w.kinds[m.Kind]++
		if m.Metrics != nil {
			w.metrics++
		}
	}
}

func (w *kindWatch) Send(m *Msg) error {
	w.note(m)
	err := w.Conn.Send(m)
	if m.Kind == MStart {
		w.mu.Lock()
		w.running, w.started = true, true
		w.mu.Unlock()
	}
	return err
}

func (w *kindWatch) SendFrame(m *Msg, segs net.Buffers) error {
	w.note(m)
	return w.Conn.SendFrame(m, segs)
}

func (w *kindWatch) Recv() (*Msg, error) {
	m, err := w.Conn.Recv()
	if err == nil {
		w.note(m)
	}
	return m, err
}

// TestOnlyPerAgeKindsWhileRunning: between MStart and the stop request a
// cluster without a ClusterView exchanges only the per-age kinds — store
// frames, completions, pings and statuses — and no status carries metrics:
// no handshake kind crosses a connection while the program runs.
func TestOnlyPerAgeKindsWhileRunning(t *testing.T) {
	var watches []*kindWatch
	cluster{workers: mulSumNodes(2, 5, "w0", "w1"), wrap: func(_ int, mc, wc Conn) (Conn, Conn) {
		w := &kindWatch{Conn: mc, kinds: map[MsgKind]int{}}
		watches = append(watches, w)
		return w, wc
	}}.mustRun(t)
	for i, w := range watches {
		if !w.started || !w.stopped {
			t.Fatalf("connection %d: MStart seen %v, the stop request seen %v; both must be", i, w.started, w.stopped)
		}
		total := 0
		for k, n := range w.kinds {
			total += n
			if k != MStoreFrame && k != MDone && k != MPing && k != MStatus {
				t.Errorf("connection %d: %d %v crossed while the program ran", i, n, k)
			}
		}
		if w.metrics != 0 {
			t.Errorf("connection %d: %d statuses carried metrics without a view", i, w.metrics)
		}
		if total < 20 {
			t.Errorf("connection %d carried %v while running: too little traffic to show anything", i, w.kinds)
		}
	}
}

// TestValueGobRoundTrip: a value of every kind crosses the wire intact, but
// one holding a Go object, which once crossed in a gob stream of its own, is
// refused by name, alone or in a store frame.
func TestValueGobRoundTrip(t *testing.T) {
	for _, v := range []field.Value{
		field.Int32Val(-5),
		field.Float64Val(2.5),
		field.StringVal("hi"),
		field.BoolVal(true),
		field.Int64Val(9).Convert(field.Any),
		field.ArrayVal(field.ArrayFromInt32([]int32{1, 2, 3})),
	} {
		data, err := field.AppendWireValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		back, n, err := field.DecodeWireValue(data)
		if err != nil || n != len(data) || !back.Equal(v) {
			t.Errorf("%v decoded as %v from %d of %d bytes: %v", v, back, n, len(data), err)
		}
	}
	point := field.AnyVal(kmeans.Point{1, 2})
	if _, err := field.AppendWireValue(nil, point); !errors.Is(err, field.ErrGoObject) {
		t.Errorf("a Go object encoded: %v", err)
	}
	cell := field.NewArray(field.Any, 1)
	cell.SetFlat(point, 0)
	f := runtime.GetStoreFrame()
	defer runtime.PutStoreFrame(f)
	f.Reset("p", 0)
	if err := f.Add(runtime.StoreNotice{Field: "p", Sel: []field.SlabDim{{}}, Value: field.ArrayVal(cell)}); !errors.Is(err, field.ErrGoObject) || f.Entries() != 0 {
		t.Errorf("a store frame took a Go object: %v, %d entries", err, f.Entries())
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
	wcfg := func(int) WorkerConfig {
		return WorkerConfig{Cores: 2, Prog: workloads.KMeans(cfg), KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge}
	}
	run := func(weights *runtime.Report) *MasterResult {
		return cluster{master: MasterConfig{Prog: workloads.KMeans(cfg), Weights: weights}, workers: nodes(2, wcfg)}.mustRun(t)
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
	r := cluster{workers: nodes(2, func(int) WorkerConfig {
		return WorkerConfig{Cores: 1, Prog: failoverBoomProg(t)}
	})}.run(t)
	if r.err == nil || !strings.Contains(r.err.Error(), "boom failure") {
		t.Fatalf("master error = %v, want the injected failure", r.err)
	}
}

// TestDistributedMJPEG runs the full Motion JPEG pipeline across two nodes —
// coefficient rows and encoded frames cross the wire as typed arrays —
// and the bitstream must equal the single-threaded baseline encoder's.
func TestDistributedMJPEG(t *testing.T) {
	checkMJPEGBitIdentical(t, false)
}

// TestDistributedMJPEGOverTCPBitIdentical: the same pipeline with both
// workers dialling one listener, as deployed nodes do.
func TestDistributedMJPEGOverTCPBitIdentical(t *testing.T) {
	checkMJPEGBitIdentical(t, true)
}

// checkMJPEGBitIdentical runs a 3-frame 32x32 MJPEG program on two workers,
// over a shared listener when listen is set, and compares the logged
// bitstream with the baseline encoder's.
func checkMJPEGBitIdentical(t *testing.T, listen bool) {
	t.Helper()
	const frames = 3
	mkProg := func() *core.Program {
		return workloads.MJPEG(workloads.MJPEGConfig{
			Source:  video.NewSynthetic(32, 32, frames, 4),
			Quality: 70,
		})
	}
	res := cluster{workers: nodes(2, func(int) WorkerConfig {
		return WorkerConfig{Cores: 2, Prog: mkProg()}
	}), listen: listen}.mustRun(t)
	stream, err := workloads.MJPEGStream(res.Shadow, frames)
	if err != nil {
		t.Fatal(err)
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

// BenchmarkTransportMJPEG measures a whole distributed MJPEG encode over TCP
// loopback with two execution nodes dialling one listener. ns/op is the
// end-to-end encode latency; wire-B/op is the socket traffic at the master.
func BenchmarkTransportMJPEG(b *testing.B) {
	var wire int64
	for i := 0; i < b.N; i++ {
		c := cluster{workers: nodes(2, func(int) WorkerConfig {
			return WorkerConfig{Cores: 2, Prog: workloads.MJPEG(workloads.MJPEGConfig{
				Source: video.NewSynthetic(128, 128, 4, 4), Quality: 70, FastDCT: true,
			})}
		}), listen: true}
		wireBytes := countWire(&c)
		c.mustRun(b)
		wire += wireBytes()
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-B/op")
}
