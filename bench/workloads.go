package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/video"
	"repro/internal/workloads"
)

// The five workloads. Each is a closure over its seeded input that performs
// one repetition: build a fresh program and node (timed as set-up), run it,
// check the output against the oracle, release storage. All timing is taken
// from outside, around calls into the modules' public functions.

// Run shape, set explicitly and never derived from the host.
const (
	benchProcs   = 2 // GOMAXPROCS
	benchWorkers = 2 // Options.Workers (2 x Cores 1 on mjpeg_tcp2)
	benchShards  = 1 // Options.AnalyzerShards
)

// livePeriod is the open loop's injection period: 30 frames per second.
const livePeriod = time.Second / 30

// shape is the number of frames one repetition of each MJPEG workload encodes.
type shape struct{ batchFrames, liveFrames, tcpFrames int }

var (
	fullShape  = shape{batchFrames: 20, liveFrames: 15, tcpFrames: 20}
	smokeShape = shape{batchFrames: 3, liveFrames: 4, tcpFrames: 3} // bench_test.go
)

// obsMode selects the program's own instrumentation for one repetition.
type obsMode int

const (
	obsOff     obsMode = iota // end-to-end numbers: nothing attached
	obsMetrics                // Options.Metrics set: Report.Stages available
	obsTraced                 // Metrics and Tracer set
)

func (m obsMode) registry() *obs.Registry {
	if m >= obsMetrics {
		return obs.NewRegistry()
	}
	return nil
}

func (m obsMode) tracer() *obs.Tracer {
	if m == obsTraced {
		return obs.NewTracer(obs.DefaultTraceCapacity)
	}
	return nil
}

func baseOptions(m obsMode) runtime.Options {
	return runtime.Options{Workers: benchWorkers, AnalyzerShards: benchShards, Metrics: m.registry(), Tracer: m.tracer()}
}

// rep is what one repetition measured.
type rep struct {
	setup  time.Duration   // program build (+compile, +handshake) and NewNode
	wall   time.Duration   // the run: first input available to last output and quiescence
	cpu    time.Duration   // process CPU over the run
	lat    []time.Duration // per age: input handed to the runtime -> output
	report *runtime.Report // merged over nodes on mjpeg_tcp2
	err    error           // run error or output differing from the oracle

	// Open loop: how late each inject was, and first output to last output.
	late    []time.Duration
	outSpan time.Duration

	// mjpeg_tcp2: master-side socket traffic and shutdown time.
	wireBytes, msgs, frames int64
	quiesce                 time.Duration
}

type workload struct {
	name      string
	ages      int           // ages per repetition
	period    time.Duration // open loop: the injection period; 0 for closed loops
	inputHash uint64
	refAges   refFunc // the sequential reference on the same input
	run       func(mode obsMode, sp *spans, parent int) rep
}

func newWorkload(name string, seed uint64, sh shape) (*workload, error) {
	switch name {
	case "mjpeg_batch":
		return newMJPEGBatch(seed, sh.batchFrames)
	case "mjpeg_live":
		return newMJPEGLive(seed, sh.liveFrames)
	case "kmeans_native":
		cfg := workloads.KMeansConfig{N: kmN, Dim: kmDim, K: kmK, Iter: kmIter, Seed: seed}
		in := newKMeansInput(kmeans.Generate(kmN, kmDim, kmK, seed))
		return newKMeans(name, in, func() (*core.Program, error) { return workloads.KMeans(cfg), nil }), nil
	case "kmeans_vm":
		src := kmeansSource(seed)
		in := newKMeansInput(lcgPoints(seed))
		return newKMeans(name, in, func() (*core.Program, error) { return lang.Compile(name, src) }), nil
	case "mjpeg_tcp2":
		return newMJPEGTCP2(seed, sh.tcpFrames)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runTimer brackets the run itself with wall and process-CPU clocks.
type runTimer struct {
	t0 time.Time
	c0 time.Duration
}

func startRun() runTimer { return runTimer{time.Now(), processCPU()} }

func (t runTimer) stop() (wall, cpu time.Duration) { return time.Since(t.t0), processCPU() - t.c0 }

// frameSource hands pre-generated frames to read_splityuv and stamps when
// each was handed over (Source.Next returning is the age's input time).
type frameSource struct {
	frames   []*video.Frame
	at       []time.Time
	first    time.Time     // entry of the first Next: the first kernel dispatch
	firstCPU time.Duration // process CPU at that moment
}

func (s *frameSource) Next() (*video.Frame, error) {
	if s.first.IsZero() {
		s.first, s.firstCPU = time.Now(), processCPU()
	}
	if len(s.at) >= len(s.frames) {
		return nil, io.EOF
	}
	f := s.frames[len(s.at)]
	s.at = append(s.at, time.Now())
	return f, nil
}

// recorder is MJPEGConfig.Out: vlc_write calls Write once per frame in age
// order, which is the age's output time. The bytes are kept by reference
// (they are the write-once bitstream payload) and compared after the run.
type recorder struct {
	mu     sync.Mutex
	at     []time.Time
	data   [][]byte
	want   int
	done   chan struct{} // closed when want frames have been written
	sp     *spans
	parent int
}

func newRecorder(want int, sp *spans, parent int) *recorder {
	return &recorder{want: want, done: make(chan struct{}), sp: sp, parent: parent}
}

func (r *recorder) Write(p []byte) (int, error) {
	now := time.Now()
	r.mu.Lock()
	r.at = append(r.at, now)
	r.data = append(r.data, p)
	n := len(r.at)
	r.mu.Unlock()
	r.sp.instant("output", r.parent, n-1)
	if n == r.want {
		close(r.done)
	}
	return len(p), nil
}

// written is how many frames have come out so far.
func (r *recorder) written() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.at)
}

// latencies pairs input and output stamps age by age.
func latencies(in, out []time.Time) []time.Duration {
	n := min(len(in), len(out))
	lat := make([]time.Duration, n)
	for a := range lat {
		lat[a] = out[a].Sub(in[a])
	}
	return lat
}

// ---- mjpeg_batch -----------------------------------------------------------

func newMJPEGBatch(seed uint64, batchFrames int) (*workload, error) {
	in, err := newMJPEGInput(batchFrames, seed)
	if err != nil {
		return nil, err
	}
	w := &workload{name: "mjpeg_batch", ages: batchFrames, inputHash: in.hash(), refAges: in.refAges}
	w.run = func(mode obsMode, sp *spans, parent int) (r rep) {
		t0 := time.Now()
		src := &frameSource{frames: in.frames}
		out := newRecorder(batchFrames, sp, parent)
		prog := workloads.MJPEG(workloads.MJPEGConfig{Source: src, Out: out})
		opts := baseOptions(mode)
		opts.GC = true
		n, err := runtime.NewNode(prog, opts)
		r.setup = time.Since(t0)
		sp.add("setup", parent, -1, t0, t0.Add(r.setup))
		if err != nil {
			r.err = err
			return r
		}
		tm := startRun()
		r.report, r.err = n.Run()
		r.wall, r.cpu = tm.stop()
		n.Release()
		r.lat = latencies(src.at, out.at)
		if r.err == nil {
			r.err = in.check(out.data)
		}
		return r
	}
	return w, nil
}

// ---- mjpeg_live ------------------------------------------------------------

// liveTimeout bounds the wait for the last frame of an open-loop repetition;
// a frame takes ~15 ms, so hitting it means the program stalled.
const liveTimeout = 20 * time.Second

type noFrames struct{}

func (noFrames) Next() (*video.Frame, error) { return nil, io.EOF }

func newMJPEGLive(seed uint64, liveFrames int) (*workload, error) {
	in, err := newMJPEGInput(liveFrames, seed)
	if err != nil {
		return nil, err
	}
	pl := make([]planes, len(in.frames))
	for i, f := range in.frames {
		pl[i] = extractPlanes(f)
	}
	w := &workload{name: "mjpeg_live", ages: liveFrames, period: livePeriod, inputHash: in.hash(), refAges: in.refAges}
	w.run = func(mode obsMode, sp *spans, parent int) (r rep) {
		t0 := time.Now()
		out := newRecorder(liveFrames, sp, parent)
		// read_splityuv is remote: the generator below plays its part, so the
		// source is never asked for a frame.
		prog := workloads.MJPEG(workloads.MJPEGConfig{Source: noFrames{}, Out: out})
		opts := baseOptions(mode)
		opts.RemoteKernels = map[string]bool{"read_splityuv": true}
		opts.NoAutoQuiesce = true
		n, err := runtime.NewNode(prog, opts)
		r.setup = time.Since(t0)
		sp.add("setup", parent, -1, t0, t0.Add(r.setup))
		if err != nil {
			r.err = err
			return r
		}
		var report *runtime.Report
		var runErr error
		ran := make(chan struct{})
		go func() {
			report, runErr = n.Run()
			close(ran)
		}()

		// Open loop: frame k is due at start + k*period whether or not the
		// node has finished frame k-1; latency counts from the due time.
		tm := startRun()
		start := tm.t0.Add(time.Millisecond)
		due := make([]time.Time, liveFrames)
		var injectErr error
		for k := range due {
			due[k] = start.Add(time.Duration(k) * livePeriod)
			time.Sleep(time.Until(due[k]))
			r.late = append(r.late, time.Since(due[k]))
			sp.instant("inject", parent, k)
			if injectErr = injectFrame(n, k, pl[k]); injectErr != nil {
				break
			}
		}
		if injectErr == nil {
			select {
			case <-out.done:
			case <-time.After(liveTimeout):
				injectErr = fmt.Errorf("only %d of %d frames written %v after the last inject", out.written(), liveFrames, liveTimeout)
			}
		}
		_, r.cpu = tm.stop()
		n.Stop()
		<-ran
		n.Release()
		r.report, r.err = report, runErr
		if r.err == nil {
			r.err = injectErr
		}
		r.lat = latencies(due, out.at)
		if len(out.at) > 0 {
			r.wall = out.at[len(out.at)-1].Sub(start)
			r.outSpan = out.at[len(out.at)-1].Sub(out.at[0])
		}
		if r.err == nil {
			r.err = in.check(out.data)
		}
		return r
	}
	return w, nil
}

// injectFrame stores one frame's planes as read_splityuv would have and
// announces the kernel-age done, which completes the four generations.
func injectFrame(n *runtime.Node, age int, p planes) error {
	for _, st := range []struct {
		field string
		arr   *field.Array
	}{{"yInput", p.y}, {"uInput", p.u}, {"vInput", p.v}, {"dims", p.dims}} {
		if err := n.InjectStore(runtime.StoreNotice{Field: st.field, Age: age, Whole: true, Value: field.ArrayVal(st.arr)}); err != nil {
			return err
		}
	}
	return n.InjectRemoteDone("read_splityuv", age)
}

// ---- kmeans_native, kmeans_vm ---------------------------------------------

func newKMeans(name string, in *kmeansInput, build func() (*core.Program, error)) *workload {
	w := &workload{name: name, ages: kmIter, inputHash: in.hash(), refAges: in.refAges}
	w.run = func(mode obsMode, sp *spans, parent int) (r rep) {
		t0 := time.Now()
		prog, err := build()
		if err != nil {
			r.err = err
			return r
		}
		opts := workloads.KMeansOptions(workloads.KMeansConfig{N: kmN, Dim: kmDim, K: kmK, Iter: kmIter}, benchWorkers)
		opts.AnalyzerShards = benchShards
		opts.Metrics, opts.Tracer = mode.registry(), mode.tracer()
		// An iteration's output is its refine kernel-age completing; the next
		// iteration's input is that same moment.
		doneAt := make([]time.Time, kmIter)
		opts.OnKernelDone = func(kernel string, age int) {
			if kernel == "refine" && age < kmIter {
				doneAt[age] = time.Now()
				sp.instant("output", parent, age)
			}
		}
		n, err := runtime.NewNode(prog, opts)
		r.setup = time.Since(t0)
		sp.add("setup", parent, -1, t0, t0.Add(r.setup))
		if err != nil {
			r.err = err
			return r
		}
		tm := startRun()
		r.report, r.err = n.Run()
		r.wall, r.cpu = tm.stop()
		cents, snapErr := workloads.KMeansCentroids(n, kmIter)
		n.Release()
		prev := tm.t0
		for _, at := range doneAt {
			if at.IsZero() {
				break
			}
			r.lat = append(r.lat, at.Sub(prev))
			prev = at
		}
		if r.err == nil {
			r.err = snapErr
		}
		if r.err == nil {
			r.err = in.check(cents)
		}
		return r
	}
	return w
}

// ---- mjpeg_tcp2 ------------------------------------------------------------

func newMJPEGTCP2(seed uint64, tcpFrames int) (*workload, error) {
	in, err := newMJPEGInput(tcpFrames, seed)
	if err != nil {
		return nil, err
	}
	workloads.RegisterPayloads() // the bitstream's []byte crosses the wire inside an Any field
	w := &workload{name: "mjpeg_tcp2", ages: tcpFrames, inputHash: in.hash(), refAges: in.refAges}
	w.run = func(mode obsMode, sp *spans, parent int) rep {
		src := &frameSource{frames: in.frames}
		out := newRecorder(tcpFrames, sp, parent)
		mkProg := func() *core.Program {
			return workloads.MJPEG(workloads.MJPEGConfig{Source: src, Out: out})
		}
		r := runCluster(mkProg, src, mode, sp, parent)
		r.lat = latencies(src.at, out.at)
		if len(out.at) > 0 && r.err == nil {
			r.quiesce = src.first.Add(r.wall).Sub(out.at[len(out.at)-1])
		}
		if r.err == nil {
			r.err = in.check(out.data)
		}
		return r
	}
	return w, nil
}

// runCluster runs one master and two 1-core workers over TCP loopback, all in
// this process. Every node builds its own program around the shared source
// and sink; only the nodes the partition gives read_splityuv and vlc_write
// touch them. Set-up is everything up to the first kernel dispatch: listen,
// dial, registration, partitioning, assignment, start.
func runCluster(mkProg func() *core.Program, src *frameSource, mode obsMode, sp *spans, parent int) (r rep) {
	const nodes = 2
	t0 := time.Now()
	l, err := dist.ListenTCP("127.0.0.1:0")
	if err != nil {
		r.err = err
		return r
	}
	defer l.Close()
	errc := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			conn, err := dist.DialTCP(l.Addr())
			if err != nil {
				errc <- err
				return
			}
			_, err = dist.RunWorker(dist.WorkerConfig{
				NodeID: fmt.Sprintf("w%d", i), Cores: 1, Prog: mkProg(),
				Metrics: mode.registry(), Tracer: mode.tracer(),
			}, conn)
			errc <- err
		}(i)
	}
	conns := make([]dist.Conn, 0, nodes)
	for len(conns) < nodes && r.err == nil {
		c, err := l.Accept()
		if err != nil {
			r.err = err
			break
		}
		conns = append(conns, c)
	}
	var res *dist.MasterResult
	reg := mode.registry()
	if r.err == nil {
		res, r.err = dist.RunMaster(dist.MasterConfig{Prog: mkProg(), Method: sched.KL, Metrics: reg, Tracer: mode.tracer()}, conns)
	}
	end, c1 := time.Now(), processCPU()
	for _, c := range conns {
		c.Close() // idempotent after a clean run; unblocks the workers after a failed one
	}
	for i := 0; i < nodes; i++ {
		if err := <-errc; err != nil && r.err == nil {
			r.err = err
		}
	}
	if src.first.IsZero() {
		src.first, src.firstCPU = end, c1 // never dispatched: all of it was set-up
	}
	r.setup = src.first.Sub(t0)
	r.wall = end.Sub(src.first)
	r.cpu = c1 - src.firstCPU
	sp.add("setup", parent, -1, t0, src.first)
	for _, c := range conns {
		if sr, ok := c.(dist.StatsReporter); ok {
			st := sr.Stats()
			r.wireBytes += st.SentBytes + st.RecvBytes
			r.msgs += st.SentMsgs + st.RecvMsgs
		}
	}
	if reg != nil {
		r.frames = reg.Counter(obs.MDistFramesTotal).Load()
	}
	if res != nil {
		reports := make([]*runtime.Report, 0, nodes)
		for _, rp := range res.Reports {
			reports = append(reports, rp)
		}
		r.report = runtime.MergeReports(reports...)
		res.Shadow.Release()
	}
	return r
}
