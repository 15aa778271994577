package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/graph"
	"repro/internal/kmeans"
	"repro/internal/lang"
	"repro/internal/mjpeg"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/video"
	"repro/internal/workloads"
)

// The per-layer ledger (-trace 1). Three sources, named per row in
// manifest.go: the traced repetitions of the workload being run, a few
// repetitions of the one workload a row belongs to (the dist.* rows always
// come from mjpeg_tcp2, the deadline rows from mjpeg_live), and micro-probes
// that call one layer's public functions in a loop. Everything is public
// API; nothing inside the program is touched.

// runTraced produces every per-layer metric. The workload's repetitions
// cycle off -> metrics -> traced, so the overhead rows compare neighbours in
// time, and the stage rows come from the metrics-only repetitions.
func runTraced(cfg runConfig, wl *workload, res *result, w io.Writer) error {
	sp := newSpans()
	vals := map[string]float64{}
	tally := func(sts ...*modeStats) error {
		var first error
		for _, st := range sts {
			res.Attempted += st.ages
			res.Failed += st.failed
			if first == nil {
				first = st.firstErr
			}
		}
		return first
	}

	minReps := max(cfg.minReps, 1)
	main := runLoop(wl, []obsMode{obsOff, obsMetrics, obsTraced}, loopConfig{warmup: cfg.warmup, budget: cfg.budget * 9 / 20, minReps: minReps}, sp)
	off, met, trc := main[0], main[1], main[2]
	if err := tally(main...); err != nil {
		fmt.Fprintf(w, "%s: %s\n", wl.name, describeErr(err))
	}
	fmt.Fprintf(w, "%s: %d off, %d metrics, %d traced repetitions\n", wl.name, off.reps, met.reps, trc.reps)

	ages := met.okAges()
	vals["runtime.instances_per_age"] = float64(met.instances) / ages
	vals["runtime.event_batches_per_age"] = float64(met.batches) / ages
	vals["runtime.steals_per_age"] = float64(met.steals) / ages
	vals["runtime.fetch_share"] = share(met.stages.FetchNs, met.workerNs)
	vals["runtime.exec_share"] = share(met.stages.ExecNs, met.workerNs)
	vals["runtime.store_share"] = share(met.stages.StoreNs, met.workerNs)
	vals["runtime.idle_share"] = share(met.stages.IdleNs, met.workerNs)
	vals["runtime.stage_coverage"] = share(met.stages.AttributedNs(), met.workerNs)
	vals["runtime.analyze_busy_share"] = share(met.stages.AnalyzeMaxShardNs, met.stages.WallNs)
	vals["runtime.queue_wait_ms_per_age"] = float64(met.stages.QueueWaitNs) / 1e6 / ages
	vals["runtime.ready_wait_ms_per_age"] = float64(met.stages.ReadyWaitNs) / 1e6 / ages
	vals["age_latency_p95_vs_seq"] = percentile(off.lat, 0.95)
	vals["heap_kb_per_age"] = median(off.heapKB)
	vals["ref.seq_ms_per_age"] = median(append(append(off.refMs, met.refMs...), trc.refMs...))
	vals["obs.metrics_wall_x"] = median(met.costX) / median(off.costX)
	vals["obs.traced_wall_x"] = median(trc.costX) / median(off.costX)
	vals["sim.pred_wall_x"] = median(met.simX)

	// Rows that belong to one workload are measured on it whichever workload
	// is being run, so that every run reports every row.
	home := func(name string, mode obsMode, reuse *modeStats) (*modeStats, error) {
		if wl.name == name {
			return reuse, nil
		}
		hw, err := newWorkload(name, cfg.seed, cfg.shape)
		if err != nil {
			return nil, err
		}
		st := runLoop(hw, []obsMode{mode}, loopConfig{warmup: min(cfg.warmup, 1), budget: cfg.budget / 10, minReps: max(cfg.minReps, 2)}, sp)[0]
		if err := tally(st); err != nil {
			fmt.Fprintf(w, "%s: %s\n", name, describeErr(err))
		}
		return st, nil
	}
	tcp, err := home("mjpeg_tcp2", obsMetrics, met)
	if err != nil {
		return err
	}
	vals["dist.wire_kb_per_age"] = float64(tcp.wireBytes) / 1024 / tcp.okAges()
	vals["dist.msgs_per_age"] = float64(tcp.msgs) / tcp.okAges()
	vals["dist.frames_per_age"] = float64(tcp.frames) / tcp.okAges()
	vals["dist.quiesce_ms"] = median(tcp.quiesceMs)
	live, err := home("mjpeg_live", obsOff, off)
	if err != nil {
		return err
	}
	missed := 0
	for _, ms := range live.latMs {
		if ms > livePeriod.Seconds()*1e3 {
			missed++
		}
	}
	vals["deadline.miss_share"] = float64(missed) / float64(max(len(live.latMs), 1))
	vals["gen.late_p95_ms"] = percentile(live.lateMs, 0.95)

	root := sp.begin("layer probes", -1, -1)
	for _, m := range perLayer {
		fn, ok := probes[m.Name]
		if !ok {
			continue
		}
		id := sp.begin(m.Name, root, -1)
		v, err := fn(cfg.probeBudget, cfg.seed)
		sp.end(id)
		if err != nil {
			return fmt.Errorf("probe %s: %w", m.Name, err)
		}
		vals[m.Name] = v
	}
	sp.end(root)
	vals["lang.vm_vs_native_x"] = vals["lang.vm_assign_body_ns"] / vals["kmeans.assign_ns"]

	fmt.Fprintf(w, "%-34s %14s %-7s %-9s %s\n", "per-layer metric", "value", "unit", "from", "should move")
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = finite(v, m.Unit)
		fmt.Fprintf(w, "%-34s %14.6g %-7s %-9s %s on %s\n", m.Name, v, m.Unit, m.From, m.Moves, m.On)
	}

	dir := cfg.traceDir
	if dir == "" {
		dir = filepath.Join("bench", "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s_seed%d.json", wl.name, cfg.seed))
	if err := sp.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d benchmark-side spans written to %s\n", len(sp.s), path)
	return nil
}

// ---- micro-probes ----------------------------------------------------------

// probeBatches is how many timed batches a probe's median is taken over.
const probeBatches = 11

// perOp sizes a batch of calls to budget/probeBatches, runs probeBatches of
// them and returns the median nanoseconds per call. op runs n calls and
// returns how long they took, so it can keep its own set-up out of the time.
func perOp(budget time.Duration, op func(n int) time.Duration) float64 {
	target := budget / probeBatches
	n := 1
	for n < 1<<28 {
		d := op(n)
		if d >= target {
			break
		}
		if d < target/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(target)/float64(d)*1.1) + 1
		}
	}
	batches := make([]float64, probeBatches)
	for i := range batches {
		batches[i] = float64(op(n).Nanoseconds()) / float64(n)
	}
	return median(batches)
}

// timed adapts a plain loop body to perOp.
func timed(body func()) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			body()
		}
		return time.Since(t0)
	}
}

// probeSink keeps probe results alive so the calls cannot be elided.
var probeSink int

// coeffArray is one CIF chroma component of DCT coefficients (396 blocks of
// 64 int32), the unit the field, wire and frame probes move.
func coeffArray() *field.Array {
	a := field.NewArray(field.Int32, 396, 64)
	c := a.Int32s()
	for i := range c {
		c[i] = int32(i%255 - 128)
	}
	return a
}

// completeCoeffField holds one complete generation of coeffArray.
func completeCoeffField() (*field.Field, error) {
	f := field.New("probe", field.Int32, 2, true)
	if _, err := f.StoreAll(0, coeffArray()); err != nil {
		return nil, err
	}
	f.MarkComplete(0)
	return f, nil
}

type probeFn func(budget time.Duration, seed uint64) (float64, error)

// probes maps every From:"probe" row of perLayer to its measurement.
// lang.vm_vs_native_x is the ratio of two of them and is derived in runTraced.
var probes = map[string]probeFn{
	"field.store_row_ns": func(b time.Duration, _ uint64) (float64, error) {
		const rows = 4096
		row := field.ArrayFromUint8(make([]uint8, 64))
		sel := []field.SlabDim{{Fixed: true}, {}}
		var err error
		ns := perOp(b, func(n int) time.Duration {
			f := field.New("probe", field.Uint8, 2, false)
			t0 := time.Now()
			for i := 0; i < n && err == nil; i++ {
				if i%rows == 0 && i > 0 {
					f.Release()
					f = field.New("probe", field.Uint8, 2, false)
				}
				sel[0].Index = i % rows
				_, err = f.StoreSlice(0, sel, row)
			}
			d := time.Since(t0)
			f.Release()
			return d
		})
		return ns, err
	},
	"field.fetch_view_ns": func(b time.Duration, _ uint64) (float64, error) {
		f, err := completeCoeffField()
		if err != nil {
			return 0, err
		}
		defer f.Release()
		var dst field.Array
		refused := false
		ns := perOp(b, timed(func() {
			tok, ok := f.FetchViewAll(0, &dst)
			refused = refused || !ok
			tok.Release()
		}))
		if refused {
			return 0, errors.New("FetchViewAll refused a complete generation")
		}
		return ns, nil
	},
	"field.fetch_copy_ns": func(b time.Duration, _ uint64) (float64, error) {
		f, err := completeCoeffField()
		if err != nil {
			return 0, err
		}
		defer f.Release()
		var dst field.Array
		return perOp(b, timed(func() { f.SnapshotInto(0, &dst) })), nil
	},
	"field.gen_lifecycle_allocs": func(time.Duration, uint64) (float64, error) {
		// A count, not a time: allocations over 64 generation lives after
		// 8 that fill the slab pools.
		const warm, lives = 8, 64
		f := field.New("probe", field.Int32, 2, true)
		defer f.Release()
		a := coeffArray()
		var dst field.Array
		var before, after goruntime.MemStats
		for age := 0; age < warm+lives; age++ {
			if age == warm {
				goruntime.ReadMemStats(&before)
			}
			if _, err := f.StoreAll(age, a); err != nil {
				return 0, err
			}
			f.MarkComplete(age)
			if tok, ok := f.FetchViewAll(age, &dst); ok {
				tok.Release()
			}
			f.DropAge(age)
		}
		goruntime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / lives, nil
	},
	"field.wire_encode_ns_per_kb": func(b time.Duration, _ uint64) (float64, error) {
		v := field.ArrayVal(coeffArray())
		var buf []byte
		var err error
		ns := perOp(b, timed(func() { buf, err = field.AppendWireValue(buf[:0], v) }))
		return ns / kib(len(buf)), err
	},
	"field.wire_decode_ns_per_kb": func(b time.Duration, _ uint64) (float64, error) {
		buf, err := field.AppendWireValue(nil, field.ArrayVal(coeffArray()))
		if err != nil {
			return 0, err
		}
		ns := perOp(b, timed(func() {
			var n int
			_, n, err = field.DecodeWireValue(buf)
			probeSink += n
		}))
		return ns / kib(len(buf)), err
	},

	"runtime.dispatch_ns_per_instance": func(b time.Duration, _ uint64) (float64, error) {
		var err error
		var instances int64
		ns := perOp(b, func(n int) time.Duration {
			var wall time.Duration
			for i := 0; i < n && err == nil; i++ {
				var rp *runtime.Report
				rp, err = runtime.Run(workloads.MulSum(), runtime.Options{Workers: 1, AnalyzerShards: benchShards, MaxAge: 100})
				if err == nil {
					wall += rp.Wall
					instances = rp.TotalInstances()
				}
			}
			return wall
		})
		if err != nil {
			return 0, err
		}
		return ns / float64(instances), nil
	},
	"runtime.node_setup_us": func(b time.Duration, _ uint64) (float64, error) {
		prog := workloads.MJPEG(workloads.MJPEGConfig{Source: noFrames{}})
		var err error
		ns := perOp(b, timed(func() {
			n, e := runtime.NewNode(prog, runtime.Options{Workers: benchWorkers, AnalyzerShards: benchShards, GC: true})
			if e != nil {
				err = e
				return
			}
			n.Release()
		}))
		return ns / 1e3, err
	},
	"runtime.frame_encode_ns_per_kb": func(b time.Duration, _ uint64) (float64, error) {
		sn := runtime.StoreNotice{Field: "uResult", Whole: true, Value: field.ArrayVal(coeffArray())}
		f := runtime.GetStoreFrame()
		defer runtime.PutStoreFrame(f)
		var out []byte
		var err error
		ns := perOp(b, timed(func() {
			f.Reset("uResult", 0)
			if e := f.Add(sn); e != nil {
				err = e
			}
			out = f.AppendTo(out[:0])
		}))
		return ns / kib(len(out)), err
	},
	"runtime.frame_inject_ns_per_kb": probeFrameInject,

	"lang.compile_ms": func(b time.Duration, seed uint64) (float64, error) {
		src := kmeansSource(seed)
		var err error
		ns := perOp(b, timed(func() {
			if _, e := lang.Compile("kmeans_vm", src); e != nil {
				err = e
			}
		}))
		return ns / 1e6, err
	},
	"lang.vm_assign_body_ns": func(b time.Duration, seed uint64) (float64, error) {
		return probeVMBody(b, seed, "assign")
	},
	"lang.vm_refine_body_us": func(b time.Duration, seed uint64) (float64, error) {
		ns, err := probeVMBody(b, seed, "refine")
		return ns / 1e3, err
	},

	"mjpeg.dct_block_ns": func(b time.Duration, seed uint64) (float64, error) {
		f, err := video.NewCIFSource(1, seed).Next()
		if err != nil {
			return 0, err
		}
		blocks := mjpeg.ExtractBlocks(f.Y, f.W, f.H)
		qt, _ := (&mjpeg.Encoder{}).Tables()
		var out mjpeg.Block
		i := 0
		return perOp(b, timed(func() {
			mjpeg.DCTQuantBlock(&blocks[i%len(blocks)], qt, false, &out)
			i++
		})), nil
	},
	"mjpeg.vlc_frame_us": func(b time.Duration, seed uint64) (float64, error) {
		f, err := video.NewCIFSource(1, seed).Next()
		if err != nil {
			return 0, err
		}
		qY, qC := (&mjpeg.Encoder{}).Tables()
		var coeffs [3][]int32
		for ci, blocks := range mjpeg.SplitYUV(f) {
			qt := qY
			if ci > 0 {
				qt = qC
			}
			var out mjpeg.Block
			for i := range blocks {
				mjpeg.DCTQuantBlock(&blocks[i], qt, false, &out)
				coeffs[ci] = append(coeffs[ci], out[:]...)
			}
		}
		ns := perOp(b, timed(func() { probeSink += len(mjpeg.EncodeFrameJPEGFlat(&coeffs, f.W, f.H, qY, qC)) }))
		return ns / 1e3, nil
	},
	"kmeans.assign_ns": func(b time.Duration, seed uint64) (float64, error) {
		pts, cents, _ := kmeansFlat(seed)
		i := 0
		return perOp(b, timed(func() {
			probeSink += kmeans.AssignFlat(pts[i%kmN*kmDim:][:kmDim], cents, kmDim)
			i++
		})), nil
	},
	"kmeans.refine_us": func(b time.Duration, seed uint64) (float64, error) {
		pts, cents, member := kmeansFlat(seed)
		out := make([]float64, kmDim)
		i := 0
		ns := perOp(b, timed(func() {
			c := i % kmK
			kmeans.RefineFlat(c, pts, kmDim, member, cents[c*kmDim:][:kmDim], out)
			i++
		}))
		return ns / 1e3, nil
	},
	"video.next_frame_us": func(b time.Duration, seed uint64) (float64, error) {
		var err error
		ns := perOp(b, func(n int) time.Duration {
			src := video.NewCIFSource(n, seed)
			t0 := time.Now()
			for i := 0; i < n && err == nil; i++ {
				_, err = src.Next()
			}
			return time.Since(t0)
		})
		return ns / 1e3, err
	},

	"dist.handshake_ms": func(time.Duration, uint64) (float64, error) {
		// Each handshake takes milliseconds, so the batches are single runs.
		runs := make([]float64, probeBatches)
		for i := range runs {
			src := &frameSource{}
			r := runCluster(func() *core.Program {
				return workloads.MJPEG(workloads.MJPEGConfig{Source: src})
			}, src, obsOff, nil, -1)
			if r.err != nil {
				return 0, r.err
			}
			runs[i] = r.setup.Seconds() * 1e3
		}
		return median(runs), nil
	},
	"sched.partition_us": func(b time.Duration, _ uint64) (float64, error) {
		g := graph.BuildFinal(workloads.MJPEG(workloads.MJPEGConfig{Source: noFrames{}}))
		topo := sched.NewTopology(2, 1)
		var err error
		ns := perOp(b, timed(func() {
			if _, _, e := sched.Partition(g, topo, sched.KL); e != nil {
				err = e
			}
		}))
		return ns / 1e3, err
	},
	"graph.build_final_us": func(b time.Duration, _ uint64) (float64, error) {
		prog := workloads.MJPEG(workloads.MJPEGConfig{Source: noFrames{}})
		ns := perOp(b, timed(func() { probeSink += len(graph.BuildFinal(prog).Nodes) }))
		return ns / 1e3, nil
	},
	"dist.tcp_frame_rtt_us": probeFrameRTT,

	"obs.hist_observe_ns": func(b time.Duration, _ uint64) (float64, error) {
		h := obs.NewRegistry().Histogram("probe")
		d := time.Duration(0)
		return perOp(b, timed(func() {
			d += 37 * time.Nanosecond
			h.Observe(d)
		})), nil
	},
	"obs.span_record_ns": func(b time.Duration, _ uint64) (float64, error) {
		t := obs.NewTracer(obs.DefaultTraceCapacity)
		s := obs.Span{Name: "probe", Cat: "kernel", Ph: obs.PhaseComplete, Dur: 1000}
		return perOp(b, timed(func() {
			s.TS++
			t.Record(s)
		})), nil
	},
}

func kib(n int) float64 { return float64(n) / 1024 }

// kmeansFlat is the K-means working set in the flat layout the kernels use:
// points, initial centroids and the membership those centroids give.
func kmeansFlat(seed uint64) (pts, cents []float64, member []int32) {
	points := kmeans.Generate(kmN, kmDim, kmK, seed)
	for _, p := range points {
		pts = append(pts, p...)
	}
	for _, c := range kmeans.InitialCentroids(points, kmK) {
		cents = append(cents, c...)
	}
	member = make([]int32, kmN)
	for i := range member {
		member[i] = int32(kmeans.AssignFlat(pts[i*kmDim:][:kmDim], cents, kmDim))
	}
	return pts, cents, member
}

// probeVMBody times one compiled kernel body of the K-means template through
// KernelDecl.Body, with its fetched locals bound by hand: the bytecode VM
// alone, no scheduler and no field access.
func probeVMBody(b time.Duration, seed uint64, kernel string) (float64, error) {
	prog, err := lang.Compile("kmeans_vm", kmeansSource(seed))
	if err != nil {
		return 0, err
	}
	kd := prog.Kernel(kernel)
	if kd == nil {
		return 0, fmt.Errorf("template has no kernel %q", kernel)
	}
	flat, cents, member := kmeansFlat(seed)
	pts := field.NewArray(field.Float64, kmN, kmDim)
	copy(pts.Float64s(), flat)
	centroids := field.NewArray(field.Float64, kmK, kmDim)
	copy(centroids.Float64s(), cents)
	ms := field.ArrayFromInt32(member)

	ctx := core.NewReusableCtx(kd, nil, io.Discard)
	coords := []int{0}
	i := 0
	ns := perOp(b, timed(func() {
		if err != nil {
			return
		}
		if kernel == "assign" {
			coords[0] = i % kmN
			ctx.Reset(0, coords)
			ctx.BindFetched("px", field.Float64Val(flat[coords[0]*kmDim]))
			ctx.BindFetched("py", field.Float64Val(flat[coords[0]*kmDim+1]))
			ctx.BindFetched("cents", field.ArrayVal(centroids))
		} else {
			coords[0] = i % kmK
			ctx.Reset(0, coords)
			ctx.BindFetched("cx", field.Float64Val(cents[coords[0]*kmDim]))
			ctx.BindFetched("cy", field.Float64Val(cents[coords[0]*kmDim+1]))
			ctx.BindFetched("pts", field.ArrayVal(pts))
			ctx.BindFetched("ms", field.ArrayVal(ms))
		}
		err = kd.Body(ctx)
		i++
	}))
	return ns, err
}

// probeFrameInject times Node.InjectStoreFrame on an all-remote node, which
// is what the master's shadow and every subscribing worker do with a frame:
// decode it, store the generation, notify the analyzer. Generations are
// write-once, so each inject takes a fresh age and a node takes a bounded
// number of them before it is stopped and its slabs recycled.
func probeFrameInject(b time.Duration, _ uint64) (float64, error) {
	const agesPerNode = 32
	prog := workloads.MJPEG(workloads.MJPEGConfig{Source: noFrames{}})
	remote := map[string]bool{}
	for _, k := range prog.Kernels {
		remote[k.Name] = true
	}
	sn := runtime.StoreNotice{Field: "uResult", Whole: true, Value: field.ArrayVal(coeffArray())}
	frames := make([][]byte, agesPerNode)
	f := runtime.GetStoreFrame()
	for age := range frames {
		f.Reset("uResult", age)
		sn.Age = age
		if err := f.Add(sn); err != nil {
			runtime.PutStoreFrame(f)
			return 0, err
		}
		frames[age] = f.AppendTo(nil)
	}
	runtime.PutStoreFrame(f)

	var err error
	ns := perOp(b, func(n int) time.Duration {
		var d time.Duration
		for n > 0 && err == nil {
			k := min(n, agesPerNode)
			n -= k
			node, e := runtime.NewNode(prog, runtime.Options{Workers: 1, AnalyzerShards: benchShards, RemoteKernels: remote, NoAutoQuiesce: true})
			if e != nil {
				err = e
				break
			}
			ran := make(chan error, 1)
			go func() {
				_, e := node.Run()
				ran <- e
			}()
			t0 := time.Now()
			for age := 0; age < k && err == nil; age++ {
				err = node.InjectStoreFrame(frames[age])
			}
			d += time.Since(t0)
			node.Stop()
			if e := <-ran; e != nil && err == nil {
				err = e
			}
			node.Release()
		}
		return d
	})
	return ns / kib(len(frames[0])), err
}

// probeFrameRTT times a 100 KB store frame sent with FrameConn.SendFrame over
// TCP loopback and echoed back the same way.
func probeFrameRTT(b time.Duration, _ uint64) (float64, error) {
	l, err := dist.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		fc, ok := c.(dist.FrameConn)
		if !ok {
			echoed <- errors.New("TCP transport is not a FrameConn")
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				echoed <- nil // the client closing ends the echo
				return
			}
			if err := fc.SendFrame(m, net.Buffers{m.Frame}); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := dist.DialTCP(l.Addr())
	if err != nil {
		return 0, err
	}
	fc, ok := c.(dist.FrameConn)
	if !ok {
		c.Close()
		return 0, errors.New("TCP transport is not a FrameConn")
	}
	payload := make([]byte, 100*1000)
	msg := &dist.Msg{Kind: dist.MStoreFrame}
	ns := perOp(b, timed(func() {
		if err != nil {
			return
		}
		// SendFrame consumes the segment vector, so it is rebuilt per send.
		if err = fc.SendFrame(msg, net.Buffers{payload}); err != nil {
			return
		}
		var m *dist.Msg
		if m, err = c.Recv(); err == nil && len(m.Frame) != len(payload) {
			err = fmt.Errorf("echoed %d bytes, sent %d", len(m.Frame), len(payload))
		}
	}))
	c.Close()
	if e := <-echoed; e != nil && err == nil {
		err = e
	}
	return ns / 1e3, err
}
