package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/kmeans"
	"repro/internal/lang"
	"repro/internal/mjpeg"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/video"
	"repro/internal/workloads"
)

// meanStd returns the mean and standard deviation of durations in seconds.
func meanStd(ds []time.Duration) (float64, float64) {
	var sum float64
	for _, d := range ds {
		sum += d.Seconds()
	}
	mean := sum / float64(len(ds))
	var varsum float64
	for _, d := range ds {
		varsum += (d.Seconds() - mean) * (d.Seconds() - mean)
	}
	return mean, math.Sqrt(varsum / float64(len(ds)))
}

func mjpegProgram(fast bool) *core.Program {
	return workloads.MJPEG(workloads.MJPEGConfig{
		Source:  video.NewCIFSource(*frames, 42),
		FastDCT: fast,
	})
}

func kmeansCfg() workloads.KMeansConfig {
	return workloads.KMeansConfig{N: *kmN, K: *kmK, Iter: *kmIters, Dim: 2, Seed: 7}
}

// runInstrumented executes a workload once and returns its report. When the
// -trace or -metrics-addr flags are set, the run feeds the global tracer and
// registry (nil otherwise: zero observability overhead).
func runInstrumented(prog *core.Program, opts runtime.Options) (*runtime.Report, error) {
	opts.Metrics = benchReg
	opts.Tracer = benchTracer
	node, err := runtime.NewNode(prog, opts)
	if err != nil {
		return nil, err
	}
	rep, err := node.Run()
	if err != nil {
		return nil, err
	}
	if len(rep.Stalled) > 0 {
		return nil, fmt.Errorf("stalled kernel-ages: %v", rep.Stalled)
	}
	return rep, nil
}

func golden() error {
	var out strings.Builder
	if _, err := runtime.Run(workloads.MulSum(), runtime.Options{Workers: 1, MaxAge: 1, Output: &out}); err != nil {
		return err
	}
	want := "10 11 12 13 14 \n20 22 24 26 28 \n25 27 29 31 33 \n50 54 58 62 66 \n"
	fmt.Print(out.String())
	if out.String() == want {
		fmt.Println("matches §V exactly: {10..14},{20,22,24,26,28} then {25,27,29,31,33},{50,54,58,62,66}")
	} else {
		fmt.Println("MISMATCH with the paper's §V sequence!")
	}
	return nil
}

// figSweep measures a workload across worker counts (real wall time on this
// host) and prints two analytical extrapolations next to it: one
// parameterized by the per-instance costs measured here, and one by the
// per-instance costs the paper itself reports (Tables II/III) — the latter
// regenerates the published curve shapes from the published numbers.
func figSweep(mkProg func() *core.Program, opts func(workers int) runtime.Options, paper sim.Model) error {
	// Instrument once with a single worker to parameterize the model.
	rep, err := runInstrumented(mkProg(), opts(1))
	if err != nil {
		return err
	}
	model := sim.Model{
		Kernels:          sim.FromReport(rep),
		AnalyzerPerEvent: sim.CalibrateAnalyzer(rep),
		Cores:            *simCores,
	}
	predicted, err := model.Sweep(*maxWorkers)
	if err != nil {
		return err
	}
	paper.Cores = *simCores
	paperFast, err := paper.Sweep(*maxWorkers)
	if err != nil {
		return err
	}
	slow := paper
	slow.Speed = 0.65           // the paper's Opteron runs ≈0.65x its Core i7
	slow.ContentionPenalty *= 2 // no turbo boost to absorb the serial bottleneck (§VIII-B)
	paperSlow, err := slow.Sweep(*maxWorkers)
	if err != nil {
		return err
	}

	fmt.Printf("%-8s %-22s %-12s %-12s %-12s\n", "workers",
		fmt.Sprintf("measured (%d runs) s", *runs),
		"model(ours)", "paper-i7", "paper-Opteron")
	for w := 1; w <= *maxWorkers; w++ {
		var ds []time.Duration
		var lastRep *runtime.Report
		for r := 0; r < *runs; r++ {
			rep, err := runInstrumented(mkProg(), opts(w))
			if err != nil {
				return err
			}
			ds = append(ds, rep.Wall)
			lastRep = rep
		}
		mean, std := meanStd(ds)
		fmt.Printf("%-8d %8.3f ± %-10.3f %-12.3f %-12.3f %-12.3f\n",
			w, mean, std, predicted[w-1].Seconds(), paperFast[w-1].Seconds(), paperSlow[w-1].Seconds())
		if *attrFlag && lastRep != nil && lastRep.Stages != nil {
			// Per-worker attribution is the bottleneck profile: watch
			// ready-wait and idle grow with w while exec stays flat (§VIII-B).
			fmt.Print(lastRep.Attribution())
		}
	}
	fmt.Printf("(our analyzer per-event cost calibrated at %v; worker work %.3fs, analyzer work %.3fs;\n",
		model.AnalyzerPerEvent, model.WorkerWork().Seconds(), model.AnalyzerWork().Seconds())
	fmt.Printf(" paper-cost model uses the published Table II/III per-instance times on %d cores)\n", *simCores)
	return nil
}

// paperMJPEGModel carries Table II's published per-instance costs.
func paperMJPEGModel() sim.Model {
	fr := int64(*frames)
	return sim.Model{
		Kernels: []sim.KernelCost{
			{Name: "read", Instances: fr + 1, KernelPer: 1642 * time.Microsecond, DispatchPer: 36 * time.Microsecond, Events: 4},
			{Name: "yDCT", Instances: fr * 1584, KernelPer: 170 * time.Microsecond, DispatchPer: 3 * time.Microsecond, Events: 2},
			{Name: "uDCT", Instances: fr * 396, KernelPer: 170 * time.Microsecond, DispatchPer: 3 * time.Microsecond, Events: 2},
			{Name: "vDCT", Instances: fr * 396, KernelPer: 171 * time.Microsecond, DispatchPer: 3 * time.Microsecond, Events: 2},
			{Name: "vlc", Instances: fr + 1, KernelPer: 2161 * time.Microsecond, DispatchPer: 3 * time.Microsecond, Events: 3},
		},
		AnalyzerPerEvent:  2 * time.Microsecond,
		ContentionPenalty: 0.05,
	}
}

// paperKMeansModel carries Table III's published per-instance costs.
func paperKMeansModel() sim.Model {
	cfg := kmeansCfg()
	return sim.Model{
		Kernels: []sim.KernelCost{
			{Name: "assign", Instances: int64(cfg.N * cfg.Iter), KernelPer: 6950 * time.Nanosecond, DispatchPer: 4070 * time.Nanosecond, Events: 2},
			{Name: "refine", Instances: int64(cfg.K * cfg.Iter), KernelPer: 93 * time.Microsecond, DispatchPer: 3210 * time.Nanosecond, Events: 2},
			{Name: "print", Instances: int64(cfg.Iter + 1), KernelPer: 379 * time.Microsecond, DispatchPer: time.Microsecond, Events: 1},
		},
		AnalyzerPerEvent:  2 * time.Microsecond,
		ContentionPenalty: 0.05,
	}
}

func fig9() error {
	return figSweep(func() *core.Program { return mjpegProgram(false) },
		func(w int) runtime.Options { return runtime.Options{Workers: w} },
		paperMJPEGModel())
}

func fig10() error {
	cfg := kmeansCfg()
	return figSweep(func() *core.Program { return workloads.KMeans(cfg) },
		func(w int) runtime.Options { return workloads.KMeansOptions(cfg, w) },
		paperKMeansModel())
}

func tableII() error {
	// One worker gives clean per-instance timings (on a host with fewer
	// cores than workers, oversubscription would inflate them).
	rep, err := runInstrumented(mjpegProgram(false), runtime.Options{Workers: 1})
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	fmt.Printf("(paper: init 1, read/splityuv %d, yDCT %d, uDCT %d, vDCT %d, VLC/write %d instances\n",
		*frames+1, *frames*1584, *frames*396, *frames*396, *frames+1)
	fmt.Println(" for 50 frames: 51 / 80784 / 20196 / 20196 / 51; dispatch ~3µs, yDCT kernel ~170µs)")
	return nil
}

func tableIII() error {
	cfg := kmeansCfg()
	rep, err := runInstrumented(workloads.KMeans(cfg), workloads.KMeansOptions(cfg, 1))
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	fmt.Printf("(paper: init 1, assign ~n·iters, refine k·iters = %d, print iters+1 = %d;\n",
		cfg.K*cfg.Iter, cfg.Iter+1)
	fmt.Println(" assign dispatch 4.07µs vs kernel 6.95µs — same order, which is what saturates the analyzer)")
	return nil
}

func baseline() error {
	enc := &mjpeg.Encoder{}
	var ds []time.Duration
	for r := 0; r < *runs; r++ {
		start := time.Now()
		if _, err := enc.EncodeStream(video.NewCIFSource(*frames, 42), io.Discard); err != nil {
			return err
		}
		ds = append(ds, time.Since(start))
	}
	mean, std := meanStd(ds)
	fmt.Printf("standalone single-threaded encoder: %.3f ± %.3f s for %d CIF frames\n", mean, std, *frames)

	for _, w := range []int{1, *maxWorkers} {
		var ps []time.Duration
		for r := 0; r < *runs; r++ {
			rep, err := runInstrumented(mjpegProgram(false), runtime.Options{Workers: w})
			if err != nil {
				return err
			}
			ps = append(ps, rep.Wall)
		}
		pm, pstd := meanStd(ps)
		fmt.Printf("P2G encoder, %d worker(s):            %.3f ± %.3f s (%.2fx the baseline)\n",
			w, pm, pstd, pm/mean)
	}
	fmt.Println("(paper §VIII-A: baseline 19s on the i7 / 30s on the Opteron; P2G with 1 worker")
	fmt.Println(" is the baseline plus dispatch overhead, and scales with added workers)")
	return nil
}

func granularity() error {
	cfg := kmeansCfg()
	fmt.Printf("%-14s %-14s %-22s %s\n", "assign slice", "wall s", "assign dispatch/inst", "instances/slice")
	// Forced slice sizes first, then the scheduler's own sizing rule.
	for _, g := range []int{1, 8, 32, 125, 250, 0} {
		opts := workloads.KMeansOptions(cfg, *maxWorkers)
		label := "default"
		if g > 0 {
			opts.Granularity = map[string]int{"assign": g}
			label = strconv.Itoa(g)
		}
		var ds []time.Duration
		var assign runtime.KernelStats
		for r := 0; r < *runs; r++ {
			rep, err := runInstrumented(workloads.KMeans(cfg), opts)
			if err != nil {
				return err
			}
			ds = append(ds, rep.Wall)
			assign = rep.Kernel("assign")
		}
		mean, std := meanStd(ds)
		fmt.Printf("%-14s %7.3f ±%5.3f %-22v %.1f\n", label, mean, std, assign.DispatchPer(), assign.InstancesPerSlice())
	}
	fmt.Println("(§VIII-B's remedy: larger slices per assign instance cut the analyzer's event load)")
	return nil
}

func fusion() error {
	const ages = 20000
	run := func(p *core.Program) (time.Duration, int64, int64, error) {
		var best time.Duration = math.MaxInt64
		var insts, events int64
		for r := 0; r < *runs; r++ {
			rep, err := runInstrumented(p, runtime.Options{Workers: 2, MaxAge: ages})
			if err != nil {
				return 0, 0, 0, err
			}
			if rep.Wall < best {
				best = rep.Wall
			}
			insts, events = 0, 0
			for _, k := range rep.Kernels {
				insts += k.Instances
				events += k.Instances + k.StoreOps
			}
		}
		return best, insts, events, nil
	}
	plain, pi, pe, err := run(workloads.MulSum())
	if err != nil {
		return err
	}
	fused, err := core.Fuse(workloads.MulSum(), "mul2", "plus5")
	if err != nil {
		return err
	}
	fusedWall, fi, fe, err := run(fused)
	if err != nil {
		return err
	}
	fmt.Printf("mul2 and plus5 separate: %v for %d ages, %d instances, %d analyzer events\n", plain, ages, pi, pe)
	fmt.Printf("mul2+plus5 fused:        %v (%.2fx), %d instances (%.2fx), %d analyzer events (%.2fx)\n",
		fusedWall, float64(plain)/float64(fusedWall),
		fi, float64(pi)/float64(fi), fe, float64(pe)/float64(fe))
	fmt.Println("(figure 4 Age=3: task combining nearly halves the instance count and the serial")
	fmt.Println(" analyzer's event load — the win grows with worker counts that saturate the analyzer)")
	return nil
}

func dct() error {
	f, _ := video.NewCIFSource(1, 42).Next()
	blocks := mjpeg.ExtractBlocks(f.Y, f.W, f.H)
	qt := mjpeg.LumaQuant(75)
	measure := func(fast bool) time.Duration {
		var out mjpeg.Block
		best := time.Duration(math.MaxInt64)
		for r := 0; r < *runs; r++ {
			start := time.Now()
			for i := range blocks {
				mjpeg.DCTQuantBlock(&blocks[i], qt, fast, &out)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	naive := measure(false)
	fast := measure(true)
	n := time.Duration(len(blocks))
	fmt.Printf("naive DCT+quant: %v per frame (%v per macroblock)\n", naive, naive/n)
	fmt.Printf("AAN fast DCT:    %v per frame (%v per macroblock), %.2fx faster\n",
		fast, fast/n, float64(naive)/float64(fast))
	fmt.Println("(§VIII-A: the paper's encoder uses the naive DCT and cites FastDCT [2] as the improvement)")
	return nil
}

func partition() error {
	for _, wl := range []struct {
		name string
		prog *core.Program
		rep  func() (*runtime.Report, error)
	}{
		{"mjpeg", mjpegProgram(true), func() (*runtime.Report, error) {
			p := workloads.MJPEG(workloads.MJPEGConfig{Source: video.NewCIFSource(2, 1), FastDCT: true})
			return runInstrumented(p, runtime.Options{Workers: 2})
		}},
		{"kmeans", workloads.KMeans(workloads.KMeansConfig{N: 500, K: 20, Iter: 5}), func() (*runtime.Report, error) {
			cfg := workloads.KMeansConfig{N: 500, K: 20, Iter: 5}
			return runInstrumented(workloads.KMeans(cfg), workloads.KMeansOptions(cfg, 2))
		}},
	} {
		rep, err := wl.rep()
		if err != nil {
			return err
		}
		g := graph.BuildFinal(wl.prog)
		sched.ApplyInstrumentation(g, rep)
		fmt.Printf("%s final graph (%d kernels, %d edges), instrumentation-weighted:\n",
			wl.name, len(g.Nodes), len(g.Edges))
		fmt.Printf("  %-8s %-12s %-10s\n", "nodes", "cut", "imbalance")
		for _, nodes := range []int{2, 4, 8} {
			_, cost, err := sched.Partition(g, sched.NewTopology(nodes, 4), sched.KL)
			if err != nil {
				return err
			}
			fmt.Printf("  %-8d %-12.3g %-10.3f\n", nodes, cost.Cut, cost.Imbalance)
		}
	}
	fmt.Println("(a greedy seed refined Kernighan–Lin style; §IV's repartitioning loop uses these weights)")
	return nil
}

func distExp() error {
	cfg := workloads.KMeansConfig{N: 600, Dim: 2, K: 20, Iter: 8, Seed: 3}
	want := kmeans.Sequential(kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed), cfg.K, cfg.Iter)

	fmt.Printf("%-8s %-10s %-12s %s\n", "nodes", "wall s", "events", "deterministic")
	for _, nodes := range []int{1, 2, 3, 4} {
		masterConns := make([]dist.Conn, nodes)
		workerErrs := make([]error, nodes)
		var wg sync.WaitGroup
		for i := 0; i < nodes; i++ {
			mc, wc, err := dist.LoopbackPipe()
			if err != nil {
				return err
			}
			masterConns[i] = mc
			wg.Add(1)
			go func(i int, conn dist.Conn) {
				defer wg.Done()
				_, workerErrs[i] = dist.RunWorker(dist.WorkerConfig{
					NodeID:       fmt.Sprintf("n%d", i),
					Cores:        2,
					Prog:         workloads.KMeans(cfg),
					KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge,
				}, conn)
			}(i, wc)
		}
		start := time.Now()
		res, err := dist.RunMaster(dist.MasterConfig{Prog: workloads.KMeans(cfg)}, masterConns)
		wg.Wait()
		if err == nil {
			err = errors.Join(workerErrs...)
		}
		if err != nil {
			return err
		}
		wall := time.Since(start)
		var events int64
		for _, rep := range res.Reports {
			for _, k := range rep.Kernels {
				events += k.StoreOps + k.Instances
			}
		}
		cents, err := res.Shadow.Snapshot("centroids", cfg.Iter)
		if err != nil {
			return err
		}
		exact := cents.Extent(0) == cfg.K
		pts := workloads.CentroidPoints(cents)
		for c := 0; c < cfg.K && exact; c++ {
			if kmeans.SqDist(pts[c], want.Centroids[c]) != 0 {
				exact = false
			}
		}
		var names []string
		for k, n := range res.Assignment {
			names = append(names, fmt.Sprintf("%s→%d", k, n))
		}
		for k, ids := range res.Shares {
			names = append(names, fmt.Sprintf("%s→[%s]", k, dist.ShareString(ids)))
		}
		sort.Strings(names)
		fmt.Printf("%-8d %-10.3f %-12d %-6v %s\n", nodes, wall.Seconds(), events, exact, strings.Join(names, " "))
	}
	fmt.Println("(results are bit-identical to the sequential baseline on every node count: the")
	fmt.Println(" write-once semantics make distribution invisible to the outcome, per §III)")
	return nil
}

// wavefrontExp sweeps worker counts over the §III wavefront intra-prediction
// program written in the kernel language (testdata/wavefront.p2g).
func wavefrontExp() error {
	src, err := os.ReadFile("testdata/wavefront.p2g")
	if err != nil {
		return fmt.Errorf("reading testdata/wavefront.p2g (run from the repo root): %w", err)
	}
	prog, err := lang.Compile("wavefront", string(src))
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %s\n", "workers", "wall s")
	for w := 1; w <= *maxWorkers; w++ {
		var ds []time.Duration
		for r := 0; r < *runs; r++ {
			rep, err := runInstrumented(prog, runtime.Options{Workers: w, Output: io.Discard})
			if err != nil {
				return err
			}
			ds = append(ds, rep.Wall)
		}
		mean, _ := meanStd(ds)
		fmt.Printf("%-8d %.4f\n", w, mean)
	}
	fmt.Printf("(mean of %d runs per cell; see `go test -bench Lang` for body-only numbers against native Go)\n", *runs)
	return nil
}
