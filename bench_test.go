package p2g

// Benchmarks mirroring the paper's evaluation artifacts (run the full
// parameter sweeps with cmd/p2gbench; these testing.B targets exercise the
// same code paths at sizes suitable for `go test -bench`):
//
//	BenchmarkFig9MJPEG     — figure 9: MJPEG encode across worker counts
//	BenchmarkFig10KMeans   — figure 10: K-means across worker counts
//	BenchmarkTableII_VLC   — Table II row: per-instance VLC cost (the yDCT
//	                          row is the ledger's mjpeg.dct_block_ns)
//	BenchmarkTableIII*     — Table III rows: per-instance assign/refine cost
//	BenchmarkBaseline*     — §VIII-A standalone encoder / sequential K-means
//	BenchmarkDispatch      — per-instance dispatch overhead (Tables II/III)
//	BenchmarkGranularity   — §V-A data-granularity ablation
//	BenchmarkFusion        — figure 4 Age=3 task-combining ablation
//	BenchmarkPartition     — §IV HLS partitioning methods
//	BenchmarkDCT           — naive vs AAN fast DCT (ref [2])
//	BenchmarkObsOverhead*  — tracing-off vs metrics vs full-tracing overhead
//	                          on the figure 9/10 workloads (gate: off ≈ free)
//
// BenchmarkTransportMJPEG and BenchmarkTransportMJPEGFailover, the distributed
// encodes over TCP loopback, live in internal/dist beside the cluster harness
// they run on.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
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

func benchWorkers(b *testing.B, run func(workers int) error) {
	b.Helper()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9MJPEG(b *testing.B) {
	const frames = 2
	benchWorkers(b, func(w int) error {
		prog := workloads.MJPEG(workloads.MJPEGConfig{
			Source:  video.NewCIFSource(frames, 42),
			FastDCT: true, // keep bench iterations fast; shape is identical
		})
		_, err := runtime.Run(prog, runtime.Options{Workers: w})
		return err
	})
}

func BenchmarkFig10KMeans(b *testing.B) {
	cfg := workloads.KMeansConfig{N: 500, K: 25, Iter: 5, Dim: 2, Seed: 7}
	benchWorkers(b, func(w int) error {
		_, err := runtime.Run(workloads.KMeans(cfg), workloads.KMeansOptions(cfg, w))
		return err
	})
}

// BenchmarkTableII_VLC measures one VLC+write instance: entropy coding a full
// CIF frame — the paper's 2160µs row.
func BenchmarkTableII_VLC(b *testing.B) {
	f, _ := video.NewCIFSource(1, 42).Next()
	enc := &mjpeg.Encoder{}
	qY, qC := enc.Tables()
	in := mjpeg.SplitYUV(f)
	var coeffs [3][]mjpeg.Block
	for ci := range in {
		qt := qY
		if ci > 0 {
			qt = qC
		}
		out := make([]mjpeg.Block, len(in[ci]))
		for i := range in[ci] {
			mjpeg.DCTQuantBlock(&in[ci][i], qt, true, &out[i])
		}
		coeffs[ci] = out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mjpeg.EncodeFrameJPEG(&coeffs, f.W, f.H, qY, qC)
	}
}

// BenchmarkTableIII_Assign measures one assign kernel instance — the paper's
// 6.95µs row (n=2000, k=100).
func BenchmarkTableIII_Assign(b *testing.B) {
	pts := kmeans.Generate(2000, 2, 100, 7)
	cents := kmeans.InitialCentroids(pts, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeans.Assign(pts[i%len(pts)], cents)
	}
}

// BenchmarkTableIII_Refine measures one refine kernel instance — the paper's
// 92.91µs row.
func BenchmarkTableIII_Refine(b *testing.B) {
	pts := kmeans.Generate(2000, 2, 100, 7)
	cents := kmeans.InitialCentroids(pts, 100)
	membership := make([]int, len(pts))
	for i, p := range pts {
		membership[i] = kmeans.Assign(p, cents)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeans.Refine(i%100, pts, membership, cents[i%100])
	}
}

// BenchmarkBaselineMJPEG is the §VIII-A standalone single-threaded encoder,
// per CIF frame.
func BenchmarkBaselineMJPEG(b *testing.B) {
	f, _ := video.NewCIFSource(1, 42).Next()
	enc := &mjpeg.Encoder{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeFrame(f)
	}
}

func BenchmarkBaselineKMeansSequential(b *testing.B) {
	pts := kmeans.Generate(500, 2, 25, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeans.Sequential(pts, 25, 5)
	}
}

// BenchmarkDispatch isolates per-instance runtime overhead: mul2/plus5
// instances do almost no kernel work, so wall time is dominated by dispatch
// and analysis — the overhead column of Tables II/III. (The per-dispatch
// fast path itself is measured allocation-free by BenchmarkDispatchInstance
// in internal/runtime; this whole-run variant includes program build and
// analyzer work.)
func BenchmarkDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := runtime.Run(workloads.MulSum(), runtime.Options{Workers: 1, MaxAge: 100})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Kernel("mul2").DispatchPer().Nanoseconds()), "dispatch-ns/inst")
		}
	}
}

func BenchmarkGranularity(b *testing.B) {
	cfg := workloads.KMeansConfig{N: 1000, K: 20, Iter: 4, Dim: 2, Seed: 7}
	for _, g := range []int{1, 32, 250} {
		b.Run(fmt.Sprintf("slab=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := workloads.KMeansOptions(cfg, 2)
				opts.Granularity = map[string]int{"assign": g}
				if _, err := runtime.Run(workloads.KMeans(cfg), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFusion(b *testing.B) {
	fused, err := core.Fuse(workloads.MulSum(), "mul2", "plus5")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog func() *core.Program
	}{
		{"separate", workloads.MulSum},
		{"fused", func() *core.Program { return fused }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runtime.Run(c.prog(), runtime.Options{Workers: 2, MaxAge: 500}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartition(b *testing.B) {
	prog := workloads.MJPEG(workloads.MJPEGConfig{Source: video.NewCIFSource(1, 1)})
	g := graph.BuildFinal(prog)
	topo := sched.NewTopology(4, 4)
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.Partition(g, topo, sched.KL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCT(b *testing.B) {
	f, _ := video.NewCIFSource(1, 42).Next()
	blocks := mjpeg.ExtractBlocks(f.Y, f.W, f.H)
	var out [64]float64
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mjpeg.DCTNaive(&blocks[i%len(blocks)], &out)
		}
	})
	b.Run("aan-fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mjpeg.DCTFast(&blocks[i%len(blocks)], &out)
		}
	})
}

// benchObsModes runs a workload under the three observability settings: no
// instrumentation at all (the default fast path — must track the plain
// figure-9/10 numbers), a live metrics registry (stage timers on), and
// metrics plus span tracing. Fresh registry/tracer per iteration, like the
// command-line tools allocate them.
func benchObsModes(b *testing.B, mkProg func() *core.Program, opts func() runtime.Options) {
	for _, c := range []struct {
		name    string
		metrics bool
		traced  bool
	}{
		{"off", false, false},
		{"metrics", true, false},
		{"traced", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := opts()
				if c.metrics {
					o.Metrics = obs.NewRegistry()
				}
				if c.traced {
					o.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
				}
				if _, err := runtime.Run(mkProg(), o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverheadMJPEG measures observability overhead on the figure 9
// MJPEG workload; the "off" case is the regression gate for the tracing-off
// fast path (ISSUE 6: ≤2% vs the plain Fig9 numbers).
func BenchmarkObsOverheadMJPEG(b *testing.B) {
	const frames = 2
	benchObsModes(b, func() *core.Program {
		return workloads.MJPEG(workloads.MJPEGConfig{
			Source:  video.NewCIFSource(frames, 42),
			FastDCT: true,
		})
	}, func() runtime.Options { return runtime.Options{Workers: 2} })
}

// BenchmarkObsOverheadKMeans is the same measurement on the figure 10
// K-means workload.
func BenchmarkObsOverheadKMeans(b *testing.B) {
	cfg := workloads.KMeansConfig{N: 500, K: 25, Iter: 5, Dim: 2, Seed: 7}
	benchObsModes(b, func() *core.Program { return workloads.KMeans(cfg) },
		func() runtime.Options { return workloads.KMeansOptions(cfg, 2) })
}

// BenchmarkLangCompile measures kernel-language compilation (the p2gc path).
func BenchmarkLangCompile(b *testing.B) {
	src := mustReadTestdata(b, "testdata/mulsum.p2g")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Compile("mulsum", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLangInterp compares interpreted kernel bodies against native Go
// bodies on the same program.
func BenchmarkLangInterp(b *testing.B) {
	src := mustReadTestdata(b, "testdata/mulsum.p2g")
	prog, err := lang.Compile("mulsum", src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runtime.Run(prog, runtime.Options{Workers: 1, MaxAge: 200, Output: io.Discard}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runtime.Run(workloads.MulSum(), runtime.Options{Workers: 1, MaxAge: 200, Output: io.Discard}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustReadTestdata(b *testing.B, path string) string {
	b.Helper()
	data, err := readFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// ---- kernel-language body benchmarks --------------------------------------
//
// BenchmarkLang{MulSum,KMeans,Wavefront} measure one kernel body directly
// (no scheduler, no fetch/store machinery) on the register-bytecode VM and as
// a native Go transliteration of the same compute; the native row is the
// VM's remaining headroom. MulSum and KMeans also have a lanes row: the same
// compute written as the paper writes it, one instance per element, and run
// the way the runtime runs a slice of 64 of them — one SliceBody call over 64
// lanes of a context, the instructions dispatched once per slice — and two
// rows for the shortest slice the runtime still runs that way
// (KernelDecl.SliceMin): lanes-min in lockstep, rows one Body call per
// element, which is what shorter slices get. The two should be close.

// §V mulsum arithmetic: repeated v = v*2+5 passes over a 512-element row.
const benchLangMulSumSrc = `
int32[] out;
int32[] vals;
int32[] out1;
calc:
  local int32[] r;
  %{
    for (int i = 0; i < 512; ++i) { put(r, i + 10, i); }
    for (int it = 0; it < 50; ++it) {
      for (int i = 0; i < 512; ++i) { put(r, get(r, i) * 2 + 5, i); }
    }
  %}
  store out(0) = r;
calc1:
  index i;
  local int32 v;
  fetch v = vals(0)[i];
  %{
    for (int it = 0; it < 50; ++it) { v = v * 2 + 5; }
  %}
  store out1(0)[i] = v;
`

// Table III assign: nearest-centroid scan, float math in the inner loop.
const benchLangKMeansSrc = `
float64[] out;
float64[] pxs;
float64[] cxs;
float64[] bests;
assign:
  local float64[] cx;
  local float64[] best;
  %{
    for (int c = 0; c < 32; ++c) { put(cx, c * 0.5, c); }
    for (int p = 0; p < 256; ++p) {
      float px = p * 0.37;
      float bd = 1000000.0;
      for (int c = 0; c < 32; ++c) {
        float d = px - get(cx, c);
        d = d * d;
        if (d < bd) { bd = d; }
      }
      put(best, bd, p);
    }
  %}
  store out(0) = best;
assign1:
  index p;
  local float64 px;
  local float64[] cx;
  local float64 bd;
  fetch px = pxs(0)[p];
  fetch cx = cxs(0);
  %{
    bd = 1000000.0;
    for (int c = 0; c < 32; ++c) {
      float d = px - get(cx, c);
      d = d * d;
      if (d < bd) { bd = d; }
    }
  %}
  store bests(0)[p] = bd;
`

// §III wavefront: each cell depends on its left, up and diagonal neighbours.
const benchLangWavefrontSrc = `
int32[][] out;
predict:
  local int32[][] p;
  %{
    for (int x = 0; x < 34; ++x) { put(p, 1, x, 0); }
    for (int y = 0; y < 34; ++y) { put(p, 1, 0, y); }
    for (int x = 1; x < 34; ++x) {
      for (int y = 1; y < 34; ++y) {
        int left = get(p, x - 1, y);
        int up = get(p, x, y - 1);
        int diag = get(p, x - 1, y - 1);
        put(p, (left + up + diag) % 255 + min(left, up), x, y);
      }
    }
  %}
  store out(0) = p;
`

var benchLangSink int64

// benchLangLanes describes the lanes row of a body benchmark: the
// per-element kernel, how many elements make up the compute of the other
// rows, and what the runtime would have fetched for element i: the value of
// the element fetch into local, and the arrays of the whole fetches, the same
// for every element.
type benchLangLanes struct {
	kernel   string
	elements int
	local    string
	value    func(i int) field.Value
	whole    map[string]*field.Array
}

func benchLangBody(b *testing.B, src, kernel string, native func() int64, lanes *benchLangLanes) {
	b.Helper()
	prog, err := lang.Compile("bench", src)
	if err != nil {
		b.Fatal(err)
	}
	kd := prog.Kernel(kernel)
	ctx := core.NewCtx(kd, 0, nil, nil, io.Discard)
	b.Run("bytecode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx.Reset(0, nil)
			if err := kd.Body(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	if lanes != nil {
		kd := prog.Kernel(lanes.kernel)
		if kd.SliceBody == nil {
			b.Fatalf("kernel %s has no slice body", lanes.kernel)
		}
		coords := make([][]int, lanes.elements)
		for i := range coords {
			coords[i] = []int{i}
		}
		li := kd.LocalIndex(lanes.local)
		whole := func(ctx *core.Ctx) {
			for name, a := range lanes.whole {
				ctx.SetLocalValue(kd.LocalIndex(name), field.ArrayVal(a))
			}
		}
		// The elements in slices of n, each through one SliceBody call over
		// n lanes or, the runtime's alternative, one Body call per element.
		slices := func(n int, lockstep bool) func(b *testing.B) {
			return func(b *testing.B) {
				ctx := core.NewReusableCtx(kd, nil, io.Discard)
				for i := 0; i < b.N; i++ {
					for first := 0; first < lanes.elements; first += n {
						k := min(n, lanes.elements-first)
						if !lockstep {
							for e := first; e < first+k; e++ {
								ctx.Reset(0, coords[e])
								whole(ctx)
								ctx.SetLocalValue(li, lanes.value(e))
								if err := kd.Body(ctx); err != nil {
									b.Fatal(err)
								}
							}
							continue
						}
						ctx.Reset(0, nil)
						ctx.Lanes(k)
						whole(ctx)
						for l := 0; l < k; l++ {
							ctx.CoordCol(0)[l] = int64(first + l)
							ctx.SetLaneValue(li, l, lanes.value(first+l))
						}
						if !kd.SliceBody(ctx, k) {
							b.Fatal("the slice body declined")
						}
					}
				}
			}
		}
		b.Run("lanes", slices(64, true))
		// The two sides of the runtime's choice where it is closest: slices
		// of the kernel's SliceMin in lockstep, and one instance at a time.
		b.Run("lanes-min", slices(kd.SliceMin, true))
		b.Run("rows", slices(kd.SliceMin, false))
	}
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchLangSink = native()
		}
	})
}

func BenchmarkLangMulSum(b *testing.B) {
	benchLangBody(b, benchLangMulSumSrc, "calc", func() int64 {
		var r [512]int32
		for i := range r {
			r[i] = int32(i + 10)
		}
		for it := 0; it < 50; it++ {
			for i := range r {
				r[i] = r[i]*2 + 5
			}
		}
		return int64(r[0])
	}, &benchLangLanes{kernel: "calc1", elements: 512, local: "v", value: func(i int) field.Value {
		return field.Int32Val(int32(i + 10))
	}})
}

func BenchmarkLangKMeans(b *testing.B) {
	benchLangBody(b, benchLangKMeansSrc, "assign", func() int64 {
		var cx [32]float64
		for c := range cx {
			cx[c] = float64(c) * 0.5
		}
		var best [256]float64
		for p := 0; p < 256; p++ {
			px := float64(p) * 0.37
			bd := 1000000.0
			for c := 0; c < 32; c++ {
				d := px - cx[c]
				d = d * d
				if d < bd {
					bd = d
				}
			}
			best[p] = bd
		}
		return int64(best[255])
	}, &benchLangLanes{kernel: "assign1", elements: 256, local: "px", value: func(p int) field.Value {
		return field.Float64Val(float64(p) * 0.37)
	}, whole: map[string]*field.Array{"cx": benchLangCx}})
}

// benchLangCx is what assign1 fetches whole: the centroids assign builds.
var benchLangCx = func() *field.Array {
	cx := field.NewArray(field.Float64, 32)
	v := cx.Float64s()
	for c := range v {
		v[c] = float64(c) * 0.5
	}
	return cx
}()

func BenchmarkLangWavefront(b *testing.B) {
	benchLangBody(b, benchLangWavefrontSrc, "predict", func() int64 {
		var p [34][34]int32
		for x := 0; x < 34; x++ {
			p[x][0] = 1
		}
		for y := 0; y < 34; y++ {
			p[0][y] = 1
		}
		for x := 1; x < 34; x++ {
			for y := 1; y < 34; y++ {
				left, up, diag := p[x-1][y], p[x][y-1], p[x-1][y-1]
				m := left
				if up < m {
					m = up
				}
				p[x][y] = (left+up+diag)%255 + m
			}
		}
		return int64(p[33][33])
	}, nil)
}
