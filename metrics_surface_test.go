package p2g

// The scheduler metrics (ready-queue depth, event batches, per-kernel slice
// counts) must surface through a caller-supplied
// registry — that is what /metricz dumps — not only through the final report.

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/video"
	"repro/internal/workloads"
)

func TestSchedulerMetricsSurfaceInRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := runtime.NewNode(MulSum(), runtime.Options{
		Workers: 3,
		MaxAge:  8,
		Metrics: reg,
		Output:  io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	for _, name := range []string{
		obs.MReadyQueueDepth,
		obs.MEventBatchesTotal,
		obs.Label(obs.MKernelSlices, "kernel", "mul2"),
		obs.Label(obs.MKernelSlices, "kernel", "print"),
		obs.Label(obs.MKernelLockstep, "kernel", "mul2"),
		obs.Label(obs.MKernelDeclined, "kernel", "mul2"),
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("registry dump missing %q; dump:\n%s", name, dump)
		}
	}
}

// TestSlicesKeepPerInstanceObservability: with a registry and a tracer
// attached, instances combined into slices are still stamped one by one —
// every instance lands in its kernel's stage histograms and gets its own
// span — while the slice counter shows that combining happened. MJPEG and
// K-means are the two workloads whose stage attribution the benchmark
// ledger reports.
func TestSlicesKeepPerInstanceObservability(t *testing.T) {
	kmCfg := workloads.KMeansConfig{N: 400, K: 10, Iter: 3, Dim: 2, Seed: 7}
	src, err := os.ReadFile("testdata/kmeans.p2g")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := lang.Compile("kmeans.p2g", string(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		prog     *Program
		opts     runtime.Options
		combined string // a kernel cheap and wide enough to be combined
		lockstep bool   // ... and compiled with a slice body, which must have run
	}{
		{"kmeans", workloads.KMeans(kmCfg), workloads.KMeansOptions(kmCfg, 2), "assign", false},
		{"mjpeg", workloads.MJPEG(workloads.MJPEGConfig{Source: video.NewSynthetic(64, 48, 2, 7), FastDCT: true}), runtime.Options{Workers: 2}, "", false},
		{"kmeans.p2g", compiled, runtime.Options{Workers: 2, KernelMaxAge: map[string]int{"assign": 3, "refine": 3, "print": 4},
			Granularity: map[string]int{"assign": 16}}, "assign", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(obs.DefaultTraceCapacity)
			tc.opts.Metrics, tc.opts.Tracer, tc.opts.Output = reg, tracer, io.Discard
			rep, err := runtime.Run(tc.prog, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stages == nil || rep.Stages.ExecNs <= 0 {
				t.Fatalf("no stage attribution: %+v", rep.Stages)
			}
			snap := reg.Snapshot()
			spans := map[string]int64{}
			for _, sp := range tracer.Spans() {
				if sp.Cat == "kernel" {
					spans[sp.Name]++
				}
			}
			for _, k := range rep.Kernels {
				if k.Slices < 1 || k.Slices > k.Instances {
					t.Errorf("%s: %d slices for %d instances", k.Name, k.Slices, k.Instances)
				}
				if got := snap.Counters[obs.Label(obs.MKernelSlices, "kernel", k.Name)]; got != k.Slices {
					t.Errorf("%s: registry counts %d slices, report %d", k.Name, got, k.Slices)
				}
				for _, stage := range []string{obs.MStageFetchNs, obs.MStageExecNs, obs.MStageStoreNs, obs.MStageQueueWaitNs} {
					if got := snap.Histograms[obs.Label(stage, "kernel", k.Name)].Count; got != k.Instances {
						t.Errorf("%s: %s holds %d samples for %d instances", k.Name, stage, got, k.Instances)
					}
				}
				if spans[k.Name] != k.Instances {
					t.Errorf("%s: %d spans for %d instances", k.Name, spans[k.Name], k.Instances)
				}
			}
			if tc.combined != "" {
				// Some, not a factor: the first age runs one instance per
				// slice, and race instrumentation makes instances dear.
				k := rep.Kernel(tc.combined)
				if k.Slices >= k.Instances {
					t.Errorf("%s: %d instances in %d slices, expected combining", k.Name, k.Instances, k.Slices)
				}
				if got := snap.Counters[obs.Label(obs.MKernelLockstep, "kernel", k.Name)]; got != k.Lockstep || tc.lockstep != (got > 0) {
					t.Errorf("%s: registry counts %d instances in lockstep, report %d, slice body %v", k.Name, got, k.Lockstep, tc.lockstep)
				}
				if got := snap.Counters[obs.Label(obs.MKernelDeclined, "kernel", k.Name)]; got != 0 || k.Declined != 0 {
					t.Errorf("%s: the slice body declined %d instances (report %d) in a run without faults", k.Name, got, k.Declined)
				}
			}
		})
	}
}
