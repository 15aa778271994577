package p2g

// Slice equivalence stress: how the low-level scheduler combines instances
// into slices must be unobservable in the results. Each workload runs once as
// the reference — one worker, one shard, every kernel forced to one instance
// per slice — and then under the scheduler's own sizing rule and under forced
// sizes (one, primes that divide no domain, more than any domain) across
// worker and shard counts. Field contents must be bit-identical, encoded
// streams byte-identical, and per-kernel instance and store counts equal.
// Run under -race, this doubles as a concurrency stress of per-slice pins,
// batched stores and slice-carrying done events.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/runtime"
	"repro/internal/video"
	"repro/internal/workloads"
)

// sliceCase is one configuration of the sweep; size 0 leaves every kernel to
// the default sizing rule.
type sliceCase struct{ size, workers, shards int }

func (c sliceCase) String() string {
	return fmt.Sprintf("size=%d/workers=%d/shards=%d", c.size, c.workers, c.shards)
}

func sliceCases() []sliceCase {
	var cs []sliceCase
	for _, size := range []int{0, 1, 3, 7, 4096} {
		for _, workers := range []int{1, 3} {
			for _, shards := range []int{1, 2} {
				cs = append(cs, sliceCase{size, workers, shards})
			}
		}
	}
	return cs
}

// runSliced runs prog with every kernel's slice size forced to c.size.
func runSliced(t *testing.T, prog func() *Program, opts runtime.Options, c sliceCase) (*runtime.Node, *runtime.Report) {
	t.Helper()
	p := prog()
	opts.Workers, opts.AnalyzerShards, opts.Output = c.workers, c.shards, io.Discard
	if c.size > 0 {
		opts.Granularity = map[string]int{}
		for _, kd := range p.Kernels {
			opts.Granularity[kd.Name] = c.size
		}
	}
	n, err := runtime.NewNode(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("%v stalled: %v", c, rep.Stalled)
	}
	return n, rep
}

// sweepSlices runs the reference and every case, comparing what fingerprint
// extracts from the finished node plus the per-kernel counts.
func sweepSlices(t *testing.T, prog func() *Program, opts runtime.Options, fingerprint func(*runtime.Node) string) {
	ref, refRep := runSliced(t, prog, opts, sliceCase{size: 1, workers: 1, shards: 1})
	want, wantCounts := fingerprint(ref), reportFingerprint(refRep)
	for _, c := range sliceCases() {
		n, rep := runSliced(t, prog, opts, c)
		if got := fingerprint(n); got != want {
			t.Fatalf("%v: results diverged from the one-instance-per-slice reference:\nwant:\n%.2000s\ngot:\n%.2000s", c, want, got)
		}
		if got := reportFingerprint(rep); got != wantCounts {
			t.Fatalf("%v: counts diverged:\nwant:\n%s\ngot:\n%s", c, wantCounts, got)
		}
	}
}

func TestSliceEquivalenceMulSum(t *testing.T) {
	const maxAge = 12
	sweepSlices(t, MulSum, runtime.Options{MaxAge: maxAge}, func(n *runtime.Node) string {
		return fieldFingerprint(t, n, "m_data", maxAge) + fieldFingerprint(t, n, "p_data", maxAge)
	})
}

func TestSliceEquivalenceMJPEG(t *testing.T) {
	const frames = 2
	prog := func() *Program {
		return workloads.MJPEG(workloads.MJPEGConfig{Source: video.NewSynthetic(48, 32, frames, 7), FastDCT: true})
	}
	sweepSlices(t, prog, runtime.Options{}, func(n *runtime.Node) string {
		stream, err := workloads.MJPEGStream(n, frames)
		if err != nil {
			t.Fatal(err)
		}
		return string(stream)
	})
}

func TestSliceEquivalenceKMeans(t *testing.T) {
	cfg := workloads.KMeansConfig{N: 150, K: 9, Iter: 3, Dim: 2, Seed: 7}
	prog := func() *Program { return workloads.KMeans(cfg) }
	sweepSlices(t, prog, workloads.KMeansOptions(cfg, 1), func(n *runtime.Node) string {
		return fieldFingerprint(t, n, "centroids", cfg.Iter) + fieldFingerprint(t, n, "membership", cfg.Iter-1)
	})
}
