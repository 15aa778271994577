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
	"os"
	"testing"

	"repro/internal/lang"
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

// TestSliceEquivalenceKMeansCompiled is the same sweep over testdata/kmeans.p2g,
// whose assign and refine bodies are bytecode with a slice body: a forced size
// of 4096 puts an age's 60 assign instances through the lockstep path as one
// slice, sizes 1, 3 and 7 (below assign's minimum of 12) and the reference
// through the scalar VM, and the centroids and memberships must not tell.
// refine has four instances, too few for lockstep at any size; its slice body
// is compared with the scalar VM lane by lane in internal/lang (checkLanes).
func TestSliceEquivalenceKMeansCompiled(t *testing.T) {
	src, err := os.ReadFile("testdata/kmeans.p2g")
	if err != nil {
		t.Fatal(err)
	}
	const iter = 4
	prog := func() *Program {
		p, err := lang.Compile("kmeans.p2g", string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"assign", "refine"} {
			if p.Kernel(name).SliceBody == nil {
				t.Fatalf("kernel %s has no slice body", name)
			}
		}
		return p
	}
	opts := runtime.Options{KernelMaxAge: map[string]int{"assign": iter, "refine": iter, "print": iter + 1}}
	sweepSlices(t, prog, opts, func(n *runtime.Node) string {
		return fieldFingerprint(t, n, "centroids", iter+1) + fieldFingerprint(t, n, "membership", iter)
	})
}

// TestSliceEquivalenceSlabPassThrough: a compiled kernel that stores the slab
// it fetched without touching it. Its instances each need their own slab, so
// it must take the per-instance path at every slice size: in lockstep, where
// the rows of a slice share the one array of a local, every row of out would
// be the slab of the slice's last instance.
func TestSliceEquivalenceSlabPassThrough(t *testing.T) {
	const src = `int32[][] frames;
int32[][] out;
init:
  local int32[][] f;
  %{ for (int r = 0; r < 150; ++r) { for (int c = 0; c < 3; ++c) { put(f, r * 10 + c, r, c); } } %}
  store frames(0) = f;
copy:
  index b;
  local int32[] blk;
  fetch blk = frames(0)[b][];
  %{ %}
  store out(0)[b][] = blk;
`
	prog := func() *Program {
		p, err := lang.Compile("slabcopy.p2g", src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sweepSlices(t, prog, runtime.Options{}, func(n *runtime.Node) string {
		got := fieldFingerprint(t, n, "out", 0)
		// The reference is compared with its own input too, not just with
		// the other cases.
		if want := "out" + fieldFingerprint(t, n, "frames", 0)[len("frames"):]; got != want {
			t.Fatalf("out is not a copy of frames:\n%.400s\nwant:\n%.400s", got, want)
		}
		return got
	})
}
