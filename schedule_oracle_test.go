package p2g

// Schedule oracle suite: P2G's semantics — write-once fields, monotone ages,
// deterministic kernels — make every schedule produce the same result, so each
// seeded draw of worker count, analyzer shard count and forced granularity is
// held against an independent sequential oracle (the mul/sum closed form,
// kmeans.Sequential, the baseline mjpeg.Encoder stream) and against the
// closed-form per-kernel instance and store counts. Comparing two engines
// with each other would pass a bug they share; an oracle does not. Run under
// -race, this doubles as a concurrency stress of the stealing deques, batched
// event flushes, per-shard mailboxes, cross-shard completion routing and the
// two-phase quiescence protocol.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/mjpeg"
	"repro/internal/runtime"
	"repro/internal/video"
	"repro/internal/workloads"
)

// fieldFingerprint renders field generations 0..maxAge deterministically.
func fieldFingerprint(t *testing.T, n *runtime.Node, name string, maxAge int) string {
	t.Helper()
	var sb strings.Builder
	for age := 0; age <= maxAge; age++ {
		arr, err := n.Snapshot(name, age)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s(%d)=%s\n", name, age, arr.String())
	}
	return sb.String()
}

// reportFingerprint renders per-kernel instance and store counts.
func reportFingerprint(rep *runtime.Report) string {
	var sb strings.Builder
	for _, k := range rep.Kernels {
		fmt.Fprintf(&sb, "%s: %d insts, %d stores\n", k.Name, k.Instances, k.StoreOps)
	}
	return sb.String()
}

// drawStream is one seeded stream of configurations. Within a round the draw
// order is workers, granularity (where the workload forces one), shard count,
// then the workload's own parameters.
type drawStream struct {
	seed int64
	// minShards is the least shard count the stream draws (up to 6); zero
	// means it draws none and one shard runs — the paper's single analyzer
	// thread — so every workload sees one shard and several.
	minShards int
}

func (s drawStream) shards(rng *rand.Rand) int {
	if s.minShards == 0 {
		return 1
	}
	return s.minShards + rng.Intn(7-s.minShards)
}

// kernelCounts is the closed-form expectation of one kernel: instances
// dispatched and store statements fired.
type kernelCounts struct{ insts, stores int64 }

// runDraw runs prog to quiescence under one drawn configuration and checks
// what every workload shares: nothing stalled, the requested shard count ran,
// and every kernel's instance and store count equals its closed form.
func runDraw(t *testing.T, prog *Program, opts runtime.Options, want map[string]kernelCounts) *runtime.Node {
	t.Helper()
	opts.Output = io.Discard
	n, err := runtime.NewNode(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	if rep.AnalyzerShards != opts.AnalyzerShards {
		t.Fatalf("report shows %d shards, want %d", rep.AnalyzerShards, opts.AnalyzerShards)
	}
	if len(rep.Kernels) != len(want) {
		t.Fatalf("report has %d kernels, want %d:\n%s", len(rep.Kernels), len(want), reportFingerprint(rep))
	}
	for _, k := range rep.Kernels {
		if w := want[k.Name]; k.Instances != w.insts || k.StoreOps != w.stores {
			t.Errorf("kernel %s: %d insts, %d stores; want %d, %d", k.Name, k.Instances, k.StoreOps, w.insts, w.stores)
		}
	}
	return n
}

// snapshotOf returns a copy of one field generation of a finished node.
func snapshotOf(t *testing.T, n *runtime.Node, name string, age int) *field.Array {
	t.Helper()
	arr, err := n.Snapshot(name, age)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestScheduleOracleMulSum(t *testing.T) {
	for _, s := range []drawStream{{seed: 1}, {seed: 21, minShards: 1}} {
		rng := rand.New(rand.NewSource(s.seed))
		for round := 0; round < 4; round++ {
			workers := 1 + rng.Intn(8)
			gran := 1 + rng.Intn(3)
			shards := s.shards(rng)
			maxAge := 10 + rng.Intn(11)
			t.Run(fmt.Sprintf("seed=%d/round=%d/workers=%d/gran=%d/shards=%d/maxAge=%d", s.seed, round, workers, gran, shards, maxAge), func(t *testing.T) {
				ages := int64(maxAge + 1)
				n := runDraw(t, MulSum(), runtime.Options{
					Workers:        workers,
					MaxAge:         maxAge,
					AnalyzerShards: shards,
					Granularity:    map[string]int{"mul2": gran},
				}, map[string]kernelCounts{
					"init":  {1, 1},
					"mul2":  {5 * ages, 5 * ages},
					"plus5": {5 * ages, 5 * ages},
					"print": {ages, 0},
				})
				// Closed form: m(0) = 10..14, p(a) = 2·m(a), m(a+1) = p(a)+5,
				// in wrapping int32 arithmetic like the kernels'.
				m := []int32{10, 11, 12, 13, 14}
				p := make([]int32, len(m))
				for age := 0; age <= maxAge; age++ {
					if got := snapshotOf(t, n, "m_data", age); !got.Equal(field.ArrayFromInt32(m)) {
						t.Fatalf("m_data(%d) = %v, want %v", age, got, m)
					}
					for i, v := range m {
						p[i] = v * 2
						m[i] = p[i] + 5
					}
					if got := snapshotOf(t, n, "p_data", age); !got.Equal(field.ArrayFromInt32(p)) {
						t.Fatalf("p_data(%d) = %v, want %v", age, got, p)
					}
				}
			})
		}
	}
}

func TestScheduleOracleMJPEG(t *testing.T) {
	const frames, w, h = 2, 32, 32
	var oracle bytes.Buffer
	if _, err := (&mjpeg.Encoder{FastDCT: true}).EncodeStream(video.NewSynthetic(w, h, frames, 7), &oracle); err != nil {
		t.Fatal(err)
	}
	luma, chroma := int64(frames*mjpeg.NumBlocks(w, h)), int64(frames*mjpeg.NumBlocks(w/2, h/2))
	want := map[string]kernelCounts{
		"init":          {1, 1},
		"read_splityuv": {frames + 1, 4 * frames}, // the end-of-stream instance stores nothing
		"yDCT":          {luma, luma},
		"uDCT":          {chroma, chroma},
		"vDCT":          {chroma, chroma},
		"vlc_write":     {frames + 1, 2 * frames}, // likewise the extra, empty VLC instance
	}
	for _, s := range []drawStream{{seed: 2}, {seed: 22, minShards: 2}} {
		rng := rand.New(rand.NewSource(s.seed))
		for round := 0; round < 2; round++ {
			workers := 1 + rng.Intn(8)
			shards := s.shards(rng)
			t.Run(fmt.Sprintf("seed=%d/round=%d/workers=%d/shards=%d", s.seed, round, workers, shards), func(t *testing.T) {
				prog := workloads.MJPEG(workloads.MJPEGConfig{
					Source:  video.NewSynthetic(w, h, frames, 7),
					FastDCT: true,
				})
				n := runDraw(t, prog, runtime.Options{Workers: workers, AnalyzerShards: shards}, want)
				got, err := workloads.MJPEGStream(n, frames)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, oracle.Bytes()) {
					t.Fatalf("encoded stream (%d bytes) differs from the baseline encoder's (%d bytes)", len(got), oracle.Len())
				}
			})
		}
	}
}

func TestScheduleOracleKMeans(t *testing.T) {
	cfg := workloads.KMeansConfig{N: 120, K: 8, Iter: 3, Dim: 2, Seed: 7}
	points := kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed)
	// centroids(it) and membership(it-1) are what `it` sequential iterations
	// leave behind; centroids(0) is the shared initial pick.
	centroids := [][]kmeans.Point{kmeans.InitialCentroids(points, cfg.K)}
	var membership [][]int
	for it := 1; it <= cfg.Iter; it++ {
		res := kmeans.Sequential(points, cfg.K, it)
		centroids = append(centroids, res.Centroids)
		membership = append(membership, res.Membership)
	}
	want := map[string]kernelCounts{
		"init":   {1, 2},
		"assign": {int64(cfg.N * cfg.Iter), int64(cfg.N * cfg.Iter)},
		"refine": {int64(cfg.K * cfg.Iter), int64(cfg.K * cfg.Iter)},
		"print":  {int64(cfg.Iter + 1), 0},
	}
	for _, s := range []drawStream{{seed: 3}, {seed: 23, minShards: 2}} {
		rng := rand.New(rand.NewSource(s.seed))
		for round := 0; round < 2; round++ {
			workers := 1 + rng.Intn(8)
			gran := 1 + rng.Intn(16)
			shards := s.shards(rng)
			t.Run(fmt.Sprintf("seed=%d/round=%d/workers=%d/gran=%d/shards=%d", s.seed, round, workers, gran, shards), func(t *testing.T) {
				opts := workloads.KMeansOptions(cfg, workers)
				opts.AnalyzerShards = shards
				opts.Granularity = map[string]int{"assign": gran}
				n := runDraw(t, workloads.KMeans(cfg), opts, want)
				for it, cents := range centroids {
					got := workloads.CentroidPoints(snapshotOf(t, n, "centroids", it))
					if len(got) != len(cents) {
						t.Fatalf("centroids(%d) holds %d clusters, want %d", it, len(got), len(cents))
					}
					for c := range cents {
						for d := range cents[c] {
							if math.Float64bits(got[c][d]) != math.Float64bits(cents[c][d]) {
								t.Fatalf("centroids(%d)[%d] = %v, sequential %v", it, c, got[c], cents[c])
							}
						}
					}
				}
				for it, ms := range membership {
					got := snapshotOf(t, n, "membership", it).Int32s()
					if len(got) != len(ms) {
						t.Fatalf("membership(%d) holds %d points, want %d", it, len(got), len(ms))
					}
					for i := range ms {
						if int(got[i]) != ms[i] {
							t.Fatalf("membership(%d)[%d] = %d, sequential %d", it, i, got[i], ms[i])
						}
					}
				}
			})
		}
	}
}
