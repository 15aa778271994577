package dist

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
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

// observedConn hands every message the master receives to observe before the
// master sees it.
type observedConn struct {
	Conn
	observe func(*Msg)
}

func (c observedConn) Recv() (*Msg, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.observe(m)
	}
	return m, err
}

// runSplit runs mk's program over one in-process worker per entry of cores,
// with that many cores each; tweak adjusts every worker's configuration and
// observe (when set) sees each message the master receives with the index of
// the worker that sent it. A run that does not finish within a minute fails
// the test; the idle timeouts are only a backstop behind that.
func runSplit(t *testing.T, mk func() *core.Program, cores []int, tweak func(*WorkerConfig), observe func(int, *Msg)) *MasterResult {
	t.Helper()
	masterConns := make([]Conn, len(cores))
	errs := make(chan error, len(cores))
	for i, c := range cores {
		var wc Conn
		masterConns[i], wc = InprocPipe()
		if observe != nil {
			masterConns[i] = observedConn{masterConns[i], func(m *Msg) { observe(i, m) }}
		}
		cfg := WorkerConfig{NodeID: fmt.Sprintf("w%d", i), Cores: c, Prog: mk(), Output: io.Discard, IdleTimeout: 30 * time.Second}
		if tweak != nil {
			tweak(&cfg)
		}
		go func() {
			_, err := RunWorker(cfg, wc)
			errs <- err
		}()
	}
	type result struct {
		res *MasterResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := RunMaster(MasterConfig{Prog: mk(), IdleTimeout: 30 * time.Second}, masterConns)
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		for range cores {
			if err := <-errs; err != nil {
				t.Fatalf("worker: %v", err)
			}
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.res
	case <-time.After(time.Minute):
		t.Fatal("distributed run did not finish")
	}
	return nil
}

// TestShareOwnership: the index shares of a split cover every instance of a
// rank-1 and a rank-2 index domain exactly once; workers of equal capacity
// own outermost-index counts that differ by at most one granule, and every
// worker's count is its capacity's proportion of the domain to within a
// granule per unit of its share weight.
func TestShareOwnership(t *testing.T) {
	const n1, n2, inner = 1000, 300, 3
	type inst struct {
		kernel string
		x, y   int
	}
	var mu sync.Mutex
	seen := map[inst]int{} // instance → how many workers ran it
	outer := map[string]map[int]bool{}
	var who string
	record := func(kernel string, x, y int) {
		mu.Lock()
		defer mu.Unlock()
		seen[inst{kernel, x, y}]++
		if outer[who] == nil {
			outer[who] = map[int]bool{}
		}
		outer[who][x] = true
	}
	prog := func() *core.Program {
		b := core.NewBuilder("ownership")
		b.Field("d1", field.Int32, 1, true)
		b.Field("d2", field.Int32, 2, true)
		b.Kernel("init").
			Local("a", field.Int32, 1).
			Local("b", field.Int32, 2).
			StoreAll("d1", core.AgeAt(0), "a").
			StoreAll("d2", core.AgeAt(0), "b").
			Body(func(c *core.Ctx) error {
				c.Array("a").Grow(n1)
				c.Array("b").Grow(n2, inner)
				return nil
			})
		b.Kernel("rank1").Index("x").
			Local("v", field.Int32, 0).
			Fetch("v", "d1", core.AgeAt(0), core.Idx("x")).
			Body(func(c *core.Ctx) error {
				record("rank1", c.Index("x"), 0)
				return nil
			})
		b.Kernel("rank2").Index("x").Index("y").
			Local("v", field.Int32, 0).
			Fetch("v", "d2", core.AgeAt(0), core.Idx("x"), core.Idx("y")).
			Body(func(c *core.Ctx) error {
				record("rank2", c.Index("x"), c.Index("y"))
				return nil
			})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, cores := range [][]int{{2}, {1, 2}, {2, 2}, {1, 2, 3}, {3, 3, 1}, {2, 2, 2}} {
		t.Run(fmt.Sprint(cores), func(t *testing.T) {
			clear(seen)
			clear(outer)
			caps := make([]float64, len(cores))
			for i, c := range cores {
				caps[i] = float64(c)
			}
			weights := shareWeights(caps)
			for i := range cores {
				who = fmt.Sprint(i)
				_, err := runtime.Run(prog(), runtime.Options{
					Workers: 2,
					Shares:  &runtime.Shares{Weights: weights, Own: []int{i}},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if want := n1 + n2*inner; len(seen) != want {
				t.Fatalf("%d distinct instances ran, want %d", len(seen), want)
			}
			for in, k := range seen {
				if k != 1 {
					t.Fatalf("instance %v ran on %d workers", in, k)
				}
			}
			total := 0
			for _, w := range weights {
				total += w
			}
			for i := range cores {
				for j := range cores {
					di, dj := len(outer[fmt.Sprint(i)]), len(outer[fmt.Sprint(j)])
					if cores[i] == cores[j] && (di-dj > runtime.ShareGranule || dj-di > runtime.ShareGranule) {
						t.Errorf("equal workers %d and %d own %d and %d outer indices", i, j, di, dj)
					}
				}
				// rank1's outer domain is the larger, and covers rank2's.
				want := float64(n1*weights[i]) / float64(total)
				if got := float64(len(outer[fmt.Sprint(i)])); math.Abs(got-want) > float64(runtime.ShareGranule*(weights[i]+1)) {
					t.Errorf("worker %d (weight %d of %d) owns %v outer indices, want about %.0f", i, weights[i], total, got, want)
				}
			}
		})
	}
}

// TestSplitKernelsBitIdentical: MJPEG and K-means split over one, two and
// three in-process workers with unequal cores produce exactly the sequential
// oracles' fields — the baseline encoder's bitstream, kmeans.Sequential's
// centroids and memberships — and every worker sends each generation at most
// once between two flush points (see framesOncePerFlush).
func TestSplitKernelsBitIdentical(t *testing.T) {
	workloads.RegisterPayloads()
	const frames, w, h = 3, 128, 96 // 192 luma blocks: six granules, two chroma
	var oracle bytes.Buffer
	if _, err := (&mjpeg.Encoder{FastDCT: true}).EncodeStream(video.NewSynthetic(w, h, frames, 7), &oracle); err != nil {
		t.Fatal(err)
	}
	kcfg := workloads.KMeansConfig{N: 300, K: 40, Iter: 3, Dim: 2, Seed: 7}
	points := kmeans.Generate(kcfg.N, kcfg.Dim, kcfg.K, kcfg.Seed)
	centroids := [][]kmeans.Point{kmeans.InitialCentroids(points, kcfg.K)}
	var membership [][]int
	for it := 1; it <= kcfg.Iter; it++ {
		res := kmeans.Sequential(points, kcfg.K, it)
		centroids = append(centroids, res.Centroids)
		membership = append(membership, res.Membership)
	}
	for _, cores := range [][]int{{2}, {1, 2}, {1, 2, 3}} {
		t.Run(fmt.Sprintf("mjpeg/cores=%v", cores), func(t *testing.T) {
			observe, check := framesOncePerFlush(t)
			res := runSplit(t, func() *core.Program {
				return workloads.MJPEG(workloads.MJPEGConfig{Source: video.NewSynthetic(w, h, frames, 7), FastDCT: true})
			}, cores, nil, observe)
			check()
			checkShares(t, res, len(cores), "yDCT", "uDCT", "vDCT")
			got, err := workloads.MJPEGStream(res.Shadow, frames)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracle.Bytes()) {
				t.Fatalf("bitstream (%d bytes) differs from the baseline encoder's (%d bytes)", len(got), oracle.Len())
			}
		})
		t.Run(fmt.Sprintf("kmeans/cores=%v", cores), func(t *testing.T) {
			observe, check := framesOncePerFlush(t)
			res := runSplit(t, func() *core.Program { return workloads.KMeans(kcfg) }, cores, func(c *WorkerConfig) {
				c.KernelMaxAge = workloads.KMeansOptions(kcfg, 1).KernelMaxAge
			}, observe)
			check()
			checkShares(t, res, len(cores), "assign", "refine")
			for it, cents := range centroids {
				s, err := res.Shadow.Snapshot("centroids", it)
				if err != nil {
					t.Fatal(err)
				}
				got := workloads.CentroidPoints(s)
				for c := range cents {
					for d := range cents[c] {
						if len(got) != len(cents) || math.Float64bits(got[c][d]) != math.Float64bits(cents[c][d]) {
							t.Fatalf("centroids(%d)[%d] = %v, sequential %v", it, c, got, cents[c])
						}
					}
				}
			}
			for it, ms := range membership {
				s, err := res.Shadow.Snapshot("membership", it)
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Int32s(); !slices.Equal(got, int32s(ms)) {
					t.Fatalf("membership(%d) = %v, sequential %v", it, got, ms)
				}
			}
		})
	}
}

// framesOncePerFlush returns a runSplit observer and its check: a worker's
// stores leave only at flush points — before an MDone, before the MStatus
// answering a ping — as one frame per generation, so no (field, age) may
// arrive twice from one worker without an MDone or MStatus from it between.
func framesOncePerFlush(t *testing.T) (observe func(int, *Msg), check func()) {
	var mu sync.Mutex
	pending := map[int]map[genKey]bool{} // worker → generations since its last flush point
	frames := 0
	var twice []string
	observe = func(w int, m *Msg) {
		mu.Lock()
		defer mu.Unlock()
		switch m.Kind {
		case MDone, MStatus:
			clear(pending[w])
		case MStoreFrame:
			frames++
			k := genKey{m.Field, m.Age}
			if pending[w] == nil {
				pending[w] = map[genKey]bool{}
			}
			if pending[w][k] {
				twice = append(twice, fmt.Sprintf("worker %d: %s(%d)", w, m.Field, m.Age))
			}
			pending[w][k] = true
		}
	}
	check = func() {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if frames == 0 {
			t.Fatal("no store frame reached the master")
		}
		if len(twice) > 0 {
			t.Errorf("%d of %d frames repeat a generation within one flush, first %v", len(twice), frames, twice[:min(len(twice), 5)])
		}
	}
	return observe, check
}

func int32s(v []int) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = int32(x)
	}
	return out
}

// checkShares asserts the named kernels ran split into one share per worker,
// each owned by the worker it was cut for — or whole, on a single worker.
func checkShares(t *testing.T, res *MasterResult, workers int, kernels ...string) {
	t.Helper()
	for _, k := range kernels {
		if workers == 1 {
			if _, ok := res.Assignment[k]; !ok || len(res.Shares) != 0 {
				t.Errorf("one worker: %s not placed whole (assignment %v, shares %v)", k, res.Assignment, res.Shares)
			}
			continue
		}
		ids := res.Shares[k]
		if len(ids) != workers {
			t.Fatalf("%s split into %v, want %d shares", k, ids, workers)
		}
		for s, id := range ids {
			if id != fmt.Sprintf("w%d", s) {
				t.Errorf("%s share %d owned by %s", k, s, id)
			}
		}
	}
}

// TestFailoverSplitShareMJPEG kills the worker holding yDCT's second share in
// the middle of an MJPEG run over TCP: the survivor takes the share over
// whole and runs both, and the bitstream stays bit-identical to the
// single-node encoder's.
func TestFailoverSplitShareMJPEG(t *testing.T) {
	workloads.RegisterPayloads()
	const frames, w, h = 6, 128, 96
	var baseline bytes.Buffer
	if _, err := (&mjpeg.Encoder{Quality: 70}).EncodeStream(video.NewSynthetic(w, h, frames, 4), &baseline); err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf("mjpeg:frames=%d,w=%d,h=%d,quality=70,seed=4", frames, w, h)
	// tcp1 owns share 1 of every split kernel; it dies at its 30th send,
	// past registration and well into the stream of stores and completions.
	res, err := distMJPEGFailover(t, spec, 30, true)
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != "tcp1" {
		t.Fatalf("DeadWorkers = %v, want [tcp1]", res.DeadWorkers)
	}
	if got := res.Shares["yDCT"]; !slices.Equal(got, []string{"tcp0", "tcp0"}) {
		t.Errorf("yDCT shares after failover = %v, want both on tcp0", got)
	}
	if got, want := res.Reports["tcp0"].Kernel("yDCT").Instances, int64(frames*mjpeg.NumBlocks(w, h)); got != want {
		t.Errorf("survivor ran %d yDCT instances in its rebuilt node, want every one of %d", got, want)
	}
	stream, err := workloads.MJPEGStream(res.Shadow, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, baseline.Bytes()) {
		t.Errorf("failover bitstream (%d bytes) differs from baseline (%d bytes)", len(stream), baseline.Len())
	}
}

// pacedProgram is a source whose every age stores lens(a) elements into f,
// and a slow split consumer k that fetches f at age offset off, element by
// element, and stores double the value into g. The source logs the start of
// each age it runs to log; it stops at age stop.
func pacedProgram(off, stop int, lens func(a int) int, log func(age int)) *core.Program {
	b := core.NewBuilder("paced")
	b.Field("f", field.Int32, 1, true)
	b.Field("g", field.Int32, 1, true)
	b.Kernel("src").Age("a").
		Local("v", field.Int32, 1).
		StoreAll("f", core.AgeVar(0), "v").
		Body(func(c *core.Ctx) error {
			if c.Age() == stop {
				c.Stop()
				return nil
			}
			log(c.Age())
			v := c.Array("v")
			v.Grow(lens(c.Age()))
			for i := range v.Int32s() {
				v.Int32s()[i] = int32(1000*c.Age() + i)
			}
			return nil
		})
	b.Kernel("k").Age("a").Index("x").
		Local("v", field.Int32, 0).
		Fetch("v", "f", core.AgeVar(off), core.Idx("x")).
		Store("g", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "v").
		Body(func(c *core.Ctx) error {
			time.Sleep(20 * time.Microsecond)
			c.SetInt32("v", 2*c.Int32("v"))
			return nil
		})
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// TestPacingLiveness runs a paced source against a split consumer on two
// workers wherever liveness is at stake — a consumer fetching at an age
// offset either way, one bounded by KernelMaxAge, one whose index domain is
// empty at some age. Every run finishes with the fields of a single-node run,
// and the pacing bound holds throughout: the source never starts age a+1
// before the consumer's remote share has reported the age that consumes its
// age a done (the consumer age the source waits for).
func TestPacingLiveness(t *testing.T) {
	const stop = 8
	grow := func(a int) int { return 40 + 10*a } // two granules and more
	for _, tc := range []struct {
		name  string
		off   int
		bound int // KernelMaxAge of k; 0: none
		lens  func(int) int
	}{
		{"same-age", 0, 0, grow},
		{"fetch-previous-age", -1, 0, grow},
		{"fetch-two-ages-back", -2, 0, grow},
		{"kernel-max-age", 0, 2, grow},
		{"empty-domain", 0, 0, func(a int) int {
			if a == 3 {
				return 0
			}
			return grow(a)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type entry struct {
				start       bool
				worker, age int
			}
			var mu sync.Mutex
			var log []entry
			mk := func() *core.Program {
				return pacedProgram(tc.off, stop, tc.lens, func(a int) {
					mu.Lock()
					log = append(log, entry{start: true, age: a})
					mu.Unlock()
				})
			}
			var bounds map[string]int
			if tc.bound > 0 {
				bounds = map[string]int{"k": tc.bound}
			}
			res := runSplit(t, mk, []int{1, 1}, func(c *WorkerConfig) { c.KernelMaxAge = bounds }, func(worker int, m *Msg) {
				if m.Kind == MDone && m.Kernel == "k" {
					mu.Lock()
					log = append(log, entry{worker: worker, age: m.Age})
					mu.Unlock()
				}
			})
			ref, err := runtime.NewNode(pacedProgram(tc.off, stop, tc.lens, func(int) {}), runtime.Options{Workers: 2, KernelMaxAge: bounds})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			for a := 0; a <= stop+1; a++ {
				for _, f := range []string{"f", "g"} {
					want, _ := ref.Snapshot(f, a)
					got, err := res.Shadow.Snapshot(f, a)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s(%d) = %v, single node %v", f, a, got, want)
					}
				}
			}
			// The bound. The source's worker runs one share of k, the other
			// worker the remote one; k at age c consumes the source's age
			// c+off, so starting age a+1 waits for k(a-off) — unless k never
			// runs at that age.
			srcWorker := res.Assignment["src"]
			remote := 1 - srcWorker
			mu.Lock()
			defer mu.Unlock()
			starts := 0
			for i, e := range log {
				if !e.start || e.age == 0 {
					continue
				}
				starts++
				c := e.age - 1 - tc.off
				if c < 0 || tc.bound > 0 && c > tc.bound {
					continue
				}
				if !slices.Contains(log[:i], entry{worker: remote, age: c}) {
					t.Fatalf("source started age %d before worker %d reported k(%d) done; log %v", e.age, remote, c, log)
				}
			}
			if starts != stop-1 {
				t.Fatalf("source started %d ages after the first, want %d", starts, stop-1)
			}
		})
	}
}

// TestPingFlushKeepsSplitKernelLive: the shares of a split kernel whose
// instances depend on each other within one age. The wavefront's predict(x,
// y) needs predict(x−1, y) and predict(x, y−1) of its own age, and spans four
// granules along x over two workers, so each worker's share waits on the
// other's stores — granule 1 on granule 0, granule 2 on granule 1 — before
// its kernel-age can complete and flush before its MDone. Only the flush on
// each ping moves those stores. The fields match a single-node run's bit for
// bit.
func TestPingFlushKeepsSplitKernelLive(t *testing.T) {
	cfg := workloads.WavefrontConfig{Blocks: 3*runtime.ShareGranule + 4, Frames: 2, Seed: 3}
	res := runSplit(t, func() *core.Program { return workloads.Wavefront(cfg) }, []int{1, 1}, nil, nil)
	checkShares(t, res, 2, "predict")
	ref, err := runtime.NewNode(workloads.Wavefront(cfg), runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < cfg.Frames; a++ {
		for _, f := range []string{"input", "pred"} {
			want, err := ref.Snapshot(f, a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Shadow.Snapshot(f, a)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s(%d) differs from the single-node run's", f, a)
			}
		}
	}
}
