package runtime

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// busyProgram is mulSum's dataflow shape with kernel bodies that spin for a
// known time, so worker-clock stage totals dominate timer overhead and the
// attribution coverage bound is meaningful.
func busyProgram(t testing.TB, spin time.Duration) *core.Program {
	t.Helper()
	b := core.NewBuilder("busy")
	b.Field("m_data", field.Int32, 1, true)
	burn := func(c *core.Ctx) error {
		for from := time.Now(); time.Since(from) < spin; {
		}
		return nil
	}
	b.Kernel("init").
		Local("values", field.Int32, 1).
		StoreAll("m_data", core.AgeAt(0), "values").
		Body(func(c *core.Ctx) error {
			vs := c.Array("values")
			for i := 0; i < 5; i++ {
				vs.Put(field.Int32Val(int32(i)), i)
			}
			return nil
		})
	b.Kernel("work").Age("a").Index("x").
		Local("value", field.Int32, 0).
		Fetch("value", "m_data", core.AgeVar(0), core.Idx("x")).
		Store("m_data", core.AgeVar(1), []core.IndexSpec{core.Idx("x")}, "value").
		Body(burn)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStageAttributionCoverage checks the tentpole acceptance bound: the
// worker-clock stages (fetch, exec, store, idle) attribute nearly all of the
// run's worker-seconds. The worker's stamps tile its time, so the pop and
// the event flush between slices — where a loaded host preempts it, the
// flush having woken the analyzer — count too (see the Coverage doc), and
// the spin keeps per-instance work two orders above timer overhead, so the
// bound holds with other test packages running alongside.
func TestStageAttributionCoverage(t *testing.T) {
	t.Run("per instance", func(t *testing.T) {
		stageCoverage(t, busyProgram(t, 100*time.Microsecond), Options{})
	})
	// The same with the five instances of an age as one slice, run by a slice
	// body: the one body interval is apportioned over the instances.
	t.Run("lockstep", func(t *testing.T) {
		rep := stageCoverage(t, withSliceBody(busyProgram(t, 100*time.Microsecond), "work", nil),
			Options{Granularity: map[string]int{"work": 5}})
		if k := rep.Kernel("work"); k.Lockstep != k.Instances {
			t.Errorf("work: %d of %d instances in lockstep", k.Lockstep, k.Instances)
		}
	})
}

func stageCoverage(t *testing.T, p *core.Program, opts Options) *Report {
	reg := obs.NewRegistry()
	opts.Workers, opts.MaxAge, opts.Output, opts.Metrics = 1, 30, io.Discard, reg
	rep, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stages
	if s == nil {
		t.Fatal("metrics run produced no stage attribution")
	}
	if s.Workers != 1 {
		t.Errorf("Stages.Workers = %d, want 1", s.Workers)
	}
	if s.ExecNs <= 0 || s.IdleNs < 0 || s.FetchNs < 0 || s.StoreNs < 0 {
		t.Errorf("stage totals out of range: %+v", s)
	}
	// 150 instances × 100µs of pure spin must show up as exec time.
	if minExec := int64(10 * time.Millisecond); s.ExecNs < minExec {
		t.Errorf("ExecNs = %v, want ≥ %v", time.Duration(s.ExecNs), time.Duration(minExec))
	}
	cov := s.Coverage(rep.Wall)
	// Race instrumentation slows the unstamped gaps between slices (queue
	// pop, event flush) far more than the spinning bodies, so the bound is
	// looser there.
	low := 0.90
	if raceEnabled {
		low = 0.80
	}
	if cov < low || cov > 1.10 {
		t.Errorf("stage coverage = %.3f of wall×workers, want ~1.0 (stages %+v, wall %v)",
			cov, s, rep.Wall)
	}
	// Instance-clock stages exist and are sane (non-negative).
	if s.ReadyWaitNs < 0 || s.QueueWaitNs < 0 {
		t.Errorf("instance-clock stages negative: ready %d queue %d", s.ReadyWaitNs, s.QueueWaitNs)
	}
	return rep
}

// diagonalMul is mul2 of wideMulSum storing m_data(a)[x]*2 on the diagonal,
// p_data(a)[x][x]: the image of a run of x is no box of p_data, so its
// stores go out one cell each.
func diagonalMul(t testing.TB, width int, _ func(c *core.Ctx) error) *core.Program {
	t.Helper()
	b := core.NewBuilder("diagonal")
	b.Field("m_data", field.Int32, 1, true)
	b.Field("p_data", field.Int32, 2, true)
	b.Kernel("mul2").Age("a").Index("x").
		Local("v", field.Int32, 0).
		Fetch("v", "m_data", core.AgeVar(0), core.Idx("x")).
		Store("p_data", core.AgeVar(0), []core.IndexSpec{core.Idx("x"), core.Idx("x")}, "v").
		Body(func(c *core.Ctx) error {
			c.SetInt32("v", 2*c.Int32("v"))
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStageMetricsSurface checks the per-kernel stage histograms land in the
// shared registry under their documented names, and the idle stage is global.
func TestStageMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := Run(mulSum(t), Options{Workers: 2, MaxAge: 3, Output: io.Discard, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		obs.Label(obs.MStageReadyWaitNs, "kernel", "mul2"),
		obs.Label(obs.MStageQueueWaitNs, "kernel", "mul2"),
		obs.Label(obs.MStageFetchNs, "kernel", "mul2"),
		obs.Label(obs.MStageExecNs, "kernel", "mul2"),
		obs.Label(obs.MStageStoreNs, "kernel", "mul2"),
		obs.MStageIdleNs,
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %q missing from registry", name)
			continue
		}
		if h.Count <= 0 {
			t.Errorf("histogram %q recorded no samples", name)
		}
	}
	// Stage timers for a kernel sample once per dispatched instance.
	execH := snap.Histograms[obs.Label(obs.MStageExecNs, "kernel", "mul2")]
	inst := snap.Counters[obs.Label(obs.MKernelInstances, "kernel", "mul2")]
	if execH.Count != inst {
		t.Errorf("stage_exec count %d != %d instances", execH.Count, inst)
	}
}

// TestAnalyzerSaturatedHeuristic pins the §VIII-B signature thresholds.
func TestAnalyzerSaturatedHeuristic(t *testing.T) {
	sat := &StageTotals{Workers: 8, FetchNs: 1e6, ExecNs: 2e6, StoreNs: 1e6, IdleNs: 9e6, AnalyzeMaxShardNs: 8e6, WallNs: 10e6}
	if !sat.AnalyzerSaturated() {
		t.Error("saturated profile not flagged")
	}
	healthy := &StageTotals{Workers: 8, FetchNs: 1e6, ExecNs: 40e6, StoreNs: 1e6, IdleNs: 2e6, AnalyzeMaxShardNs: 8e6, WallNs: 10e6}
	if healthy.AnalyzerSaturated() {
		t.Error("busy workers flagged as saturated")
	}
	idleAnalyzer := &StageTotals{Workers: 8, FetchNs: 1e6, ExecNs: 2e6, StoreNs: 1e6, IdleNs: 9e6, AnalyzeMaxShardNs: 7e6, WallNs: 10e6}
	if idleAnalyzer.AnalyzerSaturated() {
		t.Error("a shard busy 70% of wall flagged as saturated")
	}
}

// TestDispatchTracingOffAllocFree is the perf gate for the tracing-off path:
// with neither tracer nor registry, one dispatch through exec must not
// allocate — the stage timers have to stay entirely behind the n.stamp gate —
// whether the slice is one instance reading its element under the field lock
// (the generation is not complete, so it cannot be pinned), a run of element
// fetches read through the slice's pin whose element stores go out as one
// box, a run whose element stores land on a diagonal and go out as one-cell
// boxes, or a run of row fetches whose row stores go out as one box; a run's
// coordinates decode into the frame's scratch. An OnStore counter sees the
// boxes.
func TestDispatchTracingOffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n, tr, cell := benchNode(t, true)
	// mul2 of the mul/sum cycle, by element and by row, over the 8 indices of
	// a stored, complete m_data(0); MergeStores, because every run stores
	// p_data(0) again.
	const rows = 8
	run := cellRun{rank: 1, hi: rows}
	run.ext[0] = rows
	notices := 0
	count := func(StoreNotice) { notices++ }
	mulSum := func(prog func(t testing.TB, width int, hook func(c *core.Ctx) error) *core.Program, shape ...int) (*Node, func(w *workerState) func()) {
		rn, err := NewNode(prog(t, rows, nil), Options{Workers: 1, MergeStores: true, OnStore: count})
		if err != nil {
			t.Fatal(err)
		}
		m := rn.fields["m_data"].f
		if _, err := m.StoreAll(0, field.NewArray(field.Int32, shape...)); err != nil {
			t.Fatal(err)
		}
		m.MarkComplete(0)
		if !rn.kernels["mul2"].fetchPlans[0].viewable {
			t.Fatal("mul2's fetch is not read through a pin")
		}
		tr := &ageTracker{ks: rn.kernels["mul2"], age: 0}
		return rn, func(w *workerState) func() {
			return func() {
				b := getBatch()
				b.tracker, b.run = tr, run
				rn.execSlice(b, w)
				releaseBatch(b)
			}
		}
	}
	en, elemRun := mulSum(wideMulSum, rows)
	dn, diagRun := mulSum(diagonalMul, rows)
	rn, rowRun := mulSum(wideMulSumRows, rows, 1)
	for _, tc := range []struct {
		name    string
		n       *Node
		exec    func(w *workerState) func()
		notices int // per slice
	}{
		{"locked element", n, func(w *workerState) func() { return sliceOfOne(n, tr, cell, w) }, 0},
		{"pinned elements, one box", en, elemRun, 1},
		{"diagonal, one-cell boxes", dn, diagRun, rows},
		{"rows", rn, rowRun, 1},
	} {
		if tc.n.stamp {
			t.Fatal("node without observability has stamping enabled")
		}
		w := newWorkerState(tc.n, 0)
		exec := tc.exec(w)
		exec() // warm the frame pool
		notices = 0
		allocs := testing.AllocsPerRun(200, func() {
			*w.buf = (*w.buf)[:0]
			exec()
		})
		if allocs != 0 {
			t.Errorf("%s: tracing-off dispatch allocates %.1f objects/op, want 0", tc.name, allocs)
		}
		if want := 201 * tc.notices; notices != want {
			t.Errorf("%s: %d store notices in 201 slices, want %d", tc.name, notices, want)
		}
	}
	if p := dn.fields["p_data"].f; p.Writes(0) != rows || p.Extent(0, 1) != rows {
		t.Errorf("diagonal store: %d writes to p_data(0) of extents %v, want the %d-cell diagonal", p.Writes(0), p.Extents(0), rows)
	}
	if got := en.kernels["mul2"].ownInstances(); got != 202*rows {
		t.Errorf("element slices ran %d instances, want %d", got, 202*rows)
	}
	if got := rn.kernels["mul2"].ownInstances(); got != 202*rows {
		t.Errorf("row slices ran %d instances, want %d", got, 202*rows)
	}
}
