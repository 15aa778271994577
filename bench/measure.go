package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"time"

	"repro/internal/runtime"
	"repro/internal/sim"
)

// The measured loop: reference sample -> repetition -> reference sample ->
// repetition -> ... Every repetition is divided by the mean of the two
// reference samples on either side of it, which is what cancels the slow
// drift in machine speed (see ref.go). Samples are kept per observability
// mode so the traced run can interleave off/metrics/traced repetitions and
// read the overhead off the same stretch of machine time.

// loopConfig fixes how long the loop runs.
type loopConfig struct {
	warmup  int           // untimed repetitions before the loop
	budget  time.Duration // measured time; the loop stops before exceeding it
	minReps int           // per mode, even if that overruns the budget
}

// modeStats is what the repetitions of one observability mode measured.
type modeStats struct {
	reps     int
	ages     int // attempted
	failed   int // ages of repetitions that errored or differed from the oracle
	firstErr error

	// One value per repetition.
	setupS  []float64 // set-up, raw seconds
	speedup []float64 // reference s/age / P2G wall s/age (delivered/offered on an open loop)
	costX   []float64 // P2G wall s/age / reference s/age (median latency on an open loop)
	cpuX    []float64 // P2G CPU s/age / reference CPU s/age
	allocs  []float64 // heap allocations per age
	heapKB  []float64 // heap KiB allocated per age
	refMs   []float64 // reference ms per age, raw
	simX    []float64 // sim.Model predicted wall / measured wall

	// One value per age.
	lat    []float64 // latency in units of reference s/age
	latMs  []float64 // latency, raw ms
	lateMs []float64 // open loop: generator lateness, raw ms

	// Sums over repetitions, from Report and Report.Stages.
	stages                     runtime.StageTotals
	workerNs                   int64 // sum of workers x wall
	instances, batches, steals int64
	wireBytes, msgs, frames    int64
	quiesceMs                  []float64
}

func (m *modeStats) add(w *workload, r rep, ref refSample, mem memDelta) {
	m.reps++
	m.ages += w.ages
	if r.err != nil {
		m.failed += w.ages
		if m.firstErr == nil {
			m.firstErr = r.err
		}
		return
	}
	ages := float64(w.ages)
	perAge := r.wall.Seconds() / ages
	m.setupS = append(m.setupS, r.setup.Seconds())
	m.cpuX = append(m.cpuX, r.cpu.Seconds()/ages/ref.cpu)
	m.allocs = append(m.allocs, float64(mem.mallocs)/ages)
	m.heapKB = append(m.heapKB, float64(mem.bytes)/1024/ages)
	m.refMs = append(m.refMs, ref.wall*1e3)
	lat := make([]float64, len(r.lat))
	for i, l := range r.lat {
		lat[i] = l.Seconds() / ref.wall
		m.latMs = append(m.latMs, l.Seconds()*1e3)
	}
	m.lat = append(m.lat, lat...)
	for _, l := range r.late {
		m.lateMs = append(m.lateMs, l.Seconds()*1e3)
	}
	if w.period > 0 {
		// The schedule pins wall time, so throughput reads as delivered over
		// offered rate and the cost of an age as its median latency.
		m.speedup = append(m.speedup, float64(w.ages-1)*w.period.Seconds()/r.outSpan.Seconds())
		m.costX = append(m.costX, median(lat))
	} else {
		m.speedup = append(m.speedup, ref.wall/perAge)
		m.costX = append(m.costX, perAge/ref.wall)
	}
	if rp := r.report; rp != nil {
		m.instances += rp.TotalInstances()
		m.batches += rp.EventBatches
		m.steals += rp.Steals
		if st := rp.Stages; st != nil {
			m.stages.ReadyWaitNs += st.ReadyWaitNs
			m.stages.QueueWaitNs += st.QueueWaitNs
			m.stages.FetchNs += st.FetchNs
			m.stages.ExecNs += st.ExecNs
			m.stages.StoreNs += st.StoreNs
			m.stages.IdleNs += st.IdleNs
			m.stages.AnalyzeMaxShardNs += st.AnalyzeMaxShardNs
			m.stages.WallNs += st.WallNs
			m.workerNs += st.WallNs * int64(st.Workers)
			if x, ok := simPrediction(rp); ok {
				m.simX = append(m.simX, x)
			}
		}
	}
	m.wireBytes += r.wireBytes
	m.msgs += r.msgs
	m.frames += r.frames
	if r.quiesce > 0 {
		m.quiesceMs = append(m.quiesceMs, r.quiesce.Seconds()*1e3)
	}
}

// okAges is the number of ages behind the per-age sums.
func (m *modeStats) okAges() float64 { return float64(m.ages - m.failed) }

// simPrediction asks the paper's §V-A node model for the wall time of a
// 2-worker, 2-core node from the run's own per-kernel costs and measured
// analyzer busy time, and returns prediction / measured.
func simPrediction(rp *runtime.Report) (float64, bool) {
	var events int64
	for _, e := range rp.ShardEvents {
		events += e
	}
	if events == 0 || rp.Wall <= 0 {
		return 0, false
	}
	model := sim.Model{
		Kernels:          sim.FromReport(rp),
		AnalyzerPerEvent: time.Duration(rp.Stages.AnalyzeNs / events),
		Cores:            benchProcs,
	}
	pred, err := model.Run(benchWorkers)
	if err != nil {
		return 0, false
	}
	return pred.Seconds() / rp.Wall.Seconds(), true
}

// memDelta is the heap traffic of one repetition.
type memDelta struct{ mallocs, bytes uint64 }

// runLoop warms the workload up, then alternates reference samples and
// repetitions, cycling through modes, until the budget is spent and every
// mode has its minimum. It returns one modeStats per mode, in order.
func runLoop(w *workload, modes []obsMode, cfg loopConfig, sp *spans) []*modeStats {
	stats := make([]*modeStats, len(modes))
	for i := range stats {
		stats[i] = &modeStats{}
	}
	root := sp.begin("run "+w.name, -1, -1)
	defer sp.end(root)

	refLen := minRefSample
	for i := 0; i < cfg.warmup; i++ {
		id := sp.begin("warmup", root, -1)
		r := w.run(modes[i%len(modes)], sp, id)
		sp.end(id)
		refLen = refLength(w, r)
		if r.err != nil {
			// A workload that cannot complete a warm-up has nothing to
			// measure; count it so the failure is reported, not hidden.
			stats[0].add(w, r, refSample{}, memDelta{})
			return stats
		}
	}

	sample := func(length time.Duration) refSample {
		id := sp.begin("reference", root, -1)
		defer sp.end(id)
		return sampleRef(w.refAges, length)
	}
	var before, after goruntime.MemStats
	start := time.Now()
	prev := sample(refLen)
	for i := 0; ; i++ {
		cycle := time.Now()
		mode := i % len(modes)
		id := sp.begin("repetition", root, -1)
		goruntime.ReadMemStats(&before)
		r := w.run(modes[mode], sp, id)
		goruntime.ReadMemStats(&after)
		sp.end(id)
		next := sample(refLength(w, r))
		ref := refSample{wall: (prev.wall + next.wall) / 2, cpu: (prev.cpu + next.cpu) / 2}
		stats[mode].add(w, r, ref, memDelta{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc})
		prev = next

		enough := true
		for _, s := range stats {
			enough = enough && s.reps >= cfg.minReps
		}
		// Stop when one more cycle like the last would overrun the budget.
		if enough && time.Since(start)+time.Since(cycle) > cfg.budget {
			return stats
		}
	}
}

// ---- order statistics ------------------------------------------------------

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartileSpread is the acceptance statistic for run-to-run noise: the
// distance between the first and third quartile as a share of the median,
// with quartiles placed as Python's statistics.quantiles(xs, n=4) places
// them (exclusive method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// share guards the share-of-total rows against an empty denominator.
func share(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func describeErr(err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprintf("first failure: %v", err)
}
