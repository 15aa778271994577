package runtime

import (
	"fmt"
	"strings"
	"time"
)

// KernelStats holds per-kernel instrumentation: the number of instances
// dispatched, total dispatch overhead (context construction, fetches, store
// application and event emission) and total time in kernel code. These are
// the three columns of the paper's Tables II and III.
type KernelStats struct {
	Name      string
	Instances int64
	// Slices counts the dispatches: the scheduler combines instances into
	// slices and runs each as one unit (§V-A), so Instances/Slices is the
	// mean data granularity the run achieved.
	Slices int64
	// Lockstep counts the instances that ran through the kernel's slice body
	// (core.KernelDecl.SliceBody) — all instances of a slice in one call —
	// rather than one Body call each.
	Lockstep int64
	// Declined counts the instances of slices whose slice body declined —
	// returned false or panicked — and that then ran one Body call each, so
	// the attempt was wasted. The kernel language's declines when an instance
	// is about to fail; in a run that succeeds, anything but zero points at a
	// defect in the slice body.
	Declined      int64
	DispatchTotal time.Duration
	KernelTotal   time.Duration
	// StoreOps counts store statements that actually fired; with the
	// per-slice done event they make up the analyzer's event load.
	StoreOps int64
}

// InstancesPerSlice returns the mean number of instances per slice.
func (s KernelStats) InstancesPerSlice() float64 {
	if s.Slices == 0 {
		return 0
	}
	return float64(s.Instances) / float64(s.Slices)
}

// DispatchPer returns the mean dispatch overhead per instance.
func (s KernelStats) DispatchPer() time.Duration {
	if s.Instances == 0 {
		return 0
	}
	return s.DispatchTotal / time.Duration(s.Instances)
}

// KernelPer returns the mean kernel-code time per instance.
func (s KernelStats) KernelPer() time.Duration {
	if s.Instances == 0 {
		return 0
	}
	return s.KernelTotal / time.Duration(s.Instances)
}

// Report summarizes one run of an execution node. It is a projection of the
// node's metrics registry (internal/obs): every number here is read from
// registry counters, so live /metricz scrapes and the post-run report can
// never disagree.
type Report struct {
	// Wall is the end-to-end running time (what figures 9 and 10 plot).
	Wall time.Duration
	// Kernels lists per-kernel instrumentation in declaration order.
	Kernels []KernelStats
	// Stalled lists kernel-ages that never completed; non-empty means the
	// program quiesced with unsatisfied dependencies.
	Stalled []string
	// FieldMemElems is the number of field element slots still allocated
	// at the end of the run (after garbage collection, if enabled).
	FieldMemElems int

	// Scheduler queue high-water marks: the deepest the ready queue got
	// (instances) and the largest analyzer event backlog observed (in event
	// batches, the channel's unit).
	MaxQueueDepth   int
	MaxEventBacklog int

	// ShardEvents holds one entry, the events the dependency analyzer
	// processed; it is a slice because the benchmark ledger (bench/) reads
	// it by this name.
	ShardEvents []int64

	// Steals is always 0: a node has one ready queue, so no worker takes a
	// slice from a peer. The field stays because the benchmark ledger
	// (bench/) reads it by this name.
	Steals int64
	// EventBatches counts the event batches delivered to the analyzer.
	EventBatches int64

	// Transport counters, filled in by the distributed layer (zero for
	// purely local runs): protocol messages and encoded bytes exchanged
	// with the master.
	SentMsgs  int64
	RecvMsgs  int64
	SentBytes int64
	RecvBytes int64

	// Stages is the per-stage latency attribution (nil unless the node ran
	// with a caller-supplied metrics registry): where the run's
	// worker-seconds and instance lifetimes went, decomposed into the fixed
	// stage model of ISSUE 6 / the paper's §VIII-B analysis.
	Stages *StageTotals
}

// StageTotals attributes a run's time to the fixed stage model. Two groups:
//
//   - Worker-clock stages (FetchNs, ExecNs, StoreNs, IdleNs): what each
//     worker goroutine was doing; they sum to ~workers × wall, which is what
//     Coverage checks.
//   - Instance-clock stages (ReadyWaitNs, QueueWaitNs, FlightNs): latency an
//     instance experienced while workers were free to do other things; they
//     diagnose where pipelines stall (analyzer, scheduler, network) but do
//     not sum with the worker-clock group.
type StageTotals struct {
	// Workers is the worker-goroutine count behind the worker-clock stages
	// (summed across nodes after MergeReports).
	Workers int

	ReadyWaitNs int64 // instance created -> dependencies satisfied (analyzer-ready wait)
	QueueWaitNs int64 // ready -> picked up by a worker (queue wait)
	FetchNs     int64 // context construction + fetches
	ExecNs      int64 // kernel bodies
	StoreNs     int64 // store application + event emission
	IdleNs      int64 // workers blocked on an empty ready queue
	FlightNs    int64 // dist messages in flight (clock-offset corrected)

	// Analyzer-clock lane: AnalyzeNs is the analyzer's event-processing busy
	// time and WallNs the run's wall time — their ratio is a measured
	// analyzer occupancy, replacing the inferred ready-wait heuristic.
	// AnalyzeMaxShardNs, named so for the benchmark ledger (bench/), is the
	// busiest single analyzer: AnalyzeNs in a node's own report, the busiest
	// node's after MergeReports.
	AnalyzeNs         int64
	AnalyzeMaxShardNs int64
	WallNs            int64
}

// BusyNs is the dispatching part of the worker-clock stages.
func (s *StageTotals) BusyNs() int64 { return s.FetchNs + s.ExecNs + s.StoreNs }

// AttributedNs is the total worker-clock time the stage model accounts for.
func (s *StageTotals) AttributedNs() int64 { return s.BusyNs() + s.IdleNs }

// Coverage reports the fraction of the run's worker-seconds (wall × Workers)
// the worker-clock stages attribute; close to 1.0 means the stage model
// explains the run. When Workers exceeds GOMAXPROCS the denominator
// over-counts the CPU actually available — time a worker spends runnable but
// descheduled lands in no stage — so coverage is only a tight bound when the
// host has a core per worker.
func (s *StageTotals) Coverage(wall time.Duration) float64 {
	denom := float64(wall.Nanoseconds()) * float64(s.Workers)
	if denom <= 0 {
		return 0
	}
	return float64(s.AttributedNs()) / denom
}

// AnalyzerSaturated flags the paper's §VIII-B signature: the dependency
// analyzer is the bottleneck and adding workers will not help. The busiest
// analyzer was occupied more than 75% of the wall time while workers sat idle
// longer than they dispatched.
func (s *StageTotals) AnalyzerSaturated() bool {
	return 4*s.AnalyzeMaxShardNs > 3*s.WallNs && s.IdleNs > s.BusyNs()
}

// add folds other's totals into s. Busy time sums; the busiest-analyzer mark
// and wall take the maximum (per-node walls overlap, they do not concatenate).
func (s *StageTotals) add(other *StageTotals) {
	s.Workers += other.Workers
	s.ReadyWaitNs += other.ReadyWaitNs
	s.QueueWaitNs += other.QueueWaitNs
	s.FetchNs += other.FetchNs
	s.ExecNs += other.ExecNs
	s.StoreNs += other.StoreNs
	s.IdleNs += other.IdleNs
	s.FlightNs += other.FlightNs
	s.AnalyzeNs += other.AnalyzeNs
	if other.AnalyzeMaxShardNs > s.AnalyzeMaxShardNs {
		s.AnalyzeMaxShardNs = other.AnalyzeMaxShardNs
	}
	if other.WallNs > s.WallNs {
		s.WallNs = other.WallNs
	}
}

// buildReport projects the node's registry and the analyzer's marks into the
// run's Report. Stalled kernel-ages are listed only for a run that did not
// fail (a failed run stops with work in flight).
func (n *Node) buildReport(wall time.Duration) *Report {
	an := n.an
	r := &Report{
		Wall:            wall,
		FieldMemElems:   n.FieldMemoryElems(),
		MaxQueueDepth:   an.maxQueue,
		MaxEventBacklog: an.maxBacklog,
		ShardEvents:     []int64{an.events.Own()},
		EventBatches:    n.mEventBatches.Own(),
	}
	if !n.failed() {
		r.Stalled = an.stalled()
	}
	n.gFieldMem.Set(int64(r.FieldMemElems))
	for _, ks := range n.order {
		inst := ks.ownInstances()
		disp, kern := ks.ownDispatchNs(), ks.ownKernelNs()
		// Without a tracer or registry, timing is sampled (timeSampleEvery):
		// extrapolate the totals from the sampled mean so DispatchPer and
		// KernelPer stay per-instance means either way.
		if timed := ks.timedInsts.Load(); timed > 0 && timed < inst {
			disp = disp * inst / timed
			kern = kern * inst / timed
		}
		r.Kernels = append(r.Kernels, KernelStats{
			Name:          ks.decl.Name,
			Instances:     inst,
			Slices:        ks.ownSlices(),
			Lockstep:      ks.ownLockstep(),
			Declined:      ks.ownDeclined(),
			DispatchTotal: time.Duration(disp),
			KernelTotal:   time.Duration(kern),
			StoreOps:      ks.ownStoreOps(),
		})
	}
	if n.hIdle.enabled() {
		st := &StageTotals{Workers: n.opts.Workers, IdleNs: n.hIdle.OwnNs(), WallNs: wall.Nanoseconds()}
		for _, ks := range n.order {
			st.ReadyWaitNs += ks.stageReady.OwnNs()
			st.QueueWaitNs += ks.stageQueue.OwnNs()
			st.FetchNs += ks.stageFetch.OwnNs()
			st.ExecNs += ks.stageExec.OwnNs()
			st.StoreNs += ks.stageStore.OwnNs()
		}
		st.AnalyzeNs, st.AnalyzeMaxShardNs = an.busyNs, an.busyNs
		r.Stages = st
	}
	return r
}

// MergeReports combines per-node reports into one aggregate: instance counts,
// times, field memory and transport traffic sum per kernel/node, wall time
// and queue high-water marks take the maximum. Used by the distributed
// master to feed a whole-cluster profile back into repartitioning.
func MergeReports(reports ...*Report) *Report {
	merged := &Report{}
	idx := map[string]int{}
	for _, r := range reports {
		if r == nil {
			continue
		}
		if r.Wall > merged.Wall {
			merged.Wall = r.Wall
		}
		merged.Stalled = append(merged.Stalled, r.Stalled...)
		merged.FieldMemElems += r.FieldMemElems
		if r.MaxQueueDepth > merged.MaxQueueDepth {
			merged.MaxQueueDepth = r.MaxQueueDepth
		}
		if r.MaxEventBacklog > merged.MaxEventBacklog {
			merged.MaxEventBacklog = r.MaxEventBacklog
		}
		if len(r.ShardEvents) > 0 {
			if merged.ShardEvents == nil {
				merged.ShardEvents = []int64{0}
			}
			merged.ShardEvents[0] += r.ShardEvents[0]
		}
		merged.EventBatches += r.EventBatches
		merged.SentMsgs += r.SentMsgs
		merged.RecvMsgs += r.RecvMsgs
		merged.SentBytes += r.SentBytes
		merged.RecvBytes += r.RecvBytes
		if r.Stages != nil {
			if merged.Stages == nil {
				merged.Stages = &StageTotals{}
			}
			merged.Stages.add(r.Stages)
		}
		for _, k := range r.Kernels {
			i, ok := idx[k.Name]
			if !ok {
				idx[k.Name] = len(merged.Kernels)
				merged.Kernels = append(merged.Kernels, k)
				continue
			}
			m := &merged.Kernels[i]
			m.Instances += k.Instances
			m.Slices += k.Slices
			m.Lockstep += k.Lockstep
			m.Declined += k.Declined
			m.DispatchTotal += k.DispatchTotal
			m.KernelTotal += k.KernelTotal
			m.StoreOps += k.StoreOps
		}
	}
	return merged
}

// Kernel returns the stats row for the named kernel, or a zero row.
func (r *Report) Kernel(name string) KernelStats {
	for _, k := range r.Kernels {
		if k.Name == name {
			return k
		}
	}
	return KernelStats{}
}

// TotalInstances sums dispatched instances across kernels.
func (r *Report) TotalInstances() int64 {
	var t int64
	for _, k := range r.Kernels {
		t += k.Instances
	}
	return t
}

// fmtMicros renders a duration as microseconds with the unit attached, so
// header and row cells can share one column width.
func fmtMicros(d time.Duration) string {
	return fmt.Sprintf("%.2f µs", float64(d)/1e3)
}

// Table renders the report in the layout of the paper's micro-benchmark
// tables — kernel, instances, mean dispatch time, mean kernel time — with the
// slice count next to the instances it was dispatched in. Header and rows use
// identical column widths, so the columns stay aligned. Queue and transport
// summary lines follow when the run recorded them.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %16s %16s\n", "Kernel", "Instances", "Slices", "Lockstep", "Dispatch Time", "Kernel Time")
	for _, k := range r.Kernels {
		fmt.Fprintf(&b, "%-16s %10d %10d %10d %16s %16s\n",
			k.Name, k.Instances, k.Slices, k.Lockstep, fmtMicros(k.DispatchPer()), fmtMicros(k.KernelPer()))
	}
	for _, k := range r.Kernels {
		if k.Declined > 0 {
			fmt.Fprintf(&b, "lockstep: the slice body of %s declined %d instances, which ran one by one\n", k.Name, k.Declined)
		}
	}
	if r.MaxQueueDepth > 0 || r.MaxEventBacklog > 0 {
		fmt.Fprintf(&b, "queue: max depth %d insts, max event backlog %d batches, %d event batches\n",
			r.MaxQueueDepth, r.MaxEventBacklog, r.EventBatches)
	}
	if len(r.ShardEvents) > 0 {
		fmt.Fprintf(&b, "analyzer: %d events, max backlog %d batches\n", r.ShardEvents[0], r.MaxEventBacklog)
	}
	if r.SentMsgs > 0 || r.RecvMsgs > 0 {
		fmt.Fprintf(&b, "transport: sent %d msgs / %d B, received %d msgs / %d B\n",
			r.SentMsgs, r.SentBytes, r.RecvMsgs, r.RecvBytes)
	}
	if r.Stages != nil {
		b.WriteString(r.Attribution())
	}
	return b.String()
}

// fmtMillis renders a duration as milliseconds for the attribution table.
func fmtMillis(ns int64) string {
	return fmt.Sprintf("%.2f ms", float64(ns)/1e6)
}

// Attribution renders the per-stage latency attribution: the worker-clock
// stages with their share of the run's worker-seconds, the instance-clock
// wait stages, and the analyzer-saturation flag (§VIII-B). Empty when the
// run collected no stage timers.
func (r *Report) Attribution() string {
	s := r.Stages
	if s == nil {
		return ""
	}
	var b strings.Builder
	workerNs := r.Wall.Nanoseconds() * int64(s.Workers)
	pct := func(ns int64) string {
		if workerNs <= 0 {
			return "    -"
		}
		return fmt.Sprintf("%4.1f%%", 100*float64(ns)/float64(workerNs))
	}
	fmt.Fprintf(&b, "stage attribution (wall %v, %d workers = %s of worker time):\n",
		r.Wall.Round(time.Microsecond), s.Workers, fmtMillis(workerNs))
	fmt.Fprintf(&b, "  %-12s %14s %s of worker time\n", "fetch", fmtMillis(s.FetchNs), pct(s.FetchNs))
	fmt.Fprintf(&b, "  %-12s %14s %s of worker time\n", "exec", fmtMillis(s.ExecNs), pct(s.ExecNs))
	fmt.Fprintf(&b, "  %-12s %14s %s of worker time\n", "store", fmtMillis(s.StoreNs), pct(s.StoreNs))
	fmt.Fprintf(&b, "  %-12s %14s %s of worker time\n", "idle", fmtMillis(s.IdleNs), pct(s.IdleNs))
	fmt.Fprintf(&b, "  %-12s %14s %s attributed\n", "total", fmtMillis(s.AttributedNs()),
		pct(s.AttributedNs()))
	fmt.Fprintf(&b, "  %-12s %14s (instance-clock: analyzer-ready wait)\n", "ready-wait", fmtMillis(s.ReadyWaitNs))
	fmt.Fprintf(&b, "  %-12s %14s (instance-clock: ready-queue wait)\n", "queue-wait", fmtMillis(s.QueueWaitNs))
	if s.AnalyzeNs > 0 {
		occ := "    -"
		if s.WallNs > 0 {
			occ = fmt.Sprintf("%4.1f%%", 100*float64(s.AnalyzeMaxShardNs)/float64(s.WallNs))
		}
		fmt.Fprintf(&b, "  %-12s %14s (analyzer-clock: busy time, busiest analyzer %s of wall)\n",
			"analyze", fmtMillis(s.AnalyzeNs), occ)
	}
	if s.FlightNs > 0 {
		fmt.Fprintf(&b, "  %-12s %14s (instance-clock: dist transport flight)\n", "flight", fmtMillis(s.FlightNs))
	}
	if s.AnalyzerSaturated() {
		b.WriteString("  WARNING: analyzer saturated — the analyzer is occupied while workers idle (§VIII-B); adding workers will not scale\n")
	}
	return b.String()
}
