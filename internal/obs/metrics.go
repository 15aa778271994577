// Package obs is the observability substrate of the P2G reproduction: a
// lock-free metrics registry (counters, gauges, fixed-bucket latency
// histograms), a bounded-ring kernel-instance tracer exportable as Chrome
// trace_event JSON, and live introspection HTTP endpoints (/metricz,
// /statusz, /tracez) mounted by the cmd binaries.
//
// The paper's evaluation (Tables II-III, figures 9-10) is built entirely on
// per-kernel instrumentation; this package turns that post-hoc accounting
// into a live measurement substrate, in the spirit of Thrill's built-in
// stats layer and TaskTorrent's task-level profiling. Everything is
// stdlib-only and nil-safe: methods on nil metrics and a nil *Registry are
// no-ops, so instrumentation can be threaded unconditionally through hot
// paths and costs a nil check when disabled.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d. Safe on a nil receiver.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; zero on a nil receiver.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, memory, backlog).
type Gauge struct{ v atomic.Int64 }

// Set stores the current value. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d. Safe on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v is larger (a monotonic high-water mark).
// Unlike Set, concurrent reporters cannot regress the value, which is what a
// high-water gauge several nodes report into needs. Safe on a nil receiver.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value; zero on a nil receiver.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of latency histograms: bucket i
// counts observations with value < 1µs·2^i, the last bucket is a catch-all.
// 2^26 µs ≈ 67s comfortably covers any single dispatch.
const histBuckets = 27

// Histogram is a fixed-bucket latency histogram with exponential
// (power-of-two microsecond) bucket bounds. All updates are single atomic
// adds; there is no locking anywhere.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us)) // 0 for <1µs, 1 for 1µs, ...
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration. Safe on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// ObserveN records the same duration n times. Safe on a nil receiver.
func (h *Histogram) ObserveN(d time.Duration, n int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(d)].Add(n)
	h.count.Add(n)
	h.sumNs.Add(n * d.Nanoseconds())
}

// HistogramBatch gathers observations in plain memory, for one goroutine,
// and adds them to histograms with a few atomic operations per Flush instead
// of three per observation. The runtime's workers use one per stage and slice
// of kernel instances: observing every instance straight into the shared
// histograms had the workers trading the histograms' cache lines once per
// instance. The zero value is ready to use.
type HistogramBatch struct {
	buckets [histBuckets]int64
	count   int64
	sumNs   int64
}

// Observe records one duration in the batch.
func (b *HistogramBatch) Observe(d time.Duration) {
	b.buckets[bucketOf(d)]++
	b.count++
	b.sumNs += d.Nanoseconds()
}

// Flush adds the batch to every given histogram (nil ones are skipped) and
// empties it.
func (b *HistogramBatch) Flush(hs ...*Histogram) {
	if b.count == 0 {
		return
	}
	for _, h := range hs {
		if h == nil {
			continue
		}
		for i, n := range b.buckets {
			if n != 0 {
				h.buckets[i].Add(n)
			}
		}
		h.count.Add(b.count)
		h.sumNs.Add(b.sumNs)
	}
	*b = HistogramBatch{}
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumNs returns the sum of all observed durations in nanoseconds.
func (h *Histogram) SumNs() int64 {
	if h == nil {
		return 0
	}
	return h.sumNs.Load()
}

// Snapshot copies the histogram state. The result is self-consistent enough
// for reporting (buckets are read while writers may run; totals can be off
// by in-flight observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	s.Buckets = make([]int64, histBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is the gob/JSON-friendly frozen form of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	SumNs   int64
	Buckets []int64
}

// BucketBoundUS returns the upper bound (exclusive) of bucket i in
// microseconds; the last bucket has no bound (returns -1).
func BucketBoundUS(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return 1 << i
}

// Quantile estimates the q-quantile (0..1) from the bucket counts, assuming
// observations sit at their bucket's upper bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum > rank {
			b := BucketBoundUS(i)
			if b < 0 { // catch-all: fall back to the mean
				return time.Duration(s.SumNs / s.Count)
			}
			return time.Duration(b) * time.Microsecond
		}
	}
	return time.Duration(s.SumNs / s.Count)
}

// merge adds other's buckets into s (resizing as needed) and returns s.
func (s HistogramSnapshot) merge(other HistogramSnapshot) HistogramSnapshot {
	s.Count += other.Count
	s.SumNs += other.SumNs
	if len(s.Buckets) < len(other.Buckets) {
		s.Buckets = append(s.Buckets, make([]int64, len(other.Buckets)-len(s.Buckets))...)
	}
	for i, n := range other.Buckets {
		s.Buckets[i] += n
	}
	return s
}

// Registry is a named-metric registry. Registration (get-or-create) takes a
// lock-free fast path once a metric exists; updates on the returned handles
// are plain atomics. A nil *Registry hands out nil metrics, whose methods
// are no-ops, so callers thread registries unconditionally.
type Registry struct {
	counters sync.Map // name -> *Counter
	gauges   sync.Map // name -> *Gauge
	hists    sync.Map // name -> *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// Label renders a metric name with one label in the conventional
// `name{key="value"}` form, so flat registry names read naturally in
// /metricz output.
func Label(name, key, value string) string {
	return name + `{` + key + `="` + value + `"}`
}

// SplitLabel splits a `name{key="value"}` metric name into its base name and
// label value; names without a label return the value "".
func SplitLabel(full string) (name, value string) {
	i := strings.IndexByte(full, '{')
	if i < 0 {
		return full, ""
	}
	name = full[:i]
	rest := full[i:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return name, ""
	}
	rest = rest[j+1:]
	k := strings.IndexByte(rest, '"')
	if k < 0 {
		return name, ""
	}
	return name, rest[:k]
}

// MetricsSnapshot is a frozen copy of a registry, suitable for gob transfer
// inside worker heartbeats and for merging into a cluster view.
type MetricsSnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot freezes the registry's current values. Returns nil on a nil
// registry.
func (r *Registry) Snapshot() *MetricsSnapshot {
	if r == nil {
		return nil
	}
	s := &MetricsSnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Load()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Load()
		return true
	})
	r.hists.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return s
}

// Merge folds other into s: counters, gauges and histogram buckets sum.
// (Summing gauges matches the cluster-view use: total queue depth / memory
// across workers.) A nil other is a no-op.
func (s *MetricsSnapshot) Merge(other *MetricsSnapshot) {
	if s == nil || other == nil {
		return
	}
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range other.Histograms {
		s.Histograms[k] = s.Histograms[k].merge(v)
	}
}

// WriteText renders the snapshot in a flat, Prometheus-like text format:
// one `name value` line per counter/gauge, and `_count`/`_sum_ns`/`_p50_us`/
// `_p99_us` lines per histogram, sorted by name.
func (s *MetricsSnapshot) WriteText(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "# metrics disabled\n")
		return err
	}
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+4*len(s.Histograms))
	for k, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s_count %d", k, h.Count),
			fmt.Sprintf("%s_sum_ns %d", k, h.SumNs),
			fmt.Sprintf("%s_p50_us %d", k, h.Quantile(0.5).Microseconds()),
			fmt.Sprintf("%s_p99_us %d", k, h.Quantile(0.99).Microseconds()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := io.WriteString(w, l+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the registry's current values (see
// MetricsSnapshot.WriteText).
func (r *Registry) WriteText(w io.Writer) error { return r.Snapshot().WriteText(w) }

// OverflowTotal sums the catch-all bucket counts of every histogram in the
// snapshot: the number of observations recorded but too large to place in a
// bounded bucket.
func (s *MetricsSnapshot) OverflowTotal() int64 {
	if s == nil {
		return 0
	}
	var total int64
	for _, h := range s.Histograms {
		if n := len(h.Buckets); n > 0 {
			total += h.Buckets[n-1]
		}
	}
	return total
}

// promName splits a flat registry name into its Prometheus base name and
// label pairs: `kernel_time_ns_total{kernel="dct"}` -> ("kernel_time_ns_total",
// `kernel="dct"`). Suffixes (_bucket, _sum, ...) are then spliced before the
// brace by the writer.
func promName(full string) (base, labels string) {
	i := strings.IndexByte(full, '{')
	if i < 0 {
		return full, ""
	}
	base = full[:i]
	labels = strings.TrimSuffix(strings.TrimPrefix(full[i:], "{"), "}")
	return base, labels
}

// promLine renders one sample line, re-homing the metric-family labels (and
// an optional extra label, used for `le`) inside the braces after suffix.
func promLine(w io.Writer, base, suffix, labels, extra string, value string) error {
	name := base + suffix
	switch {
	case labels == "" && extra == "":
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	case labels == "":
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, extra, value)
		return err
	case extra == "":
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, value)
		return err
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): `# TYPE` headers per metric family, labels inside
// braces, histogram buckets cumulative with `le` upper bounds in seconds.
// Metric families are emitted sorted by name so scrapes diff cleanly.
func (s *MetricsSnapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "# metrics disabled\n")
		return err
	}
	// Group samples by family so each gets exactly one TYPE header.
	families := map[string]string{} // base -> prometheus type
	members := map[string][]string{}
	for k := range s.Counters {
		base, _ := promName(k)
		families[base] = "counter"
		members[base] = append(members[base], k)
	}
	for k := range s.Gauges {
		base, _ := promName(k)
		families[base] = "gauge"
		members[base] = append(members[base], k)
	}
	for k := range s.Histograms {
		base, _ := promName(k)
		families[base] = "histogram"
		members[base] = append(members[base], k)
	}
	bases := make([]string, 0, len(families))
	for b := range families {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, base := range bases {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, families[base]); err != nil {
			return err
		}
		ms := members[base]
		sort.Strings(ms)
		for _, full := range ms {
			_, labels := promName(full)
			switch families[base] {
			case "counter":
				if err := promLine(w, base, "", labels, "", fmt.Sprintf("%d", s.Counters[full])); err != nil {
					return err
				}
			case "gauge":
				if err := promLine(w, base, "", labels, "", fmt.Sprintf("%d", s.Gauges[full])); err != nil {
					return err
				}
			case "histogram":
				h := s.Histograms[full]
				var cum int64
				for i, n := range h.Buckets {
					cum += n
					le := "+Inf"
					if b := BucketBoundUS(i); b >= 0 {
						le = strconv.FormatFloat(float64(b)/1e6, 'g', -1, 64)
					}
					if err := promLine(w, base, "_bucket", labels, `le="`+le+`"`, fmt.Sprintf("%d", cum)); err != nil {
						return err
					}
				}
				if len(h.Buckets) == 0 { // empty histogram still needs +Inf
					if err := promLine(w, base, "_bucket", labels, `le="+Inf"`, "0"); err != nil {
						return err
					}
				}
				if err := promLine(w, base, "_sum", labels, "", strconv.FormatFloat(float64(h.SumNs)/1e9, 'g', -1, 64)); err != nil {
					return err
				}
				if err := promLine(w, base, "_count", labels, "", fmt.Sprintf("%d", h.Count)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WritePrometheus renders the registry's current values in Prometheus text
// exposition format (see MetricsSnapshot.WritePrometheus).
func (r *Registry) WritePrometheus(w io.Writer) error { return r.Snapshot().WritePrometheus(w) }

// Canonical metric names used across the runtime, distributed layer and
// scheduler. Per-kernel metrics attach the kernel name with Label(...,
// "kernel", name).
const (
	// Runtime (one execution node).
	MDispatchesTotal  = "runtime_dispatches_total"        // counter: kernel instances dispatched
	MFetchNs          = "runtime_fetch_ns"                // histogram: per-dispatch fetch+context time
	MKernelNs         = "runtime_kernel_ns"               // histogram: per-dispatch kernel-body time
	MStoreNs          = "runtime_store_ns"                // histogram: per-dispatch store+event time
	MReadyQueueDepth  = "runtime_ready_queue_depth"       // gauge: instances in the ready queue
	MEventBacklog     = "runtime_event_backlog"           // gauge: analyzer events waiting
	MFieldMemElems    = "runtime_field_mem_elems"         // gauge: live field element slots
	MOutstandingInsts = "runtime_outstanding_insts"       // gauge: dispatched, not yet committed
	MKernelInstances  = "kernel_instances_total"          // counter per kernel: instances dispatched
	MKernelSlices     = "runtime_slices_total"            // counter per kernel: slices (groups of instances run as one unit) dispatched
	MKernelLockstep   = "kernel_lockstep_instances_total" // counter per kernel: instances run in lockstep by the kernel's slice body
	MKernelDeclined   = "kernel_lockstep_declined_total"  // counter per kernel: instances whose slice body declined or panicked, and that then ran one by one
	MKernelDispatchNs = "kernel_dispatch_ns_total"        // counter per kernel: dispatch overhead
	MKernelTimeNs     = "kernel_time_ns_total"            // counter per kernel: kernel-body time
	MKernelStoreOps   = "kernel_store_ops_total"          // counter per kernel: fired store statements
	MTraceDropped     = "runtime_trace_dropped_total"     // counter: spans evicted from the trace ring

	// Batched analyzer events.
	MEventBatchesTotal = "runtime_event_batches_total" // counter: event batches received by the analyzer

	// The dependency analyzer.
	MAnalyzerEvents     = "runtime_analyzer_events_total" // counter: events the analyzer processed
	MAnalyzerBacklogMax = "runtime_analyzer_backlog_max"  // gauge: high-water event backlog (batches)

	// Transport (one connection end).
	MTransportSentMsgs  = "transport_sent_msgs_total"
	MTransportRecvMsgs  = "transport_recv_msgs_total"
	MTransportSentBytes = "transport_sent_bytes_total"
	MTransportRecvBytes = "transport_recv_bytes_total"

	// Distributed store framing (dist worker send path and master broker).
	MDistFramesTotal     = "dist_frames_total"      // counter: store frames emitted
	MDistFrameBytesTotal = "dist_frame_bytes_total" // counter: encoded frame payload bytes

	// Distributed liveness and recovery (master-side failure detection).
	MDistWorkerDeaths   = "dist_worker_deaths_total"   // counter: workers declared dead
	MDistFailovers      = "dist_failovers_total"       // counter: recoveries (reassign + replay) performed
	MDistReplayedFrames = "dist_replayed_frames_total" // counter: logged store frames replayed to rebuilt workers
	MDistFrameStores    = "dist_frame_stores_total"    // counter: store notices carried inside frames

	// Stage timers: the fixed per-instance latency decomposition the
	// attribution report is built on (ISSUE 6 / paper §VIII-B). The first
	// five are per-kernel histograms (attach Label(..., "kernel", name));
	// idle is per node, flight per connection direction.
	MStageReadyWaitNs = "stage_ready_wait_ns" // histogram per kernel: instance created -> dependencies satisfied (analyzer-ready wait)
	MStageQueueWaitNs = "stage_queue_wait_ns" // histogram per kernel: ready -> a worker picks the instance up
	MStageFetchNs     = "stage_fetch_ns"      // histogram per kernel: context construction + fetches
	MStageExecNs      = "stage_exec_ns"       // histogram per kernel: kernel body
	MStageStoreNs     = "stage_store_ns"      // histogram per kernel: store application + event emission
	MStageIdleNs      = "stage_idle_ns"       // histogram per node: worker blocked waiting for ready work
	MStageAnalyzeNs   = "stage_analyze_ns"    // histogram per node: analyzer event-processing busy time
	MStageFlightNs    = "stage_flight_ns"     // histogram: dist message send -> receive (clock-offset corrected)
)
