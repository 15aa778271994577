package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file is the single table the ledger's names come from: the workloads,
// the end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each is expected to move. BENCHMARK.json,
// the README tables and the program's output are all checked against it
// (bench_test.go), so they cannot disagree.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds and
// the -seconds default).
const runSeconds = 20

type workloadInfo struct {
	Name string
	Why  string // one line: why the workload exists and what it bypasses
}

var workloadTable = []workloadInfo{
	{"mjpeg_batch", "closed-loop CIF MJPEG, naive DCT, field GC on (fig. 9): kernel bodies dominate, so field-GC and slab-recycling changes show here and dispatch changes barely do"},
	{"mjpeg_live", "open-loop 30 fps frame injection into the same MJPEG graph: workers park between frames, so wake-up, event-batch flushing and age ordering sit on the latency path"},
	{"kmeans_native", "closed-loop K-means N=2000 K=100 Iter=10 (fig. 10): fetch, store and the analyzer dominate, so runtime and field changes show here and kernel-body changes do not"},
	{"kmeans_vm", "the same K-means dataflow compiled from a .p2g template: the bytecode VM body dominates, the only workload where lang work and compile time show"},
	{"mjpeg_tcp2", "CIF MJPEG over one master and two 1-core workers on TCP loopback: the only workload where frame codec, transport, broker hop, shadow replay and quiescence polling do work"},
}

type metricInfo struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed relative worsening
	What   string  // definition, for the README
}

// endToEnd lists what a user of the system sees. Everything except setup_s
// and the allocation count is divided by the interleaved sequential
// reference (ref.go), which is what makes two runs of the same code agree.
//
// The bounds come from the two sets of runs in baseline/: between sets of
// ten 20 s runs on the build host the ratio metrics spread 2-4 % while the
// host is calm and up to 10 % when it changes phase mid-set, so a bound of
// 0.20 is twice the worst spread seen; the allocation count spreads under
// 1 % except on mjpeg_tcp2 (message counts follow wall time), 5 % at worst.
var endToEnd = []metricInfo{
	{"setup_s", "s", "lower", 0.25, "median seconds to build the program (plus lang compile, plus TCP listen/dial/handshake) and runtime.NewNode, per repetition"},
	{"speedup_vs_seq", "x", "higher", 0.20, "reference seconds per age / P2G wall seconds per age, median over repetitions (inverse of Benoit's period); on mjpeg_live delivered rate / offered rate"},
	{"age_latency_p50_vs_seq", "x", "lower", 0.20, "median over all ages of (input handed to the runtime -> output) in units of reference seconds per age"},
	{"cpu_vs_seq", "x", "lower", 0.20, "process CPU seconds per age (getrusage) / reference CPU seconds per age, median over repetitions: the framework overhead factor"},
	{"allocs_per_age", "count", "lower", 0.10, "heap allocations per age (MemStats.Mallocs delta around a repetition), median over repetitions"},
}

// layerInfo is one per-layer metric plus its row of the interaction table.
type layerInfo struct {
	metricInfo
	Moves string // the end-to-end metric it should move
	On    string // on which workload(s)
	// From says where the value comes from: "probe" is a micro-probe, the
	// same whichever workload runs; "run" is the traced repetitions of the
	// workload being run; a workload name is a few repetitions of that
	// workload, whichever workload runs (the row belongs to it alone).
	From string
}

func probe(name, unit, what, moves, on string) layerInfo {
	return layerInfo{metricInfo{name, unit, "lower", 0, what}, moves, on, "probe"}
}

func perWorkload(name, unit, better, what, moves, on string) layerInfo {
	return layerInfo{metricInfo{name, unit, better, 0, what}, moves, on, "run"}
}

// onlyOn is a row that exists on one workload and is always measured there.
func onlyOn(workload, name, unit, what, moves string) layerInfo {
	return layerInfo{metricInfo{name, unit, "lower", 0, what}, moves, workload, workload}
}

var perLayer = []layerInfo{
	// ISSUE 12 listed these two as end-to-end metrics. Their run-to-run
	// spread on the build host (4-10 % while the host is calm, and 1-17 %:
	// heap traffic depends on when the collector empties the slab pools)
	// cannot hold a bound, so they are reported here, unbounded, from the
	// traced run's uninstrumented repetitions.
	perWorkload("age_latency_p95_vs_seq", "x", "lower", "95th percentile of the per-age latency distribution, in units of reference seconds per age", "-", "all; mjpeg_live first"),
	perWorkload("heap_kb_per_age", "KiB", "lower", "heap KiB allocated per age (MemStats.TotalAlloc delta around a repetition), median over repetitions", "-", "mjpeg_batch (field GC, slab recycling)"),

	probe("field.store_row_ns", "ns", "Field.StoreSlice of one 64-sample uint8 row", "speedup_vs_seq", "kmeans_native, then mjpeg_batch"),
	probe("field.fetch_view_ns", "ns", "Field.FetchViewAll + ViewToken.Release on a complete 396x64 int32 generation", "speedup_vs_seq", "kmeans_native, then mjpeg_batch"),
	probe("field.fetch_copy_ns", "ns", "Field.SnapshotInto of the same generation (the copying fetch)", "speedup_vs_seq", "kmeans_native, then mjpeg_batch"),
	probe("field.gen_lifecycle_allocs", "count", "heap allocations for one generation's life: StoreAll, MarkComplete, view, DropAge", "allocs_per_age", "mjpeg_batch, kmeans_native"),
	probe("field.wire_encode_ns_per_kb", "ns/KiB", "field.AppendWireValue of a 396x64 int32 array", "speedup_vs_seq", "mjpeg_tcp2"),
	probe("field.wire_decode_ns_per_kb", "ns/KiB", "field.DecodeWireValue of the same bytes", "speedup_vs_seq", "mjpeg_tcp2"),

	probe("runtime.dispatch_ns_per_instance", "ns", "wall / instances of a mul/sum-shaped program with one-line bodies, 1 worker", "speedup_vs_seq, cpu_vs_seq", "kmeans_native; age_latency_p50_vs_seq on mjpeg_live"),
	perWorkload("runtime.instances_per_age", "count", "lower", "kernel instances dispatched per age", "cpu_vs_seq", "kmeans_native"),
	perWorkload("runtime.event_batches_per_age", "count", "lower", "analyzer event batches per age (Report.EventBatches)", "cpu_vs_seq", "kmeans_native; age_latency_p50_vs_seq on mjpeg_live"),
	perWorkload("runtime.steals_per_age", "count", "lower", "work-stealing steals per age (Report.Steals)", "speedup_vs_seq", "kmeans_native"),
	probe("runtime.node_setup_us", "us", "runtime.NewNode + Release on the MJPEG program", "setup_s", "all single-node workloads"),
	probe("runtime.frame_encode_ns_per_kb", "ns/KiB", "StoreFrame Reset + Add + AppendTo around a 396x64 int32 generation", "speedup_vs_seq", "mjpeg_tcp2"),
	probe("runtime.frame_inject_ns_per_kb", "ns/KiB", "Node.InjectStoreFrame of that frame into a running all-remote node", "speedup_vs_seq", "mjpeg_tcp2"),

	perWorkload("runtime.fetch_share", "share", "lower", "Report.Stages.FetchNs / (workers x wall), traced run", "speedup_vs_seq", "kmeans_native"),
	perWorkload("runtime.exec_share", "share", "higher", "Report.Stages.ExecNs / (workers x wall), traced run", "speedup_vs_seq", "mjpeg_batch, kmeans_vm"),
	perWorkload("runtime.store_share", "share", "lower", "Report.Stages.StoreNs / (workers x wall), traced run", "speedup_vs_seq", "kmeans_native, mjpeg_batch"),
	perWorkload("runtime.idle_share", "share", "lower", "Report.Stages.IdleNs / (workers x wall), traced run", "speedup_vs_seq", "kmeans_native, mjpeg_tcp2"),
	perWorkload("runtime.analyze_busy_share", "share", "lower", "busiest analyzer shard's busy time / wall, traced run", "speedup_vs_seq", "kmeans_native"),
	perWorkload("runtime.queue_wait_ms_per_age", "ms", "lower", "Report.Stages.QueueWaitNs per age (instance clock), traced run", "age_latency_p50_vs_seq", "mjpeg_live"),
	perWorkload("runtime.ready_wait_ms_per_age", "ms", "lower", "Report.Stages.ReadyWaitNs per age (instance clock), traced run", "age_latency_p50_vs_seq", "mjpeg_live, kmeans_native"),
	perWorkload("runtime.stage_coverage", "share", "higher", "reconciliation row: share of workers x wall that fetch+exec+store+idle explain", "-", "all"),

	probe("lang.compile_ms", "ms", "lang.Compile of the K-means template", "setup_s", "kmeans_vm"),
	probe("lang.vm_assign_body_ns", "ns", "one assign KernelDecl.Body call on the bytecode VM, K=100", "speedup_vs_seq", "kmeans_vm"),
	probe("lang.vm_refine_body_us", "us", "one refine KernelDecl.Body call on the bytecode VM, N=2000", "speedup_vs_seq", "kmeans_vm"),
	probe("lang.vm_vs_native_x", "x", "lang.vm_assign_body_ns / kmeans.assign_ns", "speedup_vs_seq", "kmeans_vm"),

	probe("mjpeg.dct_block_ns", "ns", "mjpeg.DCTQuantBlock, naive DCT, one 8x8 block", "speedup_vs_seq (also slows the reference)", "mjpeg_*"),
	probe("mjpeg.vlc_frame_us", "us", "mjpeg.EncodeFrameJPEGFlat of one CIF frame's coefficients", "age_latency_p50_vs_seq (also slows the reference)", "mjpeg_*"),
	probe("kmeans.assign_ns", "ns", "kmeans.AssignFlat, one point against K=100 centroids", "speedup_vs_seq (also slows the reference)", "kmeans_native"),
	probe("kmeans.refine_us", "us", "kmeans.RefineFlat, one centroid over N=2000 points", "speedup_vs_seq (also slows the reference)", "kmeans_native"),
	probe("video.next_frame_us", "us", "video.Synthetic.Next at CIF (input generation, outside every timed region)", "-", "-"),
	perWorkload("ref.seq_ms_per_age", "ms", "lower", "raw median reference milliseconds per age: if this rises, a better *_vs_seq is the reference getting slower", "every *_vs_seq metric", "all"),

	probe("dist.handshake_ms", "ms", "ListenTCP to first kernel dispatch for a master and two TCP workers on a zero-frame MJPEG program", "setup_s", "mjpeg_tcp2"),
	probe("sched.partition_us", "us", "sched.Partition (KL) of the MJPEG final graph over two 1-core nodes", "setup_s", "mjpeg_tcp2"),
	probe("graph.build_final_us", "us", "graph.BuildFinal of the MJPEG program", "setup_s", "mjpeg_tcp2"),
	onlyOn("mjpeg_tcp2", "dist.wire_kb_per_age", "KiB", "bytes crossing the master's sockets per age (ConnStats, both directions)", "speedup_vs_seq"),
	onlyOn("mjpeg_tcp2", "dist.msgs_per_age", "count", "messages crossing the master's sockets per age (ConnStats)", "age_latency_p50_vs_seq"),
	onlyOn("mjpeg_tcp2", "dist.frames_per_age", "count", "store frames brokered per age (dist_frames_total)", "speedup_vs_seq"),
	probe("dist.tcp_frame_rtt_us", "us", "100 KB FrameConn.SendFrame echoed over TCP loopback", "age_latency_p50_vs_seq", "mjpeg_tcp2"),
	onlyOn("mjpeg_tcp2", "dist.quiesce_ms", "ms", "last output written to RunMaster returning", "speedup_vs_seq"),

	perWorkload("obs.metrics_wall_x", "x", "lower", "per-age cost with Options.Metrics set / with it off, interleaved repetitions", "ROADMAP tracing budget (<=1.02)", "mjpeg_batch, kmeans_native"),
	perWorkload("obs.traced_wall_x", "x", "lower", "per-age cost with Metrics and Tracer set / with both off, interleaved repetitions", "ROADMAP tracing budget (<=1.10)", "mjpeg_batch, kmeans_native"),
	probe("obs.hist_observe_ns", "ns", "obs.Histogram.Observe", "obs.metrics_wall_x", "all"),
	probe("obs.span_record_ns", "ns", "obs.Tracer.Record", "obs.traced_wall_x", "all"),
	onlyOn("mjpeg_live", "deadline.miss_share", "share", "share of ages whose raw latency exceeds the 33.3 ms frame period, untraced repetitions", "age_latency_p95_vs_seq"),
	onlyOn("mjpeg_live", "gen.late_p95_ms", "ms", "95th percentile of how late the open-loop generator injected a frame", "age_latency_p95_vs_seq"),
	perWorkload("sim.pred_wall_x", "x", "lower", "MODEL PREDICTION: sim.Model 2-worker wall from the traced Report / measured wall", "-", "mjpeg_batch, kmeans_native"),
}

func findWorkload(name string) *workloadInfo {
	for i := range workloadTable {
		if workloadTable[i].Name == name {
			return &workloadTable[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, wl := range workloadTable {
		names[i] = wl.Name
	}
	return names
}

// writeTables renders the tables README.md embeds (go run ./bench -table).
func writeTables(w io.Writer) {
	fmt.Fprintln(w, "| workload | why it exists, what it bypasses |")
	fmt.Fprintln(w, "|---|---|")
	for _, wl := range workloadTable {
		fmt.Fprintf(w, "| `%s` | %s |\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| end-to-end metric | unit | better | bound | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.2f | %s |\n", m.Name, m.Unit, m.Better, m.Bound, m.What)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| per-layer metric | unit | from | measures | should move | on |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, m := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s |\n", m.Name, m.Unit, m.From, m.What, strings.ReplaceAll(m.Moves, "|", "/"), m.On)
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables (go run . -manifest);
// bench_test.go fails when the checked-in file differs.
func benchmarkJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEndJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []endToEndJSON `json:"end_to_end"`
		PerLayer   []perLayerJSON `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloadTable {
		doc.Workloads = append(doc.Workloads, workloadJSON{wl.Name, wl.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, endToEndJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, perLayerJSON{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
