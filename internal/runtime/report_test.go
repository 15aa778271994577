package runtime

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTableGolden pins the exact table layout: header and row cells share
// column widths, so the Dispatch/Kernel columns cannot drift.
func TestTableGolden(t *testing.T) {
	r := &Report{
		Kernels: []KernelStats{
			{Name: "mul2", Instances: 500, Slices: 20, Lockstep: 480, DispatchTotal: 500 * 12340 * time.Nanosecond, KernelTotal: 500 * 1230 * time.Nanosecond},
			{Name: "print", Instances: 1, Slices: 1, DispatchTotal: 2160 * time.Microsecond, KernelTotal: 170 * time.Microsecond},
		},
	}
	want := "" +
		"Kernel            Instances     Slices   Lockstep    Dispatch Time      Kernel Time\n" +
		"mul2                    500         20        480         12.34 µs          1.23 µs\n" +
		"print                     1          1          0       2160.00 µs        170.00 µs\n"
	if got := r.Table(); got != want {
		t.Errorf("Table() =\n%s\nwant:\n%s", got, want)
	}
}

// TestTableSummaryLines checks the lockstep, queue and transport footers
// appear when the run recorded them.
func TestTableSummaryLines(t *testing.T) {
	r := &Report{
		Kernels:         []KernelStats{{Name: "k", Instances: 70, Lockstep: 56, Declined: 14}},
		MaxQueueDepth:   7,
		MaxEventBacklog: 3,
		Steals:          2,
		EventBatches:    5,
		SentMsgs:        10, SentBytes: 2048, RecvMsgs: 4, RecvBytes: 512,
	}
	got := r.Table()
	for _, want := range []string{
		"lockstep: the slice body of k declined 14 instances, which ran one by one",
		"queue: max depth 7 insts, max event backlog 3 batches, 2 steals, 5 event batches",
		"transport: sent 10 msgs / 2048 B, received 4 msgs / 512 B",
	} {
		if !bytes.Contains([]byte(got), []byte(want)) {
			t.Errorf("Table() missing %q:\n%s", want, got)
		}
	}
}

// TestMergeReportsFieldMem covers the former bug where the merged
// FieldMemElems was always zero, plus the new transport/queue columns.
func TestMergeReportsFieldMem(t *testing.T) {
	a := &Report{
		Wall: 2 * time.Second, FieldMemElems: 100,
		MaxQueueDepth: 5, MaxEventBacklog: 2,
		Steals: 3, EventBatches: 7,
		SentMsgs: 10, RecvMsgs: 20, SentBytes: 1000, RecvBytes: 2000,
		Kernels: []KernelStats{{Name: "k", Instances: 3}},
	}
	b := &Report{
		Wall: 3 * time.Second, FieldMemElems: 42,
		MaxQueueDepth: 9, MaxEventBacklog: 1,
		Steals: 1, EventBatches: 2,
		SentMsgs: 1, RecvMsgs: 2, SentBytes: 30, RecvBytes: 40,
		Kernels: []KernelStats{{Name: "k", Instances: 4}},
	}
	m := MergeReports(a, nil, b)
	if m.FieldMemElems != 142 {
		t.Errorf("merged FieldMemElems = %d, want 142", m.FieldMemElems)
	}
	if m.Wall != 3*time.Second {
		t.Errorf("merged Wall = %v, want max 3s", m.Wall)
	}
	if m.MaxQueueDepth != 9 || m.MaxEventBacklog != 2 {
		t.Errorf("merged queue columns = %d/%d, want 9/2", m.MaxQueueDepth, m.MaxEventBacklog)
	}
	if m.Steals != 4 || m.EventBatches != 9 {
		t.Errorf("merged scheduler counters = %d steals/%d batches, want 4/9", m.Steals, m.EventBatches)
	}
	if m.SentMsgs != 11 || m.RecvMsgs != 22 || m.SentBytes != 1030 || m.RecvBytes != 2040 {
		t.Errorf("merged transport = %+v", m)
	}
	if m.Kernel("k").Instances != 7 {
		t.Errorf("merged instances = %d, want 7", m.Kernel("k").Instances)
	}
}

// TestReportProjectsRegistry runs a program with an external registry and
// checks the report and the registry agree exactly — the report is a
// projection, not a second set of books.
func TestReportProjectsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := Run(mulSum(t), Options{Workers: 2, MaxAge: 3, Output: io.Discard, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rep.Kernels {
		c := reg.Counter(obs.Label(obs.MKernelInstances, "kernel", k.Name))
		if c.Load() != k.Instances {
			t.Errorf("kernel %s: registry %d vs report %d", k.Name, c.Load(), k.Instances)
		}
	}
	if got := reg.Counter(obs.MDispatchesTotal).Load(); got != rep.TotalInstances() {
		t.Errorf("dispatches counter = %d, want %d", got, rep.TotalInstances())
	}
	if got := reg.Histogram(obs.MKernelNs).Count(); got != rep.TotalInstances() {
		t.Errorf("kernel histogram count = %d, want %d", got, rep.TotalInstances())
	}
	if got := reg.Gauge(obs.MFieldMemElems).Load(); got != int64(rep.FieldMemElems) {
		t.Errorf("field mem gauge = %d, report %d", got, rep.FieldMemElems)
	}
	if rep.MaxQueueDepth <= 0 {
		t.Errorf("MaxQueueDepth = %d, want > 0", rep.MaxQueueDepth)
	}
}

// TestSharedRegistryTwoRuns reuses one registry across two nodes: the
// second report must count only its own instances (baseline subtraction).
func TestSharedRegistryTwoRuns(t *testing.T) {
	reg := obs.NewRegistry()
	r1, err := Run(mulSum(t), Options{Workers: 1, MaxAge: 2, Output: io.Discard, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(mulSum(t), Options{Workers: 1, MaxAge: 2, Output: io.Discard, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalInstances() != r2.TotalInstances() {
		t.Errorf("reports differ across identical runs: %d vs %d", r1.TotalInstances(), r2.TotalInstances())
	}
	want := r1.TotalInstances() + r2.TotalInstances()
	if got := reg.Counter(obs.MDispatchesTotal).Load(); got != want {
		t.Errorf("shared registry total = %d, want %d", got, want)
	}
}

// TestTraceRoundTripRun runs a real program with tracing and checks the
// exported file is valid Chrome trace_event JSON with one complete slice per
// kernel instance, each carrying kernel name, age and index args.
func TestTraceRoundTripRun(t *testing.T) {
	tr := obs.NewTracer(1 << 14)
	rep, err := Run(mulSum(t), Options{Workers: 2, MaxAge: 3, Output: io.Discard, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var slices, commits int64
	kernels := map[string]bool{}
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "kernel":
			slices++
			kernels[ev.Name] = true
			if _, ok := ev.Args["age"]; !ok {
				t.Fatalf("slice %q missing age arg", ev.Name)
			}
			if ev.Name == "mul2" {
				if _, ok := ev.Args["index"]; !ok {
					t.Fatalf("indexed kernel slice missing index arg")
				}
			}
		case ev.Ph == "i" && ev.Cat == "commit":
			commits++
		}
	}
	if want := rep.TotalInstances(); slices != want || commits != want {
		t.Errorf("trace has %d slices / %d commits, want %d each", slices, commits, want)
	}
	for _, k := range rep.Kernels {
		if k.Instances > 0 && !kernels[k.Name] {
			t.Errorf("no slice for kernel %q", k.Name)
		}
	}
}
