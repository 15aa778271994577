package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this doubles as the lock-freedom
// soundness check the issue asks for.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			ga := r.Gauge("g")
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(3 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	const want = goroutines * perG
	if got := r.Counter("c").Load(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("g").Load(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	h := r.Histogram("h")
	if h.Count() != want {
		t.Errorf("hist count = %d, want %d", h.Count(), want)
	}
	if got := h.SumNs(); got != want*3000 {
		t.Errorf("hist sum = %d, want %d", got, want*3000)
	}
	s := h.Snapshot()
	if s.Buckets[bucketOf(3*time.Microsecond)] != want {
		t.Errorf("all observations should land in one bucket: %v", s.Buckets)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter should load 0")
	}
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(time.Second)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "disabled") {
		t.Errorf("nil snapshot text = %q", sb.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{1024 * time.Microsecond, 11},
		{24 * time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if BucketBoundUS(histBuckets-1) != -1 {
		t.Error("last bucket must be unbounded")
	}
	if BucketBoundUS(3) != 8 {
		t.Errorf("BucketBoundUS(3) = %d, want 8", BucketBoundUS(3))
	}
}

// TestHistogramBatch: observations flushed through a batch are
// indistinguishable from observations made directly, on every target.
func TestHistogramBatch(t *testing.T) {
	var direct, viaBatch, second Histogram
	var b HistogramBatch
	for _, d := range []time.Duration{0, 900 * time.Nanosecond, time.Microsecond, 37 * time.Microsecond, time.Second, 1 << 40} {
		direct.Observe(d)
		b.Observe(d)
	}
	b.Flush(&viaBatch, nil, &second)
	for _, h := range []*Histogram{&viaBatch, &second} {
		if got, want := h.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("batched histogram %+v, direct %+v", got, want)
		}
	}
	b.Flush(&viaBatch) // empty after a flush: adds nothing
	if viaBatch.Count() != direct.Count() {
		t.Errorf("flushing an empty batch changed the count to %d", viaBatch.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond) // bucket bound 16µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000 * time.Microsecond) // bucket bound 1024µs
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 16*time.Microsecond {
		t.Errorf("p50 = %v, want 16µs", q)
	}
	if q := s.Quantile(0.99); q != 1024*time.Microsecond {
		t.Errorf("p99 = %v, want 1024µs", q)
	}
}

func TestLabelRoundTrip(t *testing.T) {
	full := Label("kernel_instances_total", "kernel", "mul2")
	if full != `kernel_instances_total{kernel="mul2"}` {
		t.Fatalf("Label = %q", full)
	}
	name, val := SplitLabel(full)
	if name != "kernel_instances_total" || val != "mul2" {
		t.Errorf("SplitLabel = %q, %q", name, val)
	}
	name, val = SplitLabel("plain_metric")
	if name != "plain_metric" || val != "" {
		t.Errorf("SplitLabel(plain) = %q, %q", name, val)
	}
}

func TestSnapshotMergeAndText(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(2)
	a.Gauge("g").Set(5)
	a.Histogram("h").Observe(time.Microsecond)
	b := NewRegistry()
	b.Counter("c").Add(3)
	b.Counter("only_b").Add(1)
	b.Gauge("g").Set(7)
	b.Histogram("h").Observe(time.Microsecond)

	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if m.Counters["c"] != 5 || m.Counters["only_b"] != 1 {
		t.Errorf("merged counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 12 {
		t.Errorf("merged gauge = %d, want 12", m.Gauges["g"])
	}
	if m.Histograms["h"].Count != 2 {
		t.Errorf("merged hist count = %d, want 2", m.Histograms["h"].Count)
	}

	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"c 5", "g 12", "h_count 2", "h_sum_ns", "h_p50_us", "h_p99_us"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}
