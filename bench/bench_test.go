package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/kmeans"
)

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func smokeConfig(workload string, traced bool, dir string) runConfig {
	return runConfig{workload: workload, seed: 7, traced: traced, shape: smokeShape, minReps: 2, probeBudget: 2 * time.Millisecond, traceDir: dir}
}

// lastLine round-trips a result through the JSON the command prints.
func lastLine(t *testing.T, res *result) result {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result does not marshal: %v", err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("result does not parse: %v", err)
	}
	return back
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, wl := range workloadTable {
		t.Run(wl.Name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(smokeConfig(wl.Name, false, ""), &out)
			if err != nil {
				t.Fatal(err)
			}
			got := lastLine(t, res)
			if !got.Correct || got.Failed != 0 || got.Attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", got.Correct, got.Attempted, got.Failed, out.String())
			}
			if len(got.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(got.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("report does not name %s", m.Name)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	res, err := run(smokeConfig("kmeans_native", true, dir), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := lastLine(t, res)
	if !got.Correct {
		t.Fatalf("traced run incorrect:\n%s", out.String())
	}
	if len(got.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(got.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || v.Value < 0 {
			t.Errorf("%s = %+v (present %v)", m.Name, v, ok)
		}
	}
	if cov := got.Metrics["runtime.stage_coverage"].Value; cov <= 0 || cov > 1.05 {
		t.Errorf("runtime.stage_coverage = %v", cov)
	}

	traces, _ := filepath.Glob(filepath.Join(dir, "trace_*.json"))
	if len(traces) != 1 {
		t.Fatalf("trace files: %v", traces)
	}
	data, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct{ ID, Parent, Age int }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		seen[ev.Name] = true
		if ev.Args.ID != i || ev.Args.Parent >= i {
			t.Fatalf("span %d has id %d parent %d", i, ev.Args.ID, ev.Args.Parent)
		}
	}
	for _, name := range []string{"setup", "repetition", "reference", "inject", "output"} {
		if !seen[name] {
			t.Errorf("no %q span in the trace", name)
		}
	}
}

func TestManifest(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}

	used := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRule.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if kind != "workload" && !unitRule.MatchString(unit) {
			t.Errorf("%s %s: unit %q breaks the unit rule", kind, name, unit)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	for _, wl := range workloadTable {
		check("workload", wl.Name, "")
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
		if _, err := newWorkload(wl.Name, 1, smokeShape); err != nil {
			t.Errorf("workload %s is in the table but cannot be built: %v", wl.Name, err)
		}
	}
	for _, m := range endToEnd {
		check("end-to-end", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	derived := map[string]bool{"lang.vm_vs_native_x": true}
	for _, m := range perLayer {
		check("per-layer", m.Name, m.Unit)
		_, hasProbe := probes[m.Name]
		if wantProbe := m.From == "probe" && !derived[m.Name]; hasProbe != wantProbe {
			t.Errorf("%s: from %q but probe present = %v", m.Name, m.From, hasProbe)
		}
		if m.From != "probe" && m.From != "run" && findWorkload(m.From) == nil {
			t.Errorf("%s: from %q is neither probe, run nor a workload", m.Name, m.From)
		}
	}
	if len(probes)+len(derived) != countFrom("probe") {
		t.Errorf("%d probes for %d probe rows", len(probes), countFrom("probe"))
	}
}

// The README's tables are the output of -table, so prose and program cannot
// disagree about a name, a unit, a bound or an interaction.
func TestREADMETables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var tables bytes.Buffer
	writeTables(&tables)
	if !bytes.Contains(readme, tables.Bytes()) {
		t.Error("README.md does not contain the current tables; paste the output of: bash bench/run.sh -table")
	}
}

func countFrom(from string) int {
	n := 0
	for _, m := range perLayer {
		if m.From == from {
			n++
		}
	}
	return n
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, wl := range workloadTable {
		a, err := newWorkload(wl.Name, 11, smokeShape)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(wl.Name, 11, smokeShape)
		c, _ := newWorkload(wl.Name, 12, smokeShape)
		if a.inputHash != b.inputHash {
			t.Errorf("%s: seed 11 hashed to %x and %x", wl.Name, a.inputHash, b.inputHash)
		}
		if a.inputHash == c.inputHash {
			t.Errorf("%s: seeds 11 and 12 gave the same input", wl.Name)
		}
	}
	if kmeansSource(11) != kmeansSource(11) || kmeansSource(11) == kmeansSource(12) {
		t.Error(".p2g text does not follow the seed")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {1, 9}, {0.25, 3}, {0.95, 8.6}, {0.1, 1.8}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := percentile([]float64{42}, 0.95); got != 42 {
		t.Errorf("percentile of one = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of powers = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

// A repetition that errors or differs from the oracle counts every one of
// its ages as failed and contributes to no metric.
func TestFailedRepetitionCountsAllAges(t *testing.T) {
	w := &workload{name: "x", ages: 20}
	var m modeStats
	m.add(w, rep{wall: time.Second, cpu: time.Second, lat: make([]time.Duration, 20)}, refSample{wall: 0.01, cpu: 0.01}, memDelta{})
	m.add(w, rep{err: errors.New("frame 3 differs")}, refSample{wall: 0.01, cpu: 0.01}, memDelta{})
	if m.ages != 40 || m.failed != 20 || len(m.speedup) != 1 || len(m.lat) != 20 || m.firstErr == nil {
		t.Errorf("ages %d failed %d speedups %d latencies %d err %v", m.ages, m.failed, len(m.speedup), len(m.lat), m.firstErr)
	}
}

func TestOracleRejectsWrongOutput(t *testing.T) {
	in, err := newMJPEGInput(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.check(in.oracle); err != nil {
		t.Errorf("oracle rejects itself: %v", err)
	}
	bad := [][]byte{in.oracle[0], append([]byte(nil), in.oracle[1]...)}
	bad[1][len(bad[1])/2] ^= 1
	if in.check(bad) == nil || in.check(bad[:1]) == nil {
		t.Error("oracle accepted a flipped bit or a missing frame")
	}
	km := newKMeansInput(lcgPoints(5))
	cents := append([]kmeans.Point(nil), km.oracle...)
	if err := km.check(cents); err != nil {
		t.Errorf("K-means oracle rejects itself: %v", err)
	}
	cents[3] = kmeans.Point{cents[3][0] + 1e-9, cents[3][1]}
	if km.check(cents) == nil {
		t.Error("K-means oracle accepted a moved centroid")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64) string {
		lf := ledgerFile{Env: hostEnv()}
		for _, wl := range workloadTable {
			for seed := uint64(1); seed <= 4; seed++ {
				r := ledgerRun{Workload: wl.Name, Seed: seed, Seconds: 1, result: result{Correct: true, Attempted: 1, Metrics: map[string]value{}}}
				for _, m := range endToEnd {
					f := scale[wl.Name+"/"+m.Name]
					if f == 0 {
						f = 1
					}
					r.Metrics[m.Name] = value{(10 + 0.01*float64(seed)) * f, m.Unit}
				}
				lf.Runs = append(lf.Runs, r)
			}
		}
		data, err := json.Marshal(lf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", nil)
	for _, c := range []struct {
		name  string
		scale map[string]float64
		ok    bool
	}{
		{"same", nil, true},
		{"within", map[string]float64{"mjpeg_batch/speedup_vs_seq": 0.85, "kmeans_vm/setup_s": 1.2}, true},
		{"better", map[string]float64{"mjpeg_batch/speedup_vs_seq": 1.5, "mjpeg_live/cpu_vs_seq": 0.5}, true},
		{"slower", map[string]float64{"mjpeg_tcp2/speedup_vs_seq": 0.78}, false},
		{"more allocs", map[string]float64{"kmeans_native/allocs_per_age": 1.12}, false},
	} {
		ok, err := compareLedgers(io.Discard, base, write(c.name+".json", c.scale))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: compare passed = %v, want %v", c.name, ok, c.ok)
		}
	}
	if _, err := compareLedgers(io.Discard, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("comparing with a missing ledger must fail")
	}
}
