package runtime

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// TestShardedMultiShardQuiescence runs the aging mul/sum cycle unsplit and
// with its indexed kernels cut into four index shares owned by the one node
// (each then counts as four producers toward field completeness), and
// requires the closed-form result from each: every generation of both fields,
// every kernel's instance and store count, and clean auto-quiescence (the
// pending == 0 check must neither terminate early nor hang) with nothing
// stalled.
func TestShardedMultiShardQuiescence(t *testing.T) {
	const maxAge = 40
	want := map[string][2]int64{ // instances, store operations
		"init":  {1, 1},
		"mul2":  {5 * (maxAge + 1), 5 * (maxAge + 1)},
		"plus5": {5 * (maxAge + 1), 5 * (maxAge + 1)},
		"print": {maxAge + 1, 0},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			n, err := NewNode(mulSum(t), Options{
				Workers: 4, MaxAge: maxAge, Output: io.Discard, Shares: ownAllShares(shards),
			})
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
			checkMulSumFields(t, n, maxAge)
			for _, k := range rep.Kernels {
				if w := want[k.Name]; k.Instances != w[0] || k.StoreOps != w[1] {
					t.Errorf("kernel %s: %d insts/%d stores, want %d/%d", k.Name, k.Instances, k.StoreOps, w[0], w[1])
				}
			}
			if len(rep.ShardEvents) != 1 || rep.ShardEvents[0] == 0 {
				t.Fatalf("ShardEvents = %v, want one non-zero entry", rep.ShardEvents)
			}
		})
	}
}

// TestAnalyzerNoAutoQuiesceStop exercises the distributed-node lifecycle: a
// receiving node (all kernels remote, NoAutoQuiesce) must accept injected
// stores and remote completions, report Idle once they are absorbed, and shut
// down only on Stop().
func TestAnalyzerNoAutoQuiesceStop(t *testing.T) {
	b := core.NewBuilder("shadow")
	b.Field("data", field.Int32, 1, true)
	b.Kernel("produce").Age("a").
		Local("v", field.Int32, 0).
		Store("data", core.AgeVar(0), []core.IndexSpec{core.Lit(0)}, "v").
		Body(func(c *core.Ctx) error { return nil })
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{
		Workers: 2, NoAutoQuiesce: true,
		RemoteKernels: map[string]bool{"produce": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := n.Run(); err != nil {
			t.Errorf("shadow run: %v", err)
		}
	}()
	for age := 0; age < 8; age++ {
		err := n.InjectStore(cellNotice("data", age, field.Int32Val(int32(100+age)), 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InjectRemoteDone("produce", age); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !n.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("shadow node never became idle")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("NoAutoQuiesce node terminated without Stop()")
	default:
	}
	n.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("node did not stop after Stop()")
	}
	for age := 0; age < 8; age++ {
		arr, err := n.Snapshot("data", age)
		if err != nil {
			t.Fatal(err)
		}
		if got := arr.At(0).Int32(); got != int32(100+age) {
			t.Fatalf("data(%d)[0] = %d, want %d", age, got, 100+age)
		}
	}
}

// TestAnalyzerReportStats checks how the analyzer's marks reach the report:
// the queue and backlog high-water marks as recorded, the event count as the
// one ShardEvents entry, and MergeReports summing events while taking the
// maximum of the marks.
func TestAnalyzerReportStats(t *testing.T) {
	n, err := NewNode(mulSum(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.an.maxQueue, n.an.maxBacklog = 30, 7
	n.an.events.Add(12)
	rep := n.buildReport(time.Second)
	if rep.MaxQueueDepth != 30 || rep.MaxEventBacklog != 7 {
		t.Errorf("report marks = %d/%d, want 30/7", rep.MaxQueueDepth, rep.MaxEventBacklog)
	}
	if len(rep.ShardEvents) != 1 || rep.ShardEvents[0] != 12 {
		t.Errorf("ShardEvents = %v, want [12]", rep.ShardEvents)
	}
	if want := "analyzer: 12 events, max backlog 7 batches\n"; !strings.Contains(rep.Table(), want) {
		t.Errorf("Table() missing %q:\n%s", want, rep.Table())
	}
	m := MergeReports(rep, rep)
	if m.MaxQueueDepth != 30 || m.MaxEventBacklog != 7 {
		t.Errorf("merged marks = %d/%d, want the maximum 30/7", m.MaxQueueDepth, m.MaxEventBacklog)
	}
	if len(m.ShardEvents) != 1 || m.ShardEvents[0] != 24 {
		t.Errorf("merged ShardEvents = %v, want [24]", m.ShardEvents)
	}
}

// TestAnalyzerMetricsSurface checks the analyzer's instrumentation end to
// end: a run with a registry surfaces the event counter, the analyze stage
// lane (whose busiest-analyzer mark is the one analyzer's busy time), and the
// attribution line.
func TestAnalyzerMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := NewNode(mulSum(t), Options{Workers: 2, MaxAge: 12, Output: io.Discard, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := reg.Snapshot().Counters[obs.MAnalyzerEvents]
	if events == 0 || events != rep.ShardEvents[0] {
		t.Errorf("%s = %d, report ShardEvents = %v", obs.MAnalyzerEvents, events, rep.ShardEvents)
	}
	if rep.Stages == nil {
		t.Fatal("no stage totals with a registry supplied")
	}
	if rep.Stages.AnalyzeNs <= 0 || rep.Stages.AnalyzeMaxShardNs != rep.Stages.AnalyzeNs {
		t.Errorf("AnalyzeNs = %d, AnalyzeMaxShardNs = %d; want equal and positive", rep.Stages.AnalyzeNs, rep.Stages.AnalyzeMaxShardNs)
	}
	if rep.Stages.WallNs != rep.Wall.Nanoseconds() {
		t.Errorf("WallNs = %d, want %d", rep.Stages.WallNs, rep.Wall.Nanoseconds())
	}
	if !strings.Contains(rep.Table(), "analyzer: ") {
		t.Errorf("Table() missing the analyzer line:\n%s", rep.Table())
	}
	if attr := rep.Attribution(); !strings.Contains(attr, "analyze") {
		t.Errorf("Attribution() missing analyze lane:\n%s", attr)
	}
}

// TestAnalyzerShardsRefused pins what is left of Options.AnalyzerShards: zero
// and one are the node's one analyzer, and anything larger is refused with
// an error naming the field.
func TestAnalyzerShardsRefused(t *testing.T) {
	for _, shards := range []int{0, 1} {
		if _, err := NewNode(mulSum(t), Options{AnalyzerShards: shards}); err != nil {
			t.Errorf("AnalyzerShards %d: %v", shards, err)
		}
	}
	_, err := NewNode(mulSum(t), Options{AnalyzerShards: 2})
	if err == nil || !strings.Contains(err.Error(), "AnalyzerShards") {
		t.Fatalf("AnalyzerShards 2: err = %v, want a refusal naming the field", err)
	}
}

// TestAnalyzerRetiresCollectedAges is the regression test for per-age
// analyzer state under garbage collection: after 20 000 ages of mul/sum the
// analyzer holds a constant number of trackers and field-generation records
// (without retirement it held three trackers and two records per age), and
// the one generation garbage collection leaves still holds the closed form.
func TestAnalyzerRetiresCollectedAges(t *testing.T) {
	const maxAge, bound = 20000, 16
	n, err := NewNode(mulSum(t), Options{Workers: 2, MaxAge: maxAge, GC: true, Output: io.Discard})
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
	retained := 0
	for _, ks := range n.order {
		retained += len(ks.ages)
	}
	for _, fs := range n.fields {
		retained += len(fs.ages)
	}
	if retained >= bound {
		t.Fatalf("analyzer holds %d trackers and field-age records after %d ages, want < %d", retained, maxAge+1, bound)
	}
	if rep.FieldMemElems != 5 {
		t.Errorf("FieldMemElems = %d, want the 5 of the one live generation", rep.FieldMemElems)
	}
	// m_data(maxAge+1) has no consumer inside the bound, so it is the one
	// generation garbage collection leaves.
	m, _ := expectedMulSum(maxAge + 1)
	got, err := n.Snapshot("m_data", maxAge+1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(field.ArrayFromInt32(m[maxAge+1])) {
		t.Fatalf("m_data(%d) = %v, want %v", maxAge+1, got, m[maxAge+1])
	}
}

// TestAnalyzerKeepsNameableTrackers holds garbage collection to retiring only
// the trackers nothing can name any more. K(0) fetches F(0)[x], which fixes
// its domain, and G(0)[x], of which it reads only the first half. F(0)
// completes late — its second producer P2 sleeps and stores nothing — so K(0)
// finishes inside F(0)'s completion and F(0) is collected there, while the
// slow slice of Q is still to store G(0)'s second half. Those stores name
// K(0) again: retired early, it would be created anew over a dropped F(0) and
// never finish.
func TestAnalyzerKeepsNameableTrackers(t *testing.T) {
	b := core.NewBuilder("retire")
	for _, f := range []string{"S", "T", "F", "G", "R"} {
		b.Field(f, field.Int32, 1, true)
	}
	fill := func(local string, n int) func(c *core.Ctx) {
		return func(c *core.Ctx) {
			a := c.Array(local)
			a.Grow(n)
			for i := range a.Int32s() {
				a.Int32s()[i] = int32(i)
			}
		}
	}
	fillS, fillT := fill("s", 4), fill("t", 8)
	b.Kernel("init").
		Local("s", field.Int32, 1).Local("t", field.Int32, 1).
		StoreAll("S", core.AgeAt(0), "s").StoreAll("T", core.AgeAt(0), "t").
		Body(func(c *core.Ctx) error { fillS(c); fillT(c); return nil })
	b.Kernel("P1").Age("a").Index("x").
		Local("v", field.Int32, 0).
		Fetch("v", "S", core.AgeVar(0), core.Idx("x")).
		Store("F", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "v").
		Body(func(c *core.Ctx) error { return nil })
	b.Kernel("P2").Age("a").
		Local("s", field.Int32, 1).Local("v", field.Int32, 0).
		FetchAll("s", "S", core.AgeVar(0)).
		Store("F", core.AgeVar(0), []core.IndexSpec{core.Lit(0)}, "v").
		Body(func(c *core.Ctx) error { time.Sleep(50 * time.Millisecond); return nil })
	b.Kernel("Q").Age("a").Index("y").
		Local("v", field.Int32, 0).
		Fetch("v", "T", core.AgeVar(0), core.Idx("y")).
		Store("G", core.AgeVar(0), []core.IndexSpec{core.Idx("y")}, "v").
		Body(func(c *core.Ctx) error {
			if c.Index("y") >= 4 {
				time.Sleep(40 * time.Millisecond)
			}
			return nil
		})
	b.Kernel("K").Age("a").Index("x").
		Local("f", field.Int32, 0).Local("g", field.Int32, 0).
		Fetch("f", "F", core.AgeVar(0), core.Idx("x")).
		Fetch("g", "G", core.AgeVar(0), core.Idx("x")).
		Store("R", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "f").
		Body(func(c *core.Ctx) error { c.SetInt32("f", c.Int32("f")+c.Int32("g")); return nil })
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{Workers: 3, MaxAge: 0, GC: true, Granularity: map[string]int{"Q": 4}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runOrTimeout(t, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	if k := rep.Kernel("K"); k.Instances != 4 {
		t.Errorf("K ran %d instances, want 4", k.Instances)
	}
	r, err := n.Snapshot("R", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(field.ArrayFromInt32([]int32{0, 2, 4, 6})) {
		t.Errorf("R(0) = %v, want [0 2 4 6]", r)
	}
	// Both generations K(0) fetches were collected, so nothing about K(0) or
	// F(0) is left — a tracker created anew would have brought F(0)'s record
	// back, never to complete.
	if k, f := len(n.kernels["K"].ages), len(n.fields["F"].ages); k != 0 || f != 0 {
		t.Errorf("%d K trackers and %d F(0) records left, want none", k, f)
	}
}
