package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/video"
	"repro/internal/workloads"
)

// TestClockOffsetEstimate runs the Cristian-style probe exchange against a
// fake worker whose clock is skewed by a known amount; over an in-process
// pipe the RTT is microseconds, so the estimate must land near the skew.
func TestClockOffsetEstimate(t *testing.T) {
	const skew = 50 * time.Millisecond
	mc, wc := InprocPipe()
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < clockProbes; i++ {
			m, err := wc.Recv()
			if err != nil {
				done <- err
				return
			}
			if m.Kind != MClockProbe {
				done <- fmt.Errorf("fake worker got %v, want MClockProbe", m.Kind)
				return
			}
			if err := wc.Send(&Msg{
				Kind:   MClockEcho,
				SentNs: m.SentNs,
				NodeNs: time.Now().Add(skew).UnixNano(),
			}); err != nil {
				done <- err
				return
			}
		}
	}()
	off, err := estimateClockOffset(mc, clockProbes)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	diff := off - skew.Nanoseconds()
	if diff < 0 {
		diff = -diff
	}
	// Generous tolerance for a loaded single-core CI host; the skew is 25×
	// bigger, so a sign error or an unsubtracted RTT would still fail.
	if diff > (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("offset = %v, want ~%v (err %v)", time.Duration(off), skew, time.Duration(diff))
	}
}

// TestClockOffsetEstimateError covers the failure path: a peer that answers
// with the wrong kind aborts the sync instead of producing a junk offset.
func TestClockOffsetEstimateError(t *testing.T) {
	mc, wc := InprocPipe()
	go func() {
		m, _ := wc.Recv()
		wc.Send(&Msg{Kind: MStatus, SentNs: m.SentNs})
	}()
	if _, err := estimateClockOffset(mc, 1); err == nil {
		t.Error("estimateClockOffset accepted a non-echo reply")
	}
}

// TestDistributedTraceMerged is the tentpole end-to-end check: MJPEG over two
// TCP workers with tracing on everywhere must yield one merged, clock-aligned
// Chrome trace — master broker spans and both workers' emit/inject spans
// linked by shared causal trace ids.
func TestDistributedTraceMerged(t *testing.T) {
	workloads.RegisterPayloads()
	const frames = 3
	mkProg := func() *core.Program {
		return workloads.MJPEG(workloads.MJPEGConfig{
			Source:  video.NewSynthetic(32, 32, frames, 4),
			Quality: 70,
		})
	}

	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 2
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := DialTCP(l.Addr())
			if err != nil {
				errs <- err
				return
			}
			// Worker 0 brings its own tracer; worker 1 has none and must
			// get one from the assignment's TraceOn bit — cluster tracing
			// only requires the master's flag.
			var tracer *obs.Tracer
			if i == 0 {
				tracer = obs.NewTracer(obs.DefaultTraceCapacity)
			}
			if _, err := RunWorker(WorkerConfig{
				NodeID:  fmt.Sprintf("w%d", i),
				Cores:   2,
				Prog:    mkProg(),
				Metrics: obs.NewRegistry(),
				Tracer:  tracer,
			}, conn); err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}(i)
	}
	conns := make([]Conn, n)
	for i := range conns {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	masterTracer := obs.NewTracer(obs.DefaultTraceCapacity)
	res, err := RunMaster(MasterConfig{
		Prog:    mkProg(),
		Metrics: obs.NewRegistry(), Tracer: masterTracer,
	}, conns)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}

	// Every worker handed its span buffer and clock offset to the master.
	if len(res.Traces) != n {
		t.Fatalf("collected %d node traces, want %d", len(res.Traces), n)
	}
	if len(res.ClockOffsets) != n {
		t.Fatalf("clock offsets %v, want %d entries", res.ClockOffsets, n)
	}
	emitTraces := map[uint64]bool{}
	injectTraces := map[uint64]bool{}
	for _, nt := range res.Traces {
		if nt.Node == "" || nt.PID < 2 || nt.StartUnixNs == 0 {
			t.Errorf("node trace bundle incomplete: %+v", nt)
		}
		if len(nt.Spans) == 0 {
			t.Errorf("node %s sent no spans", nt.Node)
		}
		for _, s := range nt.Spans {
			if s.Trace == 0 || s.Cat != "dist" {
				continue
			}
			switch s.Flow {
			case obs.FlowStart:
				emitTraces[s.Trace] = true
			case obs.FlowFinish:
				injectTraces[s.Trace] = true
			}
		}
	}
	if len(emitTraces) == 0 {
		t.Error("no emit spans with causal trace ids on any worker")
	}
	brokerTraces := map[uint64]bool{}
	for _, s := range masterTracer.Spans() {
		if s.Cat == "dist" && s.Trace != 0 && s.Flow == obs.FlowStep {
			brokerTraces[s.Trace] = true
		}
	}
	if len(brokerTraces) == 0 {
		t.Error("master recorded no broker spans with causal trace ids")
	}
	// Causality: a frame emitted on one node was brokered by the master, and
	// at least one brokered frame was injected on a subscriber node.
	linked := 0
	for id := range emitTraces {
		if brokerTraces[id] {
			linked++
		}
	}
	if linked == 0 {
		t.Errorf("no trace id appears in both an emit span (%d) and a broker span (%d)",
			len(emitTraces), len(brokerTraces))
	}
	crossed := 0
	for id := range injectTraces {
		if brokerTraces[id] {
			crossed++
		}
	}
	if crossed == 0 {
		t.Errorf("no trace id crossed broker (%d) to inject (%d)",
			len(brokerTraces), len(injectTraces))
	}

	// Workers reported stage attribution including transport flight.
	for id, rep := range res.Reports {
		if rep.Stages == nil {
			t.Errorf("node %s report has no stage attribution", id)
			continue
		}
		if rep.Stages.FlightNs < 0 {
			t.Errorf("node %s FlightNs = %d", id, rep.Stages.FlightNs)
		}
	}

	// The merged file is valid Chrome trace JSON: one process per node, all
	// timestamps on one non-negative timeline, flow events linking nodes.
	bundles := append([]obs.NodeTrace{masterTracer.NodeTrace("master", 1)}, res.Traces...)
	var buf bytes.Buffer
	if err := obs.WriteMergedChromeTrace(&buf, bundles); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			PID  int            `json:"pid"`
			TS   float64        `json:"ts"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	procs := map[int]string{}
	flowPhases := map[string]bool{}
	pids := map[int]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID], _ = ev.Args["name"].(string)
			continue
		}
		pids[ev.PID] = true
		if ev.TS < 0 {
			t.Fatalf("event %q at negative ts %f", ev.Name, ev.TS)
		}
		if ev.Cat == "dist.flow" {
			if ev.ID == "" {
				t.Fatalf("flow event without id: %+v", ev)
			}
			flowPhases[ev.Ph] = true
		}
	}
	if len(procs) != n+1 {
		t.Errorf("process_name metadata for %d pids, want %d: %v", len(procs), n+1, procs)
	}
	if len(pids) != n+1 {
		t.Errorf("events span %d pids, want %d", len(pids), n+1)
	}
	for _, ph := range []string{"s", "t", "f"} {
		if !flowPhases[ph] {
			t.Errorf("merged trace has no %q flow events (got %v)", ph, flowPhases)
		}
	}
}
