package dist

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// TestStartHandshakeError: a wrong-kind start message used to produce
// "dist: waiting for start: <nil>" because the nil Recv error and the
// unexpected kind shared one format string. The error must now name the
// offending kind, and surface the master's reason when an MError arrived.
func TestStartHandshakeError(t *testing.T) {
	cases := []struct {
		name string
		msg  *Msg
		want []string
	}{
		{"wrong kind", &Msg{Kind: MPing}, []string{"waiting for start", "MPing"}},
		{"master error", &Msg{Kind: MError, Err: "partition failed"}, []string{"waiting for start", "partition failed"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc, wc := pipe(t)
			done := make(chan error, 1)
			go func() {
				_, err := RunWorker(WorkerConfig{NodeID: "w", Cores: 1, Prog: workloads.MulSum(), MaxAge: 2}, wc)
				done <- err
			}()
			if m, err := mc.Recv(); err != nil || m.Kind != MRegister {
				t.Fatalf("registration: %v", err)
			}
			if err := mc.Send(&Msg{Kind: MAssign, Kernels: []string{"init", "mul2", "plus5", "print"}}); err != nil {
				t.Fatal(err)
			}
			if err := mc.Send(tc.msg); err != nil {
				t.Fatal(err)
			}
			err := <-done
			if err == nil {
				t.Fatal("worker accepted a bad start handshake")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if strings.Contains(err.Error(), "<nil>") {
				t.Errorf("error %q still formats the nil transport error", err)
			}
		})
	}
}

// failAfterConn passes through to the wrapped Conn but fails every Send after
// the first n — a half-closed pipe: the worker can still receive (or block
// receiving) while its sends go nowhere.
type failAfterConn struct {
	Conn
	allow atomic.Int64
}

func (c *failAfterConn) Send(m *Msg) error {
	if c.allow.Add(-1) < 0 {
		return errors.New("simulated half-closed pipe")
	}
	return c.Conn.Send(m)
}

// TestWorkerSendFailureTeardown: a worker whose sends fail must tear down
// promptly even if the master never speaks again. The old loop polled sendErr
// only before a blocking Recv, so a dead send path went unnoticed until the
// next ping.
func TestWorkerSendFailureTeardown(t *testing.T) {
	mc, wc := pipe(t)
	fc := &failAfterConn{Conn: wc}
	fc.allow.Store(1) // registration only; every later send fails
	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(WorkerConfig{NodeID: "w", Cores: 1, Prog: workloads.MulSum(), MaxAge: 4}, fc)
		done <- err
	}()
	if m, err := mc.Recv(); err != nil || m.Kind != MRegister {
		t.Fatalf("registration: %v", err)
	}
	if err := mc.Send(&Msg{Kind: MAssign, Kernels: []string{"init", "mul2", "plus5", "print"}}); err != nil {
		t.Fatal(err)
	}
	if err := mc.Send(&Msg{Kind: MStart}); err != nil {
		t.Fatal(err)
	}
	// The master now goes silent. The worker's first store/done send fails;
	// the run loop must notice via sendErr without waiting for a receive.
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "sending to master") {
			t.Fatalf("worker error = %v, want send failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker stalled on a dead send path")
	}
}

// TestBrokerReadersExit: after a master failure the per-connection reader
// goroutines must exit even when far more messages are queued than the inbox
// buffer holds. The old readers blocked forever sending into the full inbox.
func TestBrokerReadersExit(t *testing.T) {
	baseline := goroutineCountStable(t)
	mc, wc := pipe(t)
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		if err := wc.Send(&Msg{Kind: MRegister, NodeID: "w", Cores: 1, Speed: 1}); err != nil {
			return
		}
		wc.Recv() // assignment
		wc.Recv() // start
		// Flood stores to an unknown field: the first one fails the
		// master's log append; the rest overfill the 1024-entry inbox,
		// so the reader must block with more waiting in the socket
		// buffer.
		for i := 0; i < 3000; i++ {
			if wc.Send(storeFrameMsg(runtime.StoreNotice{Field: "nope", Value: field.Int32Val(1)})) != nil {
				break
			}
		}
		wc.Close()
	}()
	_, err := RunMaster(MasterConfig{Prog: workloads.MulSum()}, []Conn{mc})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("master error = %v, want unknown-field failure", err)
	}
	<-workerDone
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := goruntime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d before\n%s",
				n, baseline, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutineCountStable samples the goroutine count after giving leftover
// goroutines from earlier tests a moment to finish.
func goroutineCountStable(t *testing.T) int {
	t.Helper()
	last := goruntime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		n := goruntime.NumGoroutine()
		if n == last {
			return n
		}
		last = n
	}
	return last
}

// storeFrameMsg wraps one store notice in a one-entry MStoreFrame, the way a
// scripted (fake) worker publishes a store.
func storeFrameMsg(sn runtime.StoreNotice) *Msg {
	var f runtime.StoreFrame
	f.Reset(sn.Field, sn.Age)
	if err := f.Add(sn); err != nil {
		panic(err)
	}
	return &Msg{Kind: MStoreFrame, Field: sn.Field, Age: sn.Age, Frame: f.Bytes()}
}

// bigStoreProg stores one elems-element int32 generation; the slab dominates
// the run's allocations so pool reuse across runs is measurable.
func bigStoreProg(t testing.TB, elems int) *core.Program {
	t.Helper()
	b := core.NewBuilder("big")
	b.Field("data", field.Int32, 1, true)
	b.Kernel("src").
		Local("v", field.Int32, 1).
		StoreAll("data", core.AgeAt(0), "v").
		Body(func(c *core.Ctx) error {
			vs := c.Array("v")
			for i := 0; i < elems; i++ {
				vs.Put(field.Int32Val(int32(i)), i)
			}
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// driveWorker scripts a minimal master over mc: assign every kernel, start,
// ping to quiescence, stop, and collect the report.
func driveWorker(t *testing.T, mc Conn, kernels []string) {
	t.Helper()
	if m, err := mc.Recv(); err != nil || m.Kind != MRegister {
		t.Fatalf("registration: %v", err)
	}
	if err := mc.Send(&Msg{Kind: MAssign, Kernels: kernels}); err != nil {
		t.Fatal(err)
	}
	if err := mc.Send(&Msg{Kind: MStart}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := mc.Send(&Msg{Kind: MPing}); err != nil {
			t.Fatal(err)
		}
		m, err := mc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == MStatus && m.Idle && m.Sent > 0 {
			break
		}
		if m.Kind == MStatus {
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := mc.Send(&Msg{Kind: MStopReq}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := mc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == MReport {
			return
		}
	}
}

// TestWorkerReleasePoolReuse: RunWorker must return its node's generations to
// the slab pools on shutdown (the MStopReq path used to skip Release), so a
// long-lived worker process reuses slabs across back-to-back programs instead
// of growing without bound.
func TestWorkerReleasePoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops Puts under the race detector")
	}
	const elems = 1 << 16
	slabBytes := uint64(4 * elems)
	prog := bigStoreProg(t, elems)
	runOnce := func() {
		mc, wc := pipe(t)
		done := make(chan error, 1)
		go func() {
			_, err := RunWorker(WorkerConfig{NodeID: "w", Cores: 1, Prog: prog}, wc)
			done <- err
		}()
		driveWorker(t, mc, []string{"src"})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		mc.Close()
	}

	// sync.Pool is sharded per P and Get prefers the local shard, so stray
	// small generations parked on other Ps by earlier tests can shadow the
	// released slab. One P makes pool traffic (and the drain) deterministic.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	field.DrainAgePoolsForTest()
	// sync.Pool empties on GC; pin collection off so a mid-measurement
	// cycle cannot turn pool hits into reallocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var m0, m1, m2 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	runOnce()
	goruntime.ReadMemStats(&m1)
	runOnce()
	goruntime.ReadMemStats(&m2)
	first := m1.TotalAlloc - m0.TotalAlloc
	second := m2.TotalAlloc - m1.TotalAlloc
	if second+slabBytes/2 > first {
		t.Errorf("second run allocated %d bytes vs first %d: released slabs (%d bytes) were not reused",
			second, first, slabBytes)
	}
}

// cellNotice is the store of v at coordinates idx of a field generation: the
// one-cell box, every dimension free from its coordinate with extent 1.
func cellNotice(fieldName string, age int, v field.Value, idx ...int) runtime.StoreNotice {
	sel := make([]field.SlabDim, len(idx))
	ones := make([]int, len(idx))
	for d, i := range idx {
		sel[d], ones[d] = field.SlabDim{Index: i}, 1
	}
	cell := field.NewArray(v.Kind(), ones...)
	cell.SetFlat(v, 0)
	return runtime.StoreNotice{Field: fieldName, Age: age, Sel: sel, Value: field.ArrayVal(cell)}
}

// TestStoreBatcherFlush: stores leave only through flushAll, one frame per
// generation in first-store order, each decoding back to its notices in the
// order they were added; the flush point runs after the frames, and a second
// flushAll emits nothing.
func TestStoreBatcherFlush(t *testing.T) {
	var msgs []*Msg
	b := newStoreBatcher(func(m *Msg, f *runtime.StoreFrame) {
		m.Frame = f.AppendTo(nil)
		msgs = append(msgs, m)
		runtime.PutStoreFrame(f)
	}, nil, "test", nil)

	script := []runtime.StoreNotice{
		cellNotice("a", 0, field.Int32Val(1), 0),
		cellNotice("b", 0, field.Int32Val(2), 0),
		cellNotice("a", 1, field.Int32Val(3), 0),
		cellNotice("a", 0, field.Int32Val(4), 1),
	}
	for i := 0; i < 1000; i++ { // one generation, however many entries, is one frame
		script = append(script, cellNotice("b", 0, field.Int32Val(int32(i)), i+1))
	}
	for _, sn := range script {
		if err := b.add(sn); err != nil {
			t.Fatal(err)
		}
	}
	if len(msgs) != 0 {
		t.Fatalf("%d frames emitted before any flush", len(msgs))
	}
	points := 0
	b.flushAll(func() {
		points++
		if len(msgs) != 3 {
			t.Errorf("flush point ran after %d frames, want 3", len(msgs))
		}
	})
	if len(msgs) != 3 || points != 1 {
		t.Fatalf("flushAll emitted %d frames and ran %d points, want 3 and 1", len(msgs), points)
	}
	wantOrder := []genKey{{"a", 0}, {"b", 0}, {"a", 1}}
	for i, w := range wantOrder {
		m := msgs[i]
		if m.Kind != MStoreFrame || m.Field != w.field || m.Age != w.age {
			t.Fatalf("frame %d is %v %s(%d), want %s(%d)", i, m.Kind, m.Field, m.Age, w.field, w.age)
		}
		var want []runtime.StoreNotice
		for _, sn := range script {
			if sn.Field == w.field && sn.Age == w.age {
				want = append(want, sn)
			}
		}
		n := 0
		if err := runtime.DecodeStoreFrame(m.Frame, func(sn runtime.StoreNotice) error {
			ws := want[n]
			if sn.Field != ws.Field || sn.Age != ws.Age || sn.Sel[0].Index != ws.Sel[0].Index || sn.Value.Array().AtFlat(0).Int64() != ws.Value.Array().AtFlat(0).Int64() {
				return fmt.Errorf("entry %d decoded as %+v, want %+v", n, sn, ws)
			}
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Errorf("frame %s(%d): decoded %d entries, want %d", w.field, w.age, n, len(want))
		}
	}
	b.flushAll(nil) // idempotent on empty state
	if len(msgs) != 3 {
		t.Errorf("empty flushAll emitted frames")
	}
}
