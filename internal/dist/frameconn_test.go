package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// pipe returns a connected pair of loopback connections, closed when the
// test ends.
func pipe(t testing.TB) (Conn, Conn) {
	t.Helper()
	a, b, err := LoopbackPipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// storeFrame builds a store frame holding a 4 KiB whole-field entry and an
// element entry.
func storeFrame(t testing.TB) *runtime.StoreFrame {
	t.Helper()
	arr := field.NewArray(field.Float64, 512)
	vals := arr.Float64s()
	for i := range vals {
		vals[i] = float64(i) * 0.25
	}
	f := runtime.GetStoreFrame()
	f.Reset("pixels", 3)
	if err := f.Add(runtime.StoreNotice{
		Field: "pixels", Age: 3, Whole: true,
		Value: field.ArrayVal(arr),
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(cellNotice("pixels", 3, field.Float64Val(1.5), 7)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTCPSendFrameRoundTrip: a SendFrame must arrive as a regular
// MStoreFrame message — Frame materialized bit-identically to the
// flattened encoding, message fields intact, and the sender's shared *Msg
// unmutated.
func TestTCPSendFrameRoundTrip(t *testing.T) {
	cli, srv := pipe(t)
	f := storeFrame(t)
	want := f.AppendTo(nil)
	m := &Msg{Kind: MStoreFrame, Field: "pixels", Age: 3, Trace: 0xBEEF}
	if err := cli.SendFrame(m, net.Buffers{f.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if m.Frame != nil {
		t.Fatalf("SendFrame mutated the shared message: Frame=%d bytes", len(m.Frame))
	}

	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != MStoreFrame || got.Field != "pixels" || got.Age != 3 || got.Trace != 0xBEEF {
		t.Fatalf("message corrupted: %+v", got)
	}
	if !bytes.Equal(got.Frame, want) {
		t.Fatalf("raw frame differs: got %d bytes, want %d", len(got.Frame), len(want))
	}
	var notices []runtime.StoreNotice
	if err := runtime.DecodeStoreFrame(got.Frame, func(sn runtime.StoreNotice) error {
		notices = append(notices, runtime.StoreNotice{Field: sn.Field, Age: sn.Age, Sel: slices.Clone(sn.Sel)}) // notices are borrowed
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The whole-field store arrives as its slab spelling: a selector that
	// fixes no dimension.
	if len(notices) != 2 || notices[0].Field != "pixels" || notices[0].Age != 3 || !slices.Equal(notices[0].Sel, []field.SlabDim{{}}) {
		t.Fatalf("decoded frame wrong: %+v", notices)
	}
	runtime.PutStoreFrame(f)
}

// TestTCPSendFrameInterleaved proves the raw-bytes framing leaves the stream
// aligned: plain Sends before, between, and after SendFrames must all arrive
// intact and in order.
func TestTCPSendFrameInterleaved(t *testing.T) {
	cli, srv := pipe(t)
	f := storeFrame(t)
	want := f.AppendTo(nil)
	defer runtime.PutStoreFrame(f)

	if err := cli.Send(&Msg{Kind: MRegister, NodeID: "n0"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cli.SendFrame(&Msg{Kind: MStoreFrame, Field: "pixels", Age: i}, net.Buffers{f.Bytes()}); err != nil {
			t.Fatal(err)
		}
		if err := cli.Send(&Msg{Kind: MDone, Field: "pixels", Age: i}); err != nil {
			t.Fatal(err)
		}
	}

	if m, err := srv.Recv(); err != nil || m.Kind != MRegister || m.NodeID != "n0" {
		t.Fatalf("first message: %+v, %v", m, err)
	}
	for i := 0; i < 3; i++ {
		m, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != MStoreFrame || m.Age != i || !bytes.Equal(m.Frame, want) {
			t.Fatalf("frame %d corrupted: kind=%v age=%d len=%d", i, m.Kind, m.Age, len(m.Frame))
		}
		m, err = srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != MDone || m.Age != i {
			t.Fatalf("done %d corrupted: %+v", i, m)
		}
	}

	// Master-forward shape: a received frame goes back out as one raw buffer.
	if err := cli.SendFrame(&Msg{Kind: MStoreFrame, Field: "pixels", Age: 9}, net.Buffers{want}); err != nil {
		t.Fatal(err)
	}
	m, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Age != 9 || !bytes.Equal(m.Frame, want) {
		t.Fatalf("forwarded frame corrupted: age=%d len=%d", m.Age, len(m.Frame))
	}
}

// TestTCPRecvHostileFrameLen: a store frame may announce any length up to
// maxRecvFrameLen, but memory is committed only as payload bytes arrive. A
// peer that announces the maximum and hangs up must cost an error and a few
// MiB, not a 1 GiB allocation.
func TestTCPRecvHostileFrameLen(t *testing.T) {
	peer, local := net.Pipe()
	go func() {
		c := codec{}
		n := maxRecvFrameLen - 1
		c.msg(&Msg{Kind: MStoreFrame, Field: "pixels"}, &n)
		peer.Write(c.buf)
		peer.Close()
	}()
	srv := newTCPConn(local)
	defer srv.Close()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	m, err := srv.Recv()
	goruntime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("Recv returned a message (%d frame bytes) for a frame that never arrived", len(m.Frame))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("Recv allocated %d MiB for an announced-but-unsent frame, want < 8 MiB", grew>>20)
	}
}

// TestTCPRecvLargeFrame: a frame longer than one receive chunk arrives
// intact through the growing buffer.
func TestTCPRecvLargeFrame(t *testing.T) {
	cli, srv := pipe(t)
	payload := make([]byte, 3*recvFrameChunk+12345)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	errs := make(chan error, 1)
	go func() {
		errs <- cli.SendFrame(&Msg{Kind: MStoreFrame, Field: "pixels"}, net.Buffers{payload})
	}()
	m, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Frame, payload) {
		t.Fatalf("received %d frame bytes, want the %d sent", len(m.Frame), len(payload))
	}
}

// wire returns what a tcpConn writes to its socket for msgs: each message
// and, after a store frame, the frame's bytes.
func wire(msgs ...*Msg) []byte {
	var c codec
	for _, m := range msgs {
		n := len(m.Frame)
		c.msg(m, &n)
		c.buf = append(c.buf, m.Frame...)
	}
	return c.buf
}

// wireGrowth bounds what a received stream allocates per wire byte, besides
// the recvFrameChunk by which a frame's buffer runs ahead of its bytes. A
// list's elements arrive before its slice grows past them, at most doubling,
// so the slices of a list cost at most four times its elements' memory: 64
// bytes per one-byte element for a list of empty strings (16 bytes each),
// 41 for the 14 wire bytes of a zero obs.Span (144). Every message is at
// least 9 bytes, which covers its *Msg.
const wireGrowth = 64

// recvAll reads data as a peer's stream through a tcpConn until Recv fails,
// and reports the messages, the bytes allocated meanwhile and the error.
func recvAll(data []byte) (msgs []*Msg, alloc uint64, err error) {
	peer, local := net.Pipe()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		peer.Write(data) // fails once Recv gives up and local closes
		peer.Close()
	}()
	c := newTCPConn(local)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for err == nil {
		var m *Msg
		if m, err = c.Recv(); err == nil {
			msgs = append(msgs, m)
		}
	}
	goruntime.ReadMemStats(&after)
	c.Close()
	<-wrote
	return msgs, after.TotalAlloc - before.TotalAlloc, err
}

// allocBound is what a stream of n wire bytes may allocate its receiver.
func allocBound(n int) uint64 { return uint64(wireGrowth*n + recvFrameChunk) }

// fill sets every field of v, recursively, to a value that is not zero —
// slices and maps get two elements — so that a round trip shows any field a
// layout forgets.
func fill(v reflect.Value, seed *int) {
	*seed++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*seed) * 1_000_003)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(*seed))
	case reflect.Float64:
		v.SetFloat(float64(*seed) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *seed))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), seed)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, seed)
			fill(e, seed)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), seed)
		}
	default:
		panic(fmt.Sprintf("fill: no value for %v", v.Type()))
	}
}

// filled returns a T with every field set (see fill).
func filled[T any]() T {
	var v T
	seed := 0
	fill(reflect.ValueOf(&v).Elem(), &seed)
	return v
}

// wireMsgs returns a message for every construction site in the package, each
// field that site sets not zero — the sender's stamp included where the site
// stamps one — and each kind besides at its edge values: empty names, age 0,
// the largest trace id, no frame.
func wireMsgs(t testing.TB) []*Msg {
	fr := storeFrame(t)
	frame := fr.AppendTo(nil)
	runtime.PutStoreFrame(fr)
	report, metrics := filled[runtime.Report](), filled[obs.MetricsSnapshot]()
	return []*Msg{
		// The worker: its hello, clock echo, status, completion, frame,
		// error and report.
		{Kind: MRegister, NodeID: "w0", Cores: 2, Speed: 1.5},
		{Kind: MJoin, NodeID: "standby", Cores: 1, Speed: 1},
		{Kind: MClockEcho, SentNs: 11, NodeNs: 12},
		{Kind: MStatus, Idle: true, Sent: math.MaxInt64, Received: 2, SentNs: 1, Metrics: &metrics},
		{Kind: MDone, Kernel: "dct", Age: math.MaxInt, Share: 3, SentNs: math.MaxInt64},
		{Kind: MStoreFrame, Field: "pixels", Age: 3, Trace: math.MaxUint64, SentNs: -1, Frame: frame},
		{Kind: MError, Err: "worker w1: boom", SentNs: 4},
		{Kind: MReport, SentNs: 3, Report: &report, Spans: filled[[]obs.Span](), TraceStartNs: 100, TraceDropped: 1},
		// The master: its clock probe, assignment, start, ping, stop, and
		// the replayed frames and completions it forwards unstamped.
		{Kind: MClockProbe, SentNs: 11},
		{Kind: MAssign, Kernels: []string{"read", "vlc"}, Spec: "mjpeg:frames=3", Failover: true,
			ShareWeights: []int{2, 1}, Shares: []int{0}, TraceOn: true},
		{Kind: MStart, OffsetNs: -42, Synced: true, Liveness: time.Second, SentNs: 5},
		{Kind: MPing, WantMetrics: true, SentNs: math.MinInt64},
		{Kind: MStopReq, TraceOn: true},
		{Kind: MStoreFrame, Field: "pixels", Age: 3, Frame: frame},
		{Kind: MDone, Kernel: "dct", Age: 7, Share: 1},
		// Edge values.
		{Kind: MStoreFrame},
		{Kind: MDone},
		{Kind: MStatus},
		{Kind: MStopReq},
		{Kind: MReport},
		{Kind: MError},
	}
}

// TestTCPRoundTripEveryKind: every message of wireMsgs, sent over a real
// tcpConn pair, decodes equal to what was sent. wireMsgs holds every kind and
// sets every field of Msg somewhere, so a field a kind's layout forgets is a
// difference here.
func TestTCPRoundTripEveryKind(t *testing.T) {
	msgs := wireMsgs(t)
	seen := map[MsgKind]bool{}
	set := make([]bool, reflect.TypeOf(Msg{}).NumField())
	for _, m := range msgs {
		seen[m.Kind] = true
		for i := range set {
			set[i] = set[i] || !reflect.ValueOf(m).Elem().Field(i).IsZero()
		}
	}
	for k := range kindNames {
		if !seen[MsgKind(k)] {
			t.Errorf("wireMsgs has no %v", MsgKind(k))
		}
	}
	for i, ok := range set {
		if !ok {
			t.Errorf("no message of wireMsgs sets Msg.%s", reflect.TypeOf(Msg{}).Field(i).Name)
		}
	}
	a, b := net.Pipe()
	cli, srv := newTCPConn(a), newTCPConn(b)
	defer cli.Close()
	defer srv.Close()
	for _, m := range msgs {
		sent := make(chan error, 1)
		go func() { sent <- cli.Send(m) }()
		got, err := srv.Recv()
		if err == nil {
			err = <-sent
		}
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: sent %+v, received %+v", m.Kind, m, got)
		}
	}
	if cs, ss := cli.Stats(), srv.Stats(); cs.SentMsgs != int64(len(msgs)) || ss.RecvMsgs != cs.SentMsgs || ss.RecvBytes != cs.SentBytes {
		t.Errorf("sender counted %+v, receiver %+v, want %d messages and equal bytes", cs, ss, len(msgs))
	}
}

// TestTCPRecvNamesWhatItRejects: a stream the codec cannot accept fails with
// an error that names what it rejected, before any of an over-cap length is
// read or allocated.
func TestTCPRecvNamesWhatItRejects(t *testing.T) {
	overCount := wire(&Msg{Kind: MAssign})
	overCount = binary.AppendVarint(overCount[:9], maxCount+1) // the count of Kernels
	overStr := binary.AppendVarint(wire(&Msg{Kind: MError})[:9], maxStrLen+1)
	overFrame := wire(&Msg{Kind: MStoreFrame})
	overFrame = binary.AppendVarint(overFrame[:len(overFrame)-1], maxRecvFrameLen+1)
	for _, tc := range []struct {
		data []byte
		want string
	}{
		{append([]byte{200}, make([]byte, 8)...), "dist: unknown message kind 200"},
		{overCount, fmt.Sprintf("dist: count %d over cap %d", maxCount+1, maxCount)},
		{overStr, fmt.Sprintf("dist: count %d over cap %d", maxStrLen+1, maxStrLen)},
		{overFrame, fmt.Sprintf("dist: count %d over cap %d", maxRecvFrameLen+1, maxRecvFrameLen)},
	} {
		msgs, _, err := recvAll(tc.data)
		if len(msgs) != 0 || err == nil || err.Error() != tc.want {
			t.Errorf("% x: received %d messages and %v, want the error %q", tc.data, len(msgs), err, tc.want)
		}
	}
}

// TestTCPRecvOverstatedCount: a list or map whose count announces far more
// elements than arrive costs its receiver memory in proportion to the bytes
// that did arrive — 2^20 spans announced, a few sent — and a send of a
// count over its cap fails before it reaches the wire.
func TestTCPRecvOverstatedCount(t *testing.T) {
	spans := binary.AppendVarint(wire(&Msg{Kind: MReport})[:10], 1<<20) // no report, then the count of Spans
	kernels := binary.AppendVarint(wire(&Msg{Kind: MAssign})[:9], maxCount)
	counters := binary.AppendVarint(append(wire(&Msg{Kind: MStatus})[:12], 1), maxCount) // Metrics set, then the count of Counters
	for name, data := range map[string][]byte{
		"spans":    append(spans, make([]byte, 3*14)...),
		"kernels":  append(kernels, make([]byte, 5000)...),
		"counters": append(counters, make([]byte, 5000)...),
	} {
		msgs, grew, err := recvAll(data)
		if len(msgs) != 0 || err == nil {
			t.Errorf("%s: received %d messages (%v) from a stream that ends mid-list", name, len(msgs), err)
		}
		if bound := allocBound(len(data)); grew > bound {
			t.Errorf("%s: %d wire bytes allocated %d, want at most %d", name, len(data), grew, bound)
		}
	}
	a, _ := pipe(t)
	if err := a.Send(&Msg{Kind: MAssign, Kernels: make([]string, maxCount+1)}); err == nil {
		t.Error("a count over its cap was sent")
	}
}

// TestTCPFullTraceUnderCap: a worker's report carrying a full trace ring,
// with values of a real run's size, round-trips and costs its receiver no
// more than the per-wire-byte bound.
func TestTCPFullTraceUnderCap(t *testing.T) {
	spans := make([]obs.Span, obs.DefaultTraceCapacity)
	for i := range spans {
		spans[i] = obs.Span{Name: "yDCT", Cat: "kernel", Ph: obs.PhaseComplete, TS: 3e10 + int64(i)*1e5,
			Dur: 1e6, TID: 2, Age: 4000, Index: []int{1583, 43}, WaitNs: 1e6, FetchNs: 1e5,
			KernelNs: 1e6, StoreNs: 1e5, Trace: math.MaxUint64, Flow: 2}
	}
	sent := &Msg{Kind: MReport, Spans: spans, TraceStartNs: 1, SentNs: 2}
	data := wire(sent)
	msgs, grew, _ := recvAll(data)
	if len(msgs) != 1 || !reflect.DeepEqual(msgs[0], sent) {
		t.Fatalf("a full trace ring (%d wire bytes) did not round-trip: %d messages", len(data), len(msgs))
	}
	if bound := allocBound(len(data)); grew > bound {
		t.Errorf("a full trace ring of %d wire bytes allocated %d, want at most %d", len(data), grew, bound)
	}
}

// decodeMsg decodes one message, a store frame's payload included, from data,
// and reports what decoding allocated besides its reader.
func decodeMsg(data []byte) (m *Msg, alloc uint64, err error) {
	c := codec{r: bufio.NewReader(bytes.NewReader(data))}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	m, frameLen := &Msg{}, 0
	if c.msg(m, &frameLen); c.err == nil && frameLen > 0 {
		m.Frame, c.err = readFrame(c.r, frameLen)
	}
	goruntime.ReadMemStats(&after)
	return m, after.TotalAlloc - before.TotalAlloc, c.err
}

// FuzzDecodeEnvelope: arbitrary bytes through the decoder of one message of
// any kind. It never panics, it allocates within the per-wire-byte bound,
// and whatever decodes re-encodes to bytes that decode and re-encode to the
// same bytes. Bytes are compared, not messages: a float's NaN bits survive a
// round trip, and a NaN does not equal itself.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, m := range wireMsgs(f) {
		f.Add(wire(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, grew, err := decodeMsg(data)
		if bound := allocBound(len(data)); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		enc := wire(m)
		again, _, err := decodeMsg(enc)
		if err != nil || !bytes.Equal(wire(again), enc) {
			t.Fatalf("decoded %+v; re-encoded, it decodes to %+v (%v)", m, again, err)
		}
	})
}

// FuzzTCPRecv: arbitrary bytes from a peer, read through a tcpConn over an
// in-memory connection. Recv never panics, an unknown kind fails by name, and
// the stream costs memory in proportion to what the peer sent: wireGrowth
// times the bytes supplied, plus the recvFrameChunk by which a payload's
// buffer runs ahead of them. A length or count announcing more than arrives
// must not be paid for.
func FuzzTCPRecv(f *testing.F) {
	valid := wire(wireMsgs(f)...)
	hostile := wire(&Msg{Kind: MStoreFrame, Field: "pixels"})
	hostile = binary.AppendVarint(hostile[:len(hostile)-1], maxRecvFrameLen-1)
	spans := binary.AppendVarint(wire(&Msg{Kind: MReport})[:10], 1<<20)
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], hostile, append(hostile, 1, 2, 3), spans, {}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, grew, err := recvAll(data)
		if len(data) >= 9 && int(data[0]) >= len(kindNames) && len(msgs) == 0 {
			if want := fmt.Sprintf("dist: unknown message kind %d", data[0]); err.Error() != want {
				t.Fatalf("Recv failed with %q, want %q", err, want)
			}
		}
		if bound := allocBound(len(data)); grew > bound {
			t.Fatalf("Recv of %d bytes allocated %d, want at most %d", len(data), grew, bound)
		}
	})
}
