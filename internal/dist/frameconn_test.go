package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
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
// flattened encoding, envelope fields intact, and the sender's shared *Msg
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
		t.Fatalf("SendFrame mutated the shared envelope: Frame=%d bytes", len(m.Frame))
	}

	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != MStoreFrame || got.Field != "pixels" || got.Age != 3 || got.Trace != 0xBEEF {
		t.Fatalf("envelope corrupted: %+v", got)
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
// aligned: plain Sends, gob and envelope, before, between, and after
// SendFrames must all arrive intact and in order.
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

// TestTCPRecvHostileFrameLen: an envelope may announce any frame length up to
// maxRecvFrameLen, but memory is committed only as payload bytes arrive. A
// peer that announces the maximum and hangs up must cost an error and a few
// MiB, not a 1 GiB allocation.
func TestTCPRecvHostileFrameLen(t *testing.T) {
	peer, local := net.Pipe()
	go func() {
		peer.Write(appendEnvelope(nil, &Msg{Kind: MStoreFrame, Field: "pixels"}, maxRecvFrameLen-1))
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

// envelopeBytes returns what a tcpConn writes to its socket for msgs: one
// SendFrame for each message carrying a Frame, one Send for the rest.
func envelopeBytes(t testing.TB, msgs ...*Msg) []byte {
	a, b := net.Pipe()
	sent := make(chan error, 1)
	go func() {
		c := newTCPConn(a)
		defer c.Close()
		for _, m := range msgs {
			var err error
			if m.Frame != nil {
				err = c.SendFrame(m, net.Buffers{m.Frame})
			} else {
				err = c.Send(m)
			}
			if err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	out, err := io.ReadAll(b)
	if err == nil {
		err = <-sent
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wireMsgs returns at least one message of every kind: the hot kinds at
// their edge values (empty names, age 0, the largest trace id, a zero-length
// frame) and the cold kinds with nested reports, spans and metrics.
func wireMsgs(t testing.TB) []*Msg {
	fr := storeFrame(t)
	frame := fr.AppendTo(nil)
	runtime.PutStoreFrame(fr)
	reg := obs.NewRegistry()
	reg.Counter(obs.MDispatchesTotal).Add(3)
	reg.Gauge(obs.MTransportSentMsgs).Set(9)
	reg.Histogram(obs.MFetchNs).Observe(5)
	return []*Msg{
		{Kind: MStoreFrame},
		{Kind: MStoreFrame, Field: "pixels", Age: 3, Trace: math.MaxUint64, SentNs: -1, Frame: frame},
		{Kind: MDone},
		{Kind: MDone, Kernel: "dct", Age: math.MaxInt, Share: 3, SentNs: math.MaxInt64},
		{Kind: MPing, WantMetrics: true, SentNs: math.MinInt64},
		{Kind: MStatus},
		{Kind: MStatus, Idle: true, Sent: math.MaxInt64, Received: 2, SentNs: 1},
		{Kind: MStopReq},
		{Kind: MTraceReq, SentNs: 7},
		{Kind: MRegister, NodeID: "w0", Cores: 2, Speed: 1.5},
		{Kind: MJoin, NodeID: "standby", Cores: 1, Speed: 1},
		{Kind: MAssign, Kernels: []string{"read", "vlc"}, Spec: "mjpeg:frames=3", Failover: true,
			ShareWeights: []int{2, 1}, Shares: []int{0}, TraceOn: true},
		{Kind: MStart, OffsetNs: -42, Synced: true, SentNs: 5},
		{Kind: MClockProbe, SentNs: 11},
		{Kind: MClockEcho, SentNs: 11, NodeNs: 12},
		{Kind: MStatus, Idle: true, Sent: 4, Received: 2, Metrics: reg.Snapshot()},
		{Kind: MReport, SentNs: 3, Report: &runtime.Report{
			Wall: time.Second, Stalled: []string{"vlc(age=2)"}, ShardEvents: []int64{17},
			Kernels: []runtime.KernelStats{{Name: "dct", Instances: 12, Slices: 3}},
		}},
		{Kind: MTrace, Spans: []obs.Span{{Name: "k", Cat: "kernel", Age: 1, Index: []int{2, 3}, Trace: 9}},
			TraceStartNs: 100, TraceDropped: 1},
		{Kind: MError, Err: "worker w1: boom"},
	}
}

// TestTCPRoundTripEveryKind: every message of wireMsgs, sent over a real
// tcpConn pair, decodes equal to what was sent, and only the cold ones cross
// as gob.
func TestTCPRoundTripEveryKind(t *testing.T) {
	msgs := wireMsgs(t)
	seen := map[MsgKind]bool{}
	for _, m := range msgs {
		seen[m.Kind] = true
	}
	for k := range kindNames {
		if !seen[MsgKind(k)] {
			t.Errorf("wireMsgs has no %v", MsgKind(k))
		}
	}
	a, b := net.Pipe()
	cli, srv := newTCPConn(a).(*tcpConn), newTCPConn(b).(*tcpConn)
	defer cli.Close()
	defer srv.Close()
	for _, m := range msgs {
		sent := make(chan error, 1)
		before := cli.gobBytes.Load()
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
		if gob := cli.gobBytes.Load() != before; gob == hot(m) {
			t.Errorf("%v (hot %v) crossed as gob: %v", m.Kind, hot(m), gob)
		}
	}
	if cs, ss := cli.Stats(), srv.Stats(); cs.SentMsgs != int64(len(msgs)) || ss.RecvMsgs != cs.SentMsgs || ss.RecvBytes != cs.SentBytes {
		t.Errorf("sender counted %+v, receiver %+v, want %d messages and equal bytes", cs, ss, len(msgs))
	}
}

// TestTCPFullTraceUnderCap: a worker's span buffer at its capacity, with
// values of a real run's size, fits under the gob cap.
func TestTCPFullTraceUnderCap(t *testing.T) {
	spans := make([]obs.Span, obs.DefaultTraceCapacity)
	for i := range spans {
		spans[i] = obs.Span{Name: "yDCT", Cat: "kernel", Ph: obs.PhaseComplete, TS: 3e10 + int64(i)*1e5,
			Dur: 1e6, TID: 2, Age: 4000, Index: []int{1583, 43}, WaitNs: 1e6, FetchNs: 1e5,
			KernelNs: 1e6, StoreNs: 1e5, Trace: math.MaxUint64, Flow: 2}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Msg{Kind: MTrace, Spans: spans, TraceStartNs: 1}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > maxGobLen/2 {
		t.Errorf("a full trace ring is %d gob bytes, want at most half the %d cap", buf.Len(), maxGobLen)
	}
}

// decodeEnvelope decodes one hot message, kind byte first, from data.
func decodeEnvelope(data []byte) (*Msg, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	k, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	m := &Msg{}
	return m, readEnvelope(br, MsgKind(k), m, &nameSet{set: map[string]string{}})
}

// FuzzDecodeEnvelope: arbitrary bytes through the hot-kind decoder. It never
// panics, and whatever decodes re-encodes to bytes that decode to the same
// message.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, m := range wireMsgs(f) {
		if hot(m) {
			f.Add(append(appendEnvelope(nil, m, len(m.Frame)), m.Frame...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeEnvelope(data)
		if err != nil {
			return
		}
		again, err := decodeEnvelope(append(appendEnvelope(nil, m, len(m.Frame)), m.Frame...))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("decoded %+v; re-encoded, it decodes to %+v (%v)", m, again, err)
		}
	})
}

// FuzzTCPRecv: arbitrary bytes from a peer, read through a tcpConn over an
// in-memory connection. Recv never panics, a gob length over maxGobLen fails
// by name, and the stream costs memory in proportion to what the peer sent:
// gobGrowth times the bytes supplied, plus the recvFrameChunk by which a
// payload's buffer runs ahead of them, plus maxGobLen — a gob value is read
// whole before it is decoded, and what gob commits ahead of its input (at
// most 10 MiB, a slice's announced elements) stays under the cap — plus
// gob's per-connection type machinery. A frame length announcing more than
// arrives must not be paid for.
func FuzzTCPRecv(f *testing.F) {
	var cold []*Msg
	for _, m := range wireMsgs(f) {
		if !hot(m) {
			cold = append(cold, m)
		}
	}
	valid := envelopeBytes(f, append(cold,
		&Msg{Kind: MStoreFrame, Field: "pixels", Age: 3, Trace: 7, Frame: storeFrame(f).AppendTo(nil)},
		&Msg{Kind: MDone, Kernel: "dct", Age: 3})...)
	hostile := appendEnvelope(nil, &Msg{Kind: MStoreFrame, Field: "pixels"}, maxRecvFrameLen-1)
	overCap := binary.AppendUvarint([]byte{gobTag}, maxGobLen+1)
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], hostile, append(hostile, 1, 2, 3), overCap, {}} {
		f.Add(seed)
	}
	// gobGrowth bounds how much more a decoded value allocates than its gob
	// encoding: an all-zero obs.Span is one byte on the wire and 144 in
	// memory, and a slice of them grows by a quarter at a time, so about
	// five times that is allocated (671 per wire byte at 524 288 spans).
	const gobGrowth, gobTypes = 1024, 256 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
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
		_, err := c.Recv()
		for err == nil {
			_, err = c.Recv()
		}
		goruntime.ReadMemStats(&after)
		c.Close()
		<-wrote
		if len(data) > 0 && data[0] == gobTag {
			if n, k := binary.Uvarint(data[1:]); k > 0 && n > maxGobLen {
				want := fmt.Sprintf("dist: envelope length %d over cap %d", n, maxGobLen)
				if err.Error() != want {
					t.Fatalf("Recv failed with %q, want %q", err, want)
				}
			}
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(gobGrowth*len(data)+recvFrameChunk+maxGobLen+gobTypes); grew > bound {
			t.Fatalf("Recv of %d bytes allocated %d, want at most %d", len(data), grew, bound)
		}
	})
}
