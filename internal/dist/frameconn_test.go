package dist

import (
	"bytes"
	"io"
	"net"
	goruntime "runtime"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// tcpPair returns a connected TCP loopback pair (client, server).
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed := make(chan Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := DialTCP(l.Addr())
		if err != nil {
			errs <- err
			return
		}
		dialed <- c
	}()
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var cli Conn
	select {
	case cli = <-dialed:
	case err := <-errs:
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
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
// flattened encoding, FrameLen zeroed, envelope fields intact, and the
// sender's shared *Msg unmutated.
func TestTCPSendFrameRoundTrip(t *testing.T) {
	cli, srv := tcpPair(t)
	f := storeFrame(t)
	want := f.AppendTo(nil)
	m := &Msg{Kind: MStoreFrame, Field: "pixels", Age: 3, Trace: 0xBEEF}
	if err := cli.SendFrame(m, net.Buffers{f.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if m.Frame != nil || m.FrameLen != 0 {
		t.Fatalf("SendFrame mutated the shared envelope: Frame=%d bytes FrameLen=%d",
			len(m.Frame), m.FrameLen)
	}

	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != MStoreFrame || got.Field != "pixels" || got.Age != 3 || got.Trace != 0xBEEF {
		t.Fatalf("envelope corrupted: %+v", got)
	}
	if got.FrameLen != 0 {
		t.Fatalf("receiver exposed split form: FrameLen=%d", got.FrameLen)
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

// TestTCPSendFrameInterleaved proves the raw-bytes framing leaves the gob
// stream aligned: plain Sends before, between, and after SendFrames must all
// arrive intact and in order.
func TestTCPSendFrameInterleaved(t *testing.T) {
	cli, srv := tcpPair(t)
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
	cli, srv := tcpPair(t)
	if err := cli.Send(&Msg{Kind: MStoreFrame, Field: "pixels", FrameLen: maxRecvFrameLen - 1}); err != nil {
		t.Fatal(err)
	}
	cli.Close()
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
	cli, srv := tcpPair(t)
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
	if !bytes.Equal(m.Frame, payload) || m.FrameLen != 0 {
		t.Fatalf("received %d frame bytes (FrameLen %d), want the %d sent", len(m.Frame), m.FrameLen, len(payload))
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

// gobAhead is what encoding/gob may allocate ahead of the bytes that back it:
// a message's announced length, or a slice's announced elements, up to the
// 10 MiB read chunk of Go's internal/saferio.
const gobAhead = 10 << 20

// FuzzTCPRecv: arbitrary bytes from a peer, read through a tcpConn over an
// in-memory connection. Recv never panics, and the stream costs memory in
// proportion to what the peer sent: the bytes supplied, plus the
// recvFrameChunk by which a raw frame's buffer runs ahead of them, plus what
// gob commits ahead of its own input (gobAhead) and its per-connection type
// machinery. A FrameLen announcing more than arrives must not be paid for.
func FuzzTCPRecv(f *testing.F) {
	fr := storeFrame(f)
	frame := fr.AppendTo(nil)
	runtime.PutStoreFrame(fr)
	reg := obs.NewRegistry()
	reg.Counter(obs.MDispatchesTotal).Add(3)
	reg.Histogram(obs.MFetchNs).Observe(5)
	valid := envelopeBytes(f,
		&Msg{Kind: MRegister, NodeID: "w0", Cores: 2, Speed: 1},
		&Msg{Kind: MStoreFrame, Field: "pixels", Age: 3, Trace: 7, Frame: frame},
		&Msg{Kind: MDone, Kernel: "dct", Age: 3},
		&Msg{Kind: MStatus, Idle: true, Sent: 4, Received: 2, Metrics: reg.Snapshot()},
		&Msg{Kind: MTrace, Spans: []obs.Span{{Name: "k", Age: 1, Index: []int{2, 3}}}},
	)
	hostile := envelopeBytes(f, &Msg{Kind: MStoreFrame, Field: "pixels", FrameLen: maxRecvFrameLen - 1})
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], hostile, append(hostile, 1, 2, 3), {}} {
		f.Add(seed)
	}
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
		for {
			if _, err := c.Recv(); err != nil {
				break
			}
		}
		goruntime.ReadMemStats(&after)
		c.Close()
		<-wrote
		const gobTypes = 256 << 10
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+recvFrameChunk+gobAhead+gobTypes); grew > bound {
			t.Fatalf("Recv of %d bytes allocated %d, want at most %d", len(data), grew, bound)
		}
	})
}
