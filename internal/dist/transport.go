// Package dist implements P2G's distributed layer (paper figure 1): a master
// node that collects the global topology, partitions the workload with the
// high-level scheduler and assigns partitions to execution nodes; execution
// nodes that run their partition on the local runtime; and the event-based
// publish-subscribe distribution of store and completion events between
// nodes.
//
// Messages flow over one transport, TCP: the per-age messages cross in a
// fixed binary envelope and the once-per-run ones as gob values. A
// deployment dials a master's listener (cmd/p2g-master, cmd/p2g-worker); a
// cluster inside one process (tests, examples, experiments) connects its
// nodes with LoopbackPipe, through the same codec and deadlines. The master
// acts as the pub-sub broker: each worker publishes its store/done events
// once, and the master forwards them to the nodes whose kernels subscribe to
// the stored fields, preserving per-origin order.
package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is a bidirectional, ordered message channel between two nodes. A Conn
// sends frames, counts its traffic and bounds its blocking operations;
// FrameConn and StatsReporter name two of those capabilities for callers that
// need only one.
type Conn interface {
	FrameConn
	StatsReporter
	// SetIdleTimeout bounds every subsequent blocking operation: with a
	// non-zero timeout, a Recv that sees no message for the duration — or a
	// Send that cannot make progress — fails with an error containing "idle
	// timeout" instead of blocking forever. This is the failure-detection
	// primitive: a half-open TCP connection (peer machine gone, no RST ever
	// arrives) otherwise wedges a blocking read indefinitely.
	SetIdleTimeout(d time.Duration)
}

// FrameConn sends a store-frame payload given as a vector of buffers.
// SendFrame must not mutate m — the broker shares one envelope across
// subscribers — and must not retain segs past the call; the message arrives
// with the concatenated buffers as its Frame.
type FrameConn interface {
	Send(*Msg) error
	Recv() (*Msg, error)
	Close() error
	SendFrame(m *Msg, segs net.Buffers) error
}

// ConnStats holds cumulative transport counters for one connection end.
// Byte counts cover the encoded wire form.
type ConnStats struct {
	SentMsgs  int64
	RecvMsgs  int64
	SentBytes int64
	RecvBytes int64
}

// StatsReporter reports a connection's traffic; the worker and the master CLI
// fold these counters into metrics and reports.
type StatsReporter interface {
	Stats() ConnStats
}

// connStats tracks a connection's traffic with atomics (Send and Recv run
// on different goroutines).
type connStats struct {
	sentMsgs, recvMsgs, sentBytes, recvBytes atomic.Int64
}

func (s *connStats) Stats() ConnStats {
	return ConnStats{
		SentMsgs:  s.sentMsgs.Load(),
		RecvMsgs:  s.recvMsgs.Load(),
		SentBytes: s.sentBytes.Load(),
		RecvBytes: s.recvBytes.Load(),
	}
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

type tcpConn struct {
	nc    net.Conn
	br    *bufio.Reader // the socket, buffered for the decoders
	names nameSet
	// enc and dec are the connection's gob stream for the messages that are
	// not hot, each encoded into gobOut and decoded from gobIn, so a type's
	// definition crosses once; gobBytes counts their bytes, both directions.
	enc      *gob.Encoder
	gobOut   bytes.Buffer
	dec      *gob.Decoder
	gobIn    *bytes.Reader
	gobBytes atomic.Int64
	// mu serializes senders and guards the envelope scratch hdr and the
	// write vector out, whose backing vec keeps.
	mu       sync.Mutex
	hdr      []byte
	vec, out net.Buffers
	idle     atomic.Int64 // idle timeout in nanoseconds; 0 = none
	connStats
}

// SetIdleTimeout makes every subsequent Recv arm a read deadline and every
// Send a write deadline, so a half-open peer surfaces as an error instead of
// a forever-blocked syscall. Zero clears any armed deadline.
func (c *tcpConn) SetIdleTimeout(d time.Duration) {
	c.idle.Store(int64(d))
	if d == 0 {
		c.nc.SetDeadline(time.Time{})
	}
}

// idleErr rewraps a deadline-exceeded transport error so callers (and
// humans) see the liveness meaning, not just "i/o timeout".
func (c *tcpConn) idleErr(op string, err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("dist: idle timeout after %v (%s): %w", time.Duration(c.idle.Load()), op, err)
	}
	return err
}

// countingReader wraps the TCP stream so the decoders count received wire
// bytes as a side effect.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// DialTCP connects to a master's TCP listener.
func DialTCP(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", addr, err)
	}
	return newTCPConn(nc), nil
}

func newTCPConn(nc net.Conn) Conn {
	c := &tcpConn{nc: nc, names: nameSet{set: make(map[string]string, maxNames)}, gobIn: bytes.NewReader(nil)}
	c.br = bufio.NewReader(countingReader{r: nc, n: &c.recvBytes})
	c.enc, c.dec = gob.NewEncoder(&c.gobOut), gob.NewDecoder(c.gobIn)
	return c
}

// Send writes m; a store frame's Frame follows its envelope as raw bytes.
func (c *tcpConn) Send(m *Msg) error { return c.SendFrame(m, net.Buffers{m.Frame}) }

// SendFrame writes m's envelope and the segments in one write (writev on
// platforms that support it): no contiguous copy of a frame is built, and a
// forwarded frame reaches the socket as the bytes that were received. Only a
// store frame carries segments.
func (c *tcpConn) SendFrame(m *Msg, segs net.Buffers) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.idle.Load(); d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	c.out = append(c.vec[:0], nil) // the envelope's slot
	total := 0
	for _, s := range segs {
		if len(s) > 0 { // an empty write still waits for a reader on some conns
			c.out, total = append(c.out, s), total+len(s)
		}
	}
	switch {
	case total > 0 && m.Kind != MStoreFrame:
		return fmt.Errorf("dist: %v carries no frame", m.Kind)
	case hot(m):
		c.hdr = appendEnvelope(c.hdr[:0], m, total)
	default:
		c.gobOut.Reset()
		if err := c.enc.Encode(m); err != nil {
			return err
		}
		c.hdr = binary.AppendUvarint(append(c.hdr[:0], gobTag), uint64(c.gobOut.Len()))
		c.out = append(c.out, c.gobOut.Bytes())
		c.gobBytes.Add(int64(c.gobOut.Len()))
	}
	c.out[0], c.vec = c.hdr, c.out[:0]
	n, err := c.out.WriteTo(c.nc)
	c.sentBytes.Add(n)
	if err != nil {
		return c.idleErr("send", err)
	}
	c.sentMsgs.Add(1)
	return nil
}

// maxRecvFrameLen bounds the raw frame length a peer may announce.
const maxRecvFrameLen = 1 << 30

// recvFrameChunk is the least by which readFrame's buffer runs ahead of the
// bytes that have arrived.
const recvFrameChunk = 1 << 20

// readFrame reads the n bytes an envelope announced: a store frame's payload
// or a gob value. The buffer grows as bytes arrive — recvFrameChunk, or as
// much again as already read, ahead of them — so a corrupt or hostile length
// costs memory in proportion to what the peer really sent, not to what it
// claimed.
func readFrame(r io.Reader, n int) ([]byte, error) {
	raw := make([]byte, min(n, recvFrameChunk))
	for read := 0; ; {
		m, err := io.ReadFull(r, raw[read:])
		read += m
		if err != nil {
			return nil, err
		}
		if read == n {
			return raw, nil
		}
		grown := make([]byte, min(n, read+max(read, recvFrameChunk)))
		copy(grown, raw)
		raw = grown
	}
}

func (c *tcpConn) Recv() (*Msg, error) {
	if d := c.idle.Load(); d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(time.Duration(d)))
	}
	m := &Msg{}
	if err := c.read(m); err != nil {
		return nil, c.idleErr("recv", err)
	}
	c.recvMsgs.Add(1)
	return m, nil
}

// read decodes one message into m: a hot kind's envelope, or the gob value
// behind gobTag, whose length is checked before any of it is read.
func (c *tcpConn) read(m *Msg) error {
	tag, err := c.br.ReadByte()
	if err != nil {
		return err
	}
	if tag != gobTag {
		return readEnvelope(c.br, MsgKind(tag), m, &c.names)
	}
	n, err := binary.ReadUvarint(c.br)
	if err == nil && n > maxGobLen {
		err = fmt.Errorf("dist: envelope length %d over cap %d", n, maxGobLen)
	}
	var raw []byte
	if err == nil {
		raw, err = readFrame(c.br, int(n))
	}
	if err == nil {
		c.gobBytes.Add(int64(n))
		c.gobIn.Reset(raw)
		err = c.dec.Decode(m)
	}
	if err == nil && c.gobIn.Len() != 0 {
		err = fmt.Errorf("dist: %d bytes past the end of a %v", c.gobIn.Len(), m.Kind)
	}
	return err
}

func (c *tcpConn) Close() error { return c.nc.Close() }

type tcpListener struct{ l net.Listener }

// ListenTCP opens a TCP listener for a master node; addr may use port 0 for
// an ephemeral port (see Addr).
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listening on %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	nc, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// LoopbackPipe returns a connected pair of TCP connections over the loopback
// interface, for a cluster whose nodes share one process.
func LoopbackPipe() (Conn, Conn, error) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	a, err := DialTCP(l.Addr())
	if err != nil {
		return nil, nil, err
	}
	b, err := l.Accept()
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}
