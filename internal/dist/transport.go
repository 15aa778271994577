// Package dist implements P2G's distributed layer (paper figure 1): a master
// node that collects the global topology, partitions the workload with the
// high-level scheduler and assigns partitions to execution nodes; execution
// nodes that run their partition on the local runtime; and the event-based
// publish-subscribe distribution of store and completion events between
// nodes.
//
// Messages flow over one transport, TCP, in one binary codec (codec.msg). A
// deployment dials a master's listener (cmd/p2g-master, cmd/p2g-worker); a
// cluster inside one process (tests, examples, experiments) connects its
// nodes with LoopbackPipe, through the same codec and deadlines. The master
// acts as the pub-sub broker: each worker publishes its store/done events
// once, and the master forwards them to the nodes whose kernels subscribe to
// the stored fields, preserving per-origin order.
package dist

import (
	"bufio"
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
// SendFrame must not mutate m — the broker shares one message across
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

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

type tcpConn struct {
	nc  net.Conn
	dec codec // reads the socket, buffered
	// mu serializes senders and guards the encoder and the write vector
	// out, whose backing vec keeps.
	mu       sync.Mutex
	enc      codec
	vec, out net.Buffers
	idle     atomic.Int64 // idle timeout in nanoseconds; 0 = none
	// Traffic counters, atomic: Send and Recv run on different goroutines.
	sentMsgs, recvMsgs, sentBytes, recvBytes atomic.Int64
}

func (c *tcpConn) Stats() ConnStats {
	return ConnStats{
		SentMsgs:  c.sentMsgs.Load(),
		RecvMsgs:  c.recvMsgs.Load(),
		SentBytes: c.sentBytes.Load(),
		RecvBytes: c.recvBytes.Load(),
	}
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

// countingReader wraps the TCP stream so the decoder counts received wire
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
	c := &tcpConn{nc: nc}
	c.dec.r = bufio.NewReader(countingReader{r: nc, n: &c.recvBytes})
	c.dec.names = make(map[string]string, maxNames)
	return c
}

// Send writes m; a store frame's Frame follows it as raw bytes.
func (c *tcpConn) Send(m *Msg) error { return c.SendFrame(m, net.Buffers{m.Frame}) }

// SendFrame writes m and the segments in one write (writev on platforms that
// support it): no contiguous copy of a frame is built, and a forwarded frame
// reaches the socket as the bytes that were received. Only a store frame
// carries segments.
func (c *tcpConn) SendFrame(m *Msg, segs net.Buffers) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.idle.Load(); d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	c.out = append(c.vec[:0], nil) // the message's slot
	total := 0
	for _, s := range segs {
		if len(s) > 0 { // an empty write still waits for a reader on some conns
			c.out, total = append(c.out, s), total+len(s)
		}
	}
	if total > 0 && m.Kind != MStoreFrame {
		return fmt.Errorf("dist: %v carries no frame", m.Kind)
	}
	c.enc.buf, c.enc.err = c.enc.buf[:0], nil
	if c.enc.msg(m, &total); c.enc.err != nil {
		return c.enc.err
	}
	c.out[0], c.vec = c.enc.buf, c.out[:0]
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

// readFrame reads the n bytes of a store frame's payload. The buffer grows as bytes arrive — recvFrameChunk, or as
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

// Recv reads one message, and a store frame's payload after it.
func (c *tcpConn) Recv() (*Msg, error) {
	if d := c.idle.Load(); d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(time.Duration(d)))
	}
	m := &Msg{}
	frameLen := 0
	c.dec.err = nil
	if c.dec.msg(m, &frameLen); c.dec.err == nil && frameLen > 0 {
		m.Frame, c.dec.err = readFrame(c.dec.r, frameLen)
	}
	if c.dec.err != nil {
		return nil, c.idleErr("recv", c.dec.err)
	}
	c.recvMsgs.Add(1)
	return m, nil
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
