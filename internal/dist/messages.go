package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// MsgKind enumerates protocol messages.
type MsgKind uint8

// Protocol message kinds, in rough lifecycle order.
const (
	MRegister   MsgKind = iota // worker → master: here I am, this is my capacity
	MAssign                    // master → worker: your kernel partition (sent again after a peer died)
	MStart                     // master → worker: begin execution
	MDone                      // worker ↔ master: a kernel-age completed
	MPing                      // master → worker: report status
	MStatus                    // worker → master: idle state and event counters
	MStopReq                   // master → worker: quiesce reached, shut down (and, tracing, hand over your spans)
	MReport                    // worker → master: final instrumentation report (and span buffer)
	MError                     // either direction: fatal error
	MStoreFrame                // worker ↔ master: a batched store-notice frame (forwarded raw)
	MClockProbe                // master → worker: clock-offset probe (handshake, Cristian-style)
	MClockEcho                 // worker → master: probe echo with the worker's clock reading
	MJoin                      // standby worker → master: available for takeover, not initial partition
)

var kindNames = [...]string{
	MRegister: "MRegister", MAssign: "MAssign", MStart: "MStart", MDone: "MDone",
	MPing: "MPing", MStatus: "MStatus", MStopReq: "MStopReq", MReport: "MReport",
	MError: "MError", MStoreFrame: "MStoreFrame", MClockProbe: "MClockProbe",
	MClockEcho: "MClockEcho", MJoin: "MJoin",
}

// String returns the lifecycle name of the message kind, for handshake and
// protocol error messages.
func (k MsgKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "MsgKind(" + strconv.Itoa(int(k)) + ")"
}

// Msg is the single message type; Kind selects which fields are meaningful,
// and only those cross the wire (codec.msg).
type Msg struct {
	Kind MsgKind

	// MRegister
	NodeID string
	Cores  int
	Speed  float64

	// MAssign
	Kernels []string // kernel names the worker executes
	Spec    string   // program spec for workers that build the program from a registry
	// Failover tells the worker the master is running with failover enabled:
	// the worker builds its node with merge-tolerant stores so replayed
	// frames and re-executed kernels are idempotent (see
	// runtime.Options.MergeStores).
	Failover bool

	// MStoreFrame: a whole-generation batch of store notices encoded by
	// runtime.StoreFrame. Field and Age mirror the frame header so the
	// master broker routes by subscription without decoding the payload;
	// Trace is the frame's causal trace id (0 when tracing is off), which
	// the message carries and the frame does not.
	Frame []byte
	Trace uint64

	// SentNs is the sender's wall clock (UnixNano) when the message was
	// handed to the transport. Stamped only on freshly allocated messages —
	// the broker forwards messages by pointer, so forwarded messages keep
	// the original stamp. The master interprets it on every worker message
	// (workers allocate all their sends); workers interpret it only on
	// MPing, the one inbound kind the master always allocates itself.
	SentNs int64

	// MClockEcho: the worker's clock (UnixNano) at echo time; SentNs echoes
	// the probe's stamp so the master matches probe to reply.
	NodeNs int64

	// MStart: the worker's estimated clock offset (worker clock minus
	// master clock, nanoseconds) measured during the handshake; Synced
	// reports whether an estimate was made at all. Liveness is the master's
	// liveness window, which bounds the worker's every receive and send
	// from here on (zero: unbounded).
	OffsetNs int64
	Synced   bool
	Liveness time.Duration

	// MAssign: the run splits every indexed kernel into one index share per
	// entry of ShareWeights, sized by it (empty: it splits none), and Shares
	// are the ones this worker runs besides Kernels (runtime.Options.Shares).
	ShareWeights []int
	Shares       []int

	// MAssign and MStopReq: the master traces. Assigned, a worker without
	// its own tracer creates one — cluster tracing needs only the master's
	// -trace flag; stopped, it puts its spans on its MReport.
	TraceOn bool

	// MReport after a tracing stop: the worker's span buffer with its
	// alignment data (see obs.NodeTrace).
	Spans        []obs.Span
	TraceStartNs int64
	TraceDropped int64

	// MDone: Share is the index share that completed (0 for a kernel that
	// runs whole).
	Kernel string
	Age    int
	Share  int

	// MPing: the master wants the worker's metrics on the answering
	// MStatus — only a master with a ClusterView has somewhere to put them.
	WantMetrics bool

	// MStatus
	Idle     bool
	Sent     int64
	Received int64
	// Metrics is the worker's registry snapshot, carried on a heartbeat
	// whose ping set WantMetrics, so the master's /statusz shows live
	// per-kernel stats; nil otherwise.
	Metrics *obs.MetricsSnapshot

	// MReport
	Report *runtime.Report

	// MStoreFrame: the stored field (Age is shared with MDone)
	Field string

	// MError
	Err string
}

// On TCP a message is its kind byte, its SentNs as 8 little-endian bytes —
// a wall-clock stamp is 9 as a varint, and at least 9 bytes per message
// bound what a received *Msg costs per wire byte — and then the fields of
// its kind in codec.msg's order. A store frame's raw bytes follow it.
const (
	maxStrLen = 1 << 16 // a name, a spec or an error message
	maxCount  = 1 << 20 // the elements of a list or a map: 16 full trace rings
	maxNames  = 256
)

// codec moves one message between a Msg and its wire form: with r nil it
// appends to buf, otherwise it reads from r. Each field passes through one
// call that does whichever, so codec.msg lists a kind's layout once. Encoding
// never writes to the message, which the broker shares between connections.
type codec struct {
	r     *bufio.Reader
	buf   []byte            // what was encoded; read, a string's scratch
	names map[string]string // the strings read, interned
	err   error             // the first failure; every later call is a no-op
}

// msg codes m. A store frame's payload is not part of it: frameLen is the
// payload's length, whose bytes follow on the wire.
func (c *codec) msg(m *Msg, frameLen *int) {
	if c.r == nil {
		c.buf = binary.LittleEndian.AppendUint64(append(c.buf, byte(m.Kind)), uint64(m.SentNs))
	} else if b, err := c.r.Peek(9); err != nil {
		c.err = err
	} else {
		m.Kind, m.SentNs = MsgKind(b[0]), int64(binary.LittleEndian.Uint64(b[1:]))
		c.r.Discard(9)
	}
	switch m.Kind {
	case MRegister, MJoin:
		speed := math.Float64bits(m.Speed)
		c.str(&m.NodeID)
		num(c, &m.Cores)
		num(c, &speed)
		if c.r != nil {
			m.Speed = math.Float64frombits(speed)
		}
	case MAssign:
		list(c, &m.Kernels, (*codec).str)
		c.str(&m.Spec)
		list(c, &m.ShareWeights, num[int])
		list(c, &m.Shares, num[int])
		c.bool(&m.Failover)
		c.bool(&m.TraceOn)
	case MStart:
		num(c, &m.OffsetNs)
		num(c, &m.Liveness)
		c.bool(&m.Synced)
	case MDone:
		c.str(&m.Kernel)
		nums(c, &m.Age, &m.Share)
	case MPing:
		c.bool(&m.WantMetrics)
	case MStatus:
		c.bool(&m.Idle)
		nums(c, &m.Sent, &m.Received)
		ptr(c, &m.Metrics, (*codec).metrics)
	case MStopReq:
		c.bool(&m.TraceOn)
	case MReport:
		ptr(c, &m.Report, (*codec).report)
		list(c, &m.Spans, (*codec).span)
		nums(c, &m.TraceStartNs, &m.TraceDropped)
	case MError:
		c.str(&m.Err)
	case MStoreFrame:
		c.str(&m.Field)
		num(c, &m.Age)
		num(c, &m.Trace)
		c.count(frameLen, maxRecvFrameLen)
	case MClockProbe:
	case MClockEcho:
		num(c, &m.NodeNs)
	default:
		c.err = fmt.Errorf("dist: unknown message kind %d", m.Kind)
	}
}

// report codes a worker's final report.
func (c *codec) report(r *runtime.Report) {
	num(c, &r.Wall)
	list(c, &r.Kernels, func(c *codec, k *runtime.KernelStats) {
		c.str(&k.Name)
		nums(c, &k.Instances, &k.Slices, &k.Lockstep, &k.Declined, &k.StoreOps)
		nums(c, &k.DispatchTotal, &k.KernelTotal)
	})
	list(c, &r.Stalled, (*codec).str)
	nums(c, &r.FieldMemElems, &r.MaxQueueDepth, &r.MaxEventBacklog)
	list(c, &r.ShardEvents, num[int64])
	nums(c, &r.Steals, &r.EventBatches, &r.SentMsgs, &r.RecvMsgs, &r.SentBytes, &r.RecvBytes)
	ptr(c, &r.Stages, func(c *codec, s *runtime.StageTotals) {
		num(c, &s.Workers)
		nums(c, &s.ReadyWaitNs, &s.QueueWaitNs, &s.FetchNs, &s.ExecNs, &s.StoreNs, &s.IdleNs, &s.FlightNs,
			&s.AnalyzeNs, &s.AnalyzeMaxShardNs, &s.WallNs)
	})
}

// span codes one trace span.
func (c *codec) span(s *obs.Span) {
	c.str(&s.Name)
	c.str(&s.Cat)
	nums(c, &s.Ph, &s.Flow)
	nums(c, &s.TS, &s.Dur, &s.WaitNs, &s.FetchNs, &s.KernelNs, &s.StoreNs)
	nums(c, &s.TID, &s.Age)
	list(c, &s.Index, num[int])
	num(c, &s.Trace)
}

// metrics codes a registry snapshot.
func (c *codec) metrics(s *obs.MetricsSnapshot) {
	dict(c, &s.Counters, num[int64])
	dict(c, &s.Gauges, num[int64])
	dict(c, &s.Histograms, func(c *codec, h *obs.HistogramSnapshot) {
		nums(c, &h.Count, &h.SumNs)
		list(c, &h.Buckets, num[int64])
	})
}

// num codes an integer as a varint.
func num[T ~int | ~int64 | ~uint64 | ~uint8](c *codec, v *T) {
	if c.r == nil {
		c.buf = binary.AppendVarint(c.buf, int64(*v))
	} else if c.err == nil {
		var x int64
		x, c.err = binary.ReadVarint(c.r)
		*v = T(x)
	}
}

// nums codes integers of one type, in order.
func nums[T ~int | ~int64 | ~uint64 | ~uint8](c *codec, vs ...*T) {
	for _, v := range vs {
		num(c, v)
	}
}

// bool codes a bool as the varint of 0 or 1.
func (c *codec) bool(v *bool) {
	b := 0
	if *v {
		b = 1
	}
	if num(c, &b); c.r != nil {
		*v = b != 0
	}
}

// count codes a length; one over limit fails before anything is read for it.
func (c *codec) count(n *int, limit int) {
	if num(c, n); c.err == nil && (*n < 0 || *n > limit) {
		c.err = fmt.Errorf("dist: count %d over cap %d", *n, limit)
	}
}

// str codes a string: its length, then its bytes. Read, it is interned: a
// run has a few dozen field and kernel names, each arriving once per age, so
// only a name's first arrival allocates; names stops growing at maxNames.
func (c *codec) str(v *string) {
	n := len(*v)
	if c.count(&n, maxStrLen); c.r == nil {
		c.buf = append(c.buf, *v...)
		return
	}
	if c.err != nil {
		return
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	if _, c.err = io.ReadFull(c.r, c.buf[:n]); c.err != nil {
		return
	}
	s, ok := c.names[string(c.buf[:n])]
	if !ok {
		s = string(c.buf[:n])
		if c.names != nil && len(c.names) < maxNames {
			c.names[s] = s
		}
	}
	*v = s
}

// ptr codes a pointer: whether it is set, then what it points to.
func ptr[T any](c *codec, p **T, el func(*codec, *T)) {
	set := *p != nil
	if c.bool(&set); set && c.err == nil {
		if c.r != nil {
			*p = new(T)
		}
		el(c, *p)
	}
}

// list codes a slice: its count, then each element through el. Read, it
// grows once the next element has begun to arrive, at most doubling and never
// past the count, so an overstated count costs in proportion to what arrived.
func list[T any](c *codec, s *[]T, el func(*codec, *T)) {
	n := len(*s)
	if c.count(&n, maxCount); c.r == nil {
		for i := range *s {
			el(c, &(*s)[i])
		}
		return
	}
	var out []T
	for len(out) < n && c.err == nil {
		if len(out) == cap(out) {
			if _, c.err = c.r.Peek(1); c.err != nil {
				break
			}
			out = append(make([]T, 0, min(n, max(2*len(out), 4))), out...)
		}
		out = out[:len(out)+1]
		el(c, &out[len(out)-1])
	}
	*s = out
}

// dict codes a map: its keys, in order so that equal maps encode to equal
// bytes, then their values. Read, the map is made even when empty, as a
// registry snapshot's are.
func dict[V any](c *codec, mp *map[string]V, el func(*codec, *V)) {
	keys := make([]string, 0, len(*mp))
	for k := range *mp {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if list(c, &keys, (*codec).str); c.r != nil {
		*mp = make(map[string]V)
	}
	for _, k := range keys {
		v := (*mp)[k]
		if el(c, &v); c.r != nil {
			(*mp)[k] = v
		}
	}
}
