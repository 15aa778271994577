package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
	MStopReq                   // master → worker: quiesce reached, shut down
	MReport                    // worker → master: final instrumentation report
	MError                     // either direction: fatal error
	MStoreFrame                // worker ↔ master: a batched store-notice frame (forwarded raw)
	MClockProbe                // master → worker: clock-offset probe (handshake, Cristian-style)
	MClockEcho                 // worker → master: probe echo with the worker's clock reading
	MTraceReq                  // master → worker: send your span buffer (shutdown)
	MTrace                     // worker → master: span buffer + trace alignment data
	MJoin                      // standby worker → master: available for takeover, not initial partition
)

var kindNames = [...]string{
	MRegister: "MRegister", MAssign: "MAssign", MStart: "MStart", MDone: "MDone",
	MPing: "MPing", MStatus: "MStatus", MStopReq: "MStopReq", MReport: "MReport",
	MError: "MError", MStoreFrame: "MStoreFrame", MClockProbe: "MClockProbe",
	MClockEcho: "MClockEcho", MTraceReq: "MTraceReq", MTrace: "MTrace", MJoin: "MJoin",
}

// String returns the lifecycle name of the message kind, for handshake and
// protocol error messages.
func (k MsgKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "MsgKind(" + strconv.Itoa(int(k)) + ")"
}

// Msg is the single message type; Kind selects which fields are meaningful.
// On TCP the per-age kinds travel in a binary envelope of their own fields
// (appendEnvelope) and the rest as gob values of the whole struct.
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
	// travels on the envelope only.
	Frame []byte
	Trace uint64

	// SentNs is the sender's wall clock (UnixNano) when the message was
	// handed to the transport. Stamped only on freshly allocated messages —
	// the broker forwards messages by pointer, so forwarded envelopes keep
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

	// MAssign: the master traces and will pull span buffers at shutdown,
	// so a worker without its own tracer should create one — cluster
	// tracing needs only the master's -trace flag.
	TraceOn bool

	// MTrace: the worker's span buffer with its alignment data (see
	// obs.NodeTrace).
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

// On TCP a message starts with its kind byte. A hot kind, one that crosses
// once or more per age, follows it with a fixed binary envelope: uvarints of
// a flag word (Idle, WantMetrics), SentNs, Age, Share, Trace, Sent, Received,
// the length of the raw frame written right after the envelope and the
// lengths of Field and Kernel, then those two names. Any other message is
// gobTag, a length checked against maxGobLen before anything is read, and one
// value of the connection's gob stream.
const (
	hotKinds   = 1<<MStoreFrame | 1<<MDone | 1<<MPing | 1<<MStatus | 1<<MStopReq | 1<<MTraceReq
	gobTag     = 0xFF
	maxGobLen  = 16 << 20 // a full trace ring, 65 536 spans, is about 5 MB
	maxNameLen = 1 << 10
	maxNames   = 256
)

// hot reports whether m travels in the binary envelope: its kind is hot and,
// for an MStatus, it carries no metrics.
func hot(m *Msg) bool {
	return hotKinds>>m.Kind&1 != 0 && (m.Kind != MStatus || m.Metrics == nil)
}

// appendEnvelope appends the kind byte and envelope of a hot message whose
// frame is frameLen bytes long.
func appendEnvelope(b []byte, m *Msg, frameLen int) []byte {
	var flags uint64
	if m.Idle {
		flags |= 1
	}
	if m.WantMetrics {
		flags |= 2
	}
	b = append(b, byte(m.Kind))
	for _, v := range [...]uint64{flags, uint64(m.SentNs), uint64(m.Age), uint64(m.Share), m.Trace,
		uint64(m.Sent), uint64(m.Received), uint64(frameLen), uint64(len(m.Field)), uint64(len(m.Kernel))} {
		b = binary.AppendUvarint(b, v)
	}
	return append(append(b, m.Field...), m.Kernel...)
}

// readEnvelope decodes a hot message of kind k, the raw frame after it
// included, from br into m; names reads and interns the two names.
func readEnvelope(br *bufio.Reader, k MsgKind, m *Msg, names *nameSet) (err error) {
	if m.Kind = k; !hot(m) {
		return fmt.Errorf("dist: %v has no binary envelope", k)
	}
	var w [10]uint64
	for i := 0; i < len(w) && err == nil; i++ {
		w[i], err = binary.ReadUvarint(br)
	}
	m.Idle, m.WantMetrics, m.SentNs, m.Age, m.Share = w[0]&1 != 0, w[0]&2 != 0, int64(w[1]), int(w[2]), int(w[3])
	m.Trace, m.Sent, m.Received = w[4], int64(w[5]), int64(w[6])
	if err == nil {
		m.Field, err = names.read(br, w[8])
	}
	if err == nil {
		m.Kernel, err = names.read(br, w[9])
	}
	if err == nil && w[7] > maxRecvFrameLen {
		err = fmt.Errorf("dist: frame length %d out of range", w[7])
	} else if err == nil && w[7] > 0 {
		m.Frame, err = readFrame(br, int(w[7]))
	}
	return err
}

// nameSet interns the field and kernel names a connection receives: a run
// has a few dozen, each arriving once per age, so only a name's first
// arrival allocates. buf is the scratch a name is read into; set stops
// growing at maxNames.
type nameSet struct {
	set map[string]string
	buf [maxNameLen]byte
}

// read reads a name of n bytes.
func (s *nameSet) read(br *bufio.Reader, n uint64) (string, error) {
	if n > maxNameLen {
		return "", fmt.Errorf("dist: name of %d bytes over cap %d", n, maxNameLen)
	}
	b := s.buf[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	v, ok := s.set[string(b)]
	if !ok {
		v = string(b)
		if s.set != nil && len(s.set) < maxNames {
			s.set[v] = v
		}
	}
	return v, nil
}
