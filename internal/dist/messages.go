package dist

import (
	"strconv"

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

// Msg is the single wire envelope; Kind selects which fields are meaningful.
// A flat struct keeps gob encoding simple and self-describing.
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
	// FrameLen carries the frame payload out-of-band: the TCP transport
	// encodes the envelope with Frame nil and FrameLen set, then writes the
	// raw frame bytes directly after it on the stream. Recv materializes the
	// bytes back into Frame and zeroes FrameLen, so receivers never observe
	// the split form.
	FrameLen int

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
	// reports whether an estimate was made at all.
	OffsetNs int64
	Synced   bool

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
