package dist

import (
	"hash/fnv"
	"sync"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// genKey identifies one field generation.
type genKey struct {
	field string
	age   int
}

// storeBatcher coalesces store notices into whole-generation frames on the
// worker send path. Stores accumulate per (field, age) and leave only through
// flushAll, one frame per generation in first-store order. Flushing before
// every MDone preserves the per-origin stores-before-done order the master
// broker and downstream consumers rely on. Since a slice publishes one notice
// per merged box, a generation's notices are few, and each frame pays its
// encoding and its two hops once per flush, not once per size threshold.
//
// Frames come from the runtime frame pool and are handed to emit together
// with the routing envelope (whose Frame field is left nil); emit sends the
// frame through Conn.SendFrame and recycles it.
type storeBatcher struct {
	mu     sync.Mutex
	frames map[genKey]*runtime.StoreFrame
	order  []genKey
	emit   func(*Msg, *runtime.StoreFrame)

	// Causal tracing (a nil tracer disables it): each emitted frame gets a
	// cluster-unique trace id — node-seed in the high bits, a local sequence
	// in the low bits — on its Msg envelope, and emission records the
	// flow-start span of the frame's cross-node journey.
	tracer *obs.Tracer
	seed   uint64
	seq    uint64

	mFrames *obs.Counter
	mBytes  *obs.Counter
	mStores *obs.Counter
}

// newStoreBatcher creates a batcher that hands finished frames to emit.
// Metrics handles may be nil (obs metrics are nil-safe); a nil tracer
// disables causal trace ids.
func newStoreBatcher(emit func(*Msg, *runtime.StoreFrame), reg *obs.Registry, nodeID string, tracer *obs.Tracer) *storeBatcher {
	h := fnv.New64a()
	h.Write([]byte(nodeID))
	return &storeBatcher{
		frames:  map[genKey]*runtime.StoreFrame{},
		emit:    emit,
		tracer:  tracer,
		seed:    h.Sum64(),
		mFrames: reg.Counter(obs.MDistFramesTotal),
		mBytes:  reg.Counter(obs.MDistFrameBytesTotal),
		mStores: reg.Counter(obs.MDistFrameStores),
	}
}

// add appends one store notice to its generation's frame. The notice may be
// borrowed (runtime.Options.OnStore): the frame copies it.
func (b *storeBatcher) add(sn runtime.StoreNotice) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := genKey{field: sn.Field, age: sn.Age}
	f := b.frames[k]
	if f == nil {
		f = runtime.GetStoreFrame()
		f.Reset(sn.Field, sn.Age)
		b.frames[k] = f
		b.order = append(b.order, k)
	}
	return f.Add(sn)
}

// flushAll emits every pending frame in first-store order, then runs point
// (when not nil) under the same lock. point sends the message that marks the
// flush (an MDone, an MStatus): no other flush can emit a frame between this
// flush's frames and that message, so a generation leaves at most once
// between two flush points on the wire.
func (b *storeBatcher) flushAll(point func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range b.order {
		b.emitLocked(k, b.frames[k])
	}
	b.order = b.order[:0]
	if point != nil {
		point()
	}
}

// emitLocked sends one frame and forgets it; the caller holds b.mu.
func (b *storeBatcher) emitLocked(k genKey, f *runtime.StoreFrame) {
	delete(b.frames, k)
	var trace uint64
	if b.tracer != nil {
		// Low 32 bits are the local sequence (nonzero), high bits the
		// node seed: unique across the cluster for practical runs.
		b.seq++
		trace = (b.seed << 32) | (b.seq & 0xffffffff)
	}
	b.mFrames.Inc()
	b.mBytes.Add(int64(f.Len()))
	b.mStores.Add(int64(f.Entries()))
	emitFrom := b.tracer.Now()
	b.emit(&Msg{Kind: MStoreFrame, Field: k.field, Age: k.age, Trace: trace}, f)
	if tr := b.tracer; tr != nil {
		// Flow start of the frame's causal journey: handing the encoded
		// generation to the transport.
		tr.Record(obs.Span{
			Name: "emit " + k.field, Cat: "dist", Ph: obs.PhaseComplete,
			TS: emitFrom, Dur: tr.Now() - emitFrom,
			Age: k.age, Trace: trace, Flow: obs.FlowStart,
		})
	}
}
