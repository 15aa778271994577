package runtime

import (
	"time"

	"repro/internal/obs"
)

// Slices (§V-A): the low-level scheduler combines ready instances of one
// kernel-age into slices of data and dispatches each slice as one unit. The
// analyzer carves a tracker's ready list into slices (slicer, below); a
// worker runs a slice through execSlice, which pays the per-dispatch costs —
// queue pop, generation pins, the store lock, the done event — once per
// slice instead of once per instance.

// batch is one slice: instances of the same kernel and age that a worker
// executes back to back. insts aliases a run of the tracker's append-only
// ready list, so carving a slice copies and allocates nothing; the slice
// travels analyzer → scheduler → worker → (inside the done event) analyzer,
// which recycles it.
type batch struct {
	tracker *ageTracker
	insts   []*instState
}

const (
	// sliceTargetNs is the run time a slice is sized for. It has to dwarf the
	// per-slice cost (a few microseconds of queue, lock and event traffic) and
	// stay well below an age's duration on the paper's workloads, so that
	// kernels whose instances already take this long — an MJPEG DCT block is
	// ~170 µs — keep dispatching one instance at a time.
	sliceTargetNs = 100_000
	// slicesPerWorker is the least number of slices per worker a kernel-age's
	// index domain is cut into, whatever the instances cost: the tail of an
	// age then waits for a fraction of a worker's share, not for one long
	// slice.
	slicesPerWorker = 4
	// maxSliceInsts bounds a slice regardless of how cheap instances measure.
	maxSliceInsts = 256
	// costSmoothing damps upward moves of the per-instance cost estimate
	// (see observeCost): it takes about this many dearer samples in a row
	// to convince the rule that a kernel has become more expensive.
	costSmoothing = 8
)

// sliceSize is the slice-sizing rule: how many instances of t's kernel-age go
// into one slice. An Options.Granularity entry is used as given. Otherwise
// the size is the target slice duration divided by the kernel's measured
// per-instance cost (kernelState.costNs: body plus dispatch of its recently
// timed slices — one instance per slice until the first has been timed),
// capped so the domain — the part of it that runs here, when the kernel is
// split — still yields slicesPerWorker slices per worker.
func (n *Node) sliceSize(t *ageTracker) int {
	ks := t.ks
	if ks.gran > 0 {
		return ks.gran
	}
	cost := ks.costNs.Load()
	if cost == 0 {
		return 1
	}
	size := int(min(sliceTargetNs/cost, maxSliceInsts))
	cells := boxCells(t.extents)
	if ks.own != nil {
		cells = cells * ks.ownN / ks.shares // about the part of the domain that runs here
	}
	if limit := cells / (n.opts.Workers * slicesPerWorker); size > limit {
		size = limit
	}
	return max(size, 1)
}

// observeCost folds one timed slice — ran instances in total nanoseconds —
// into the kernel's per-instance cost estimate. A cheaper sample replaces the
// estimate, a dearer one pulls it up by 1/costSmoothing of the difference:
// what disturbs a sample — a descheduled worker, cold caches, the first
// instances' frame checkout — only ever inflates it, and an inflated
// estimate is the costly error (slices shrink, and nothing bounds that),
// whereas a deflated one is harmless (slices grow, up to the per-worker cap).
func (ks *kernelState) observeCost(total time.Duration, ran int) {
	if ran == 0 {
		return
	}
	sample := max(int64(total)/int64(ran), 1)
	if old := ks.costNs.Load(); old > 0 && sample > old {
		sample = old + (sample-old)/costSmoothing
	}
	ks.costNs.Store(sample)
}

// retireSlice is the analyzer's handling of a slice's done event: its
// instances are done (each gets its commit span when tracing), the tracker's
// count moves by the slice's length, and the header is recycled. It returns
// the tracker and that length.
func (n *Node) retireSlice(b *batch) (*ageTracker, int) {
	t, k := b.tracker, len(b.insts)
	t.done += k
	tr := n.tracer
	for _, is := range b.insts {
		is.st = instDone
		if tr != nil {
			tr.Record(obs.Span{
				Name: t.ks.decl.Name, Cat: "commit", Ph: obs.PhaseInstant,
				TS: tr.Now(), Age: t.age, Index: is.coords,
			})
		}
	}
	releaseBatch(b)
	return t, k
}

// slicer is the carving half of the dependency analyzer, one per shard: it
// collects ready instances per tracker and cuts them into slices for the
// scheduler.
type slicer struct {
	n *Node
	// dirty lists the trackers that gained ready instances since the last
	// drain (ageTracker.dirty marks membership); only they can hold a
	// remainder.
	dirty []*ageTracker
	// out holds carved slices until push hands them to the scheduler.
	out []*batch
	// push delivers carved slices: the owning shard's quiescence
	// accounting followed by stealScheduler.PushBulk.
	push func([]*batch)
}

// ready appends a fully satisfied instance to its tracker's ready list. Full
// slices are carved on the spot and handed over as soon as there is one per
// worker, so workers start on a large creation burst while the analyzer is
// still materializing the rest of it.
func (c *slicer) ready(t *ageTracker, is *instState) {
	t.ready = append(t.ready, is)
	if !t.dirty {
		t.dirty = true
		c.dirty = append(c.dirty, t)
	}
	if t.uncarved() >= t.size {
		c.carve(t, false)
		if len(c.out) >= c.n.opts.Workers {
			c.flush()
		}
	}
}

// carve cuts t's uncarved ready instances into slices of the current size;
// a shorter remainder stays behind unless partial is set.
func (c *slicer) carve(t *ageTracker, partial bool) {
	size := c.n.sliceSize(t)
	t.size = size
	for left := t.uncarved(); left >= size || (partial && left > 0); left = t.uncarved() {
		k := min(size, left)
		b := getBatch()
		b.tracker = t
		b.insts = t.ready[t.head : t.head+k : t.head+k]
		t.head += k
		c.out = append(c.out, b)
	}
}

// drain releases everything: every dirty tracker's remainder is carved into
// a final, shorter slice and all carved slices are pushed. Shards call it
// at a lull, so no ready instance is ever stranded; between lulls they only
// flush, and remainders wait for their slice to fill up.
func (c *slicer) drain() {
	for _, t := range c.dirty {
		c.carve(t, true)
		t.dirty = false
	}
	clear(c.dirty)
	c.dirty = c.dirty[:0]
	c.flush()
}

// flush hands the carved slices to the scheduler.
func (c *slicer) flush() {
	if len(c.out) == 0 {
		return
	}
	c.push(c.out)
	clear(c.out)
	c.out = c.out[:0]
}
