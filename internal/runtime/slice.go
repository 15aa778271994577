package runtime

import (
	"time"

	"repro/internal/obs"
)

// Slices (§V-A): the low-level scheduler combines ready instances of one
// kernel-age into slices of data and dispatches each slice as one unit. The
// analyzer carves a tracker's ready instances into slices (slicer, below); a
// worker runs a slice through execSlice, which pays the per-dispatch costs —
// queue pop, generation pins, the store lock, the done event — once per
// slice instead of once per instance.

// batch is one slice: instances of the same kernel and age that a worker
// executes back to back, the cells of run. Carving a slice copies and
// allocates nothing; the slice travels analyzer → scheduler → worker →
// (inside the done event) analyzer, which recycles it. probe marks an
// untimed kernel's probe slice (slicer.probe); seq is the slice's push
// sequence in the ready queue, its order within an age.
type batch struct {
	tracker *ageTracker
	run     cellRun
	probe   bool
	seq     uint64
}

// len is the slice's instance count.
func (b *batch) len() int { return b.run.len() }

// inst returns the coordinates and ready stamp of the slice's instance i,
// decoded into buf (len rank), which they alias.
func (b *batch) inst(i int, buf []int) ([]int, int64) {
	return b.run.coords(b.run.lo+i, buf), b.run.readyNs
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
// timed slices), capped so the domain — the part of it that runs here, when
// the kernel is split — still yields slicesPerWorker slices per worker. Zero
// means the kernel has not been timed yet: the slicer then probes it.
func (n *Node) sliceSize(t *ageTracker) int {
	ks := t.ks
	if ks.gran > 0 {
		return ks.gran
	}
	cost := ks.costNs.Load()
	if cost == 0 {
		return 0
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
	t, k := b.tracker, b.len()
	t.done += k
	if tr := n.tracer; tr != nil {
		for i := 0; i < k; i++ {
			coords, _ := b.inst(i, make([]int, b.run.rank))
			tr.Record(obs.Span{
				Name: t.ks.decl.Name, Cat: "commit", Ph: obs.PhaseInstant,
				TS: tr.Now(), Age: t.age, Index: coords,
			})
		}
	}
	releaseBatch(b)
	return t, k
}

// slicer is the carving half of the dependency analyzer: it collects ready
// instances per tracker and cuts them into slices for the scheduler.
type slicer struct {
	n *Node
	// dirty lists the trackers that gained ready instances since the last
	// drain (ageTracker.dirty marks membership); only they can hold a
	// remainder.
	dirty []*ageTracker
	// out holds carved slices until push hands them to the scheduler.
	out []*batch
	// push delivers carved slices: the analyzer's quiescence accounting
	// followed by sliceQueue.PushBulk.
	push func([]*batch)
}

// added follows new ready instances of t. Full slices are carved on the spot
// and handed over as soon as there is one per worker, so workers start on a
// large creation burst while the analyzer is still materializing the rest of
// it.
func (c *slicer) added(t *ageTracker) {
	if !t.dirty {
		t.dirty = true
		c.dirty = append(c.dirty, t)
	}
	if t.queued >= t.size {
		c.carve(t, false)
		if len(c.out) >= c.n.opts.Workers {
			c.flush()
		}
	}
}

// carve cuts t's uncarved ready instances into slices of the current size; a
// shorter remainder stays behind unless partial is set. A slice never spans
// two runs, so the remainder of every run but the last is cut as it is. An
// untimed kernel is probed instead.
func (c *slicer) carve(t *ageTracker, partial bool) {
	size := c.n.sliceSize(t)
	if size == 0 {
		c.probe(t)
		return
	}
	t.size = size
	for ; t.rhead < len(t.runs); t.rhead++ {
		r := &t.runs[t.rhead]
		last := t.rhead == len(t.runs)-1
		for r.len() >= size || r.len() > 0 && (partial || !last) {
			c.cut(t, min(size, r.len()))
		}
		if r.len() > 0 {
			return
		}
	}
	t.runs, t.rhead = t.runs[:0], 0
}

// cut carves the next k uncarved instances of t into one slice.
func (c *slicer) cut(t *ageTracker, k int) *batch {
	b := getBatch()
	b.tracker = t
	r := &t.runs[t.rhead]
	b.run = *r
	b.run.hi = r.lo + k
	r.lo += k
	t.queued -= k
	c.out = append(c.out, b)
	return b
}

// probe handles the ready instances of a kernel that has not been timed yet.
// Its cost decides the slice size, so it gets single-instance probe slices —
// up to one in flight per worker — and the rest waits, held, until a probe
// returns (probed) with the kernel's first cost sample: sizing it one
// instance per slice instead would cut a whole creation burst into slices of
// one.
func (c *slicer) probe(t *ageTracker) {
	ks := t.ks
	for ks.probes < c.n.opts.Workers && t.queued > 0 {
		if t.runs[t.rhead].len() > 0 {
			c.cut(t, 1).probe = true
			ks.probes++
			continue
		}
		t.rhead++
	}
	if t.queued > 0 && !t.held {
		t.held = true
		ks.held = append(ks.held, t)
	}
}

// probed follows the done event of one of ks's probe slices: the held
// trackers are carved again, by the cost the probe measured — or probed
// again, should it have measured none.
func (c *slicer) probed(ks *kernelState) {
	ks.probes--
	held := ks.held
	ks.held = nil
	for _, t := range held {
		t.held = false
		c.carve(t, true)
	}
}

// drain releases everything: every dirty tracker's remainder is carved into
// a final, shorter slice and all carved slices are pushed. The analyzer calls
// it at a lull, so no ready instance is ever stranded — except the held work
// of an untimed kernel, which its probes' done events release; between lulls
// it only flushes, and remainders wait for their slice to fill up.
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
