package runtime

import "repro/internal/obs"

// Slices (§V-A): the low-level scheduler combines ready instances of one
// kernel-age into slices of data and dispatches each slice as one unit. The
// analyzer carves a tracker's ready instances into slices (slicer, below); a
// worker runs a slice through execSlice, which pays the per-dispatch costs —
// queue pop, generation pins, the store lock, the done event — once per
// slice instead of once per instance.

// batch is one slice: instances of the same kernel and age that a worker
// executes back to back, the cells of run. Carving a slice copies and
// allocates nothing; the slice travels analyzer → scheduler → worker →
// (inside the done event) analyzer, which recycles it. seq is the slice's
// push sequence in the ready queue, its order within an age.
type batch struct {
	tracker *ageTracker
	run     cellRun
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
	// slicesPerWorker is the number of slices per worker a kernel-age's
	// index domain is cut into: the tail of an age then waits for a fraction
	// of a worker's share, not for one long slice, and the per-slice costs —
	// queue, pins, store lock, done event — are paid a few times per worker
	// and age, not once per instance.
	slicesPerWorker = 4
	// maxSliceInsts bounds a slice over a large domain, so that a slice's
	// staged stores and lockstep registers stay small.
	maxSliceInsts = 256
)

// sliceSize is the slice-sizing rule: how many instances of t's kernel-age go
// into one slice. An Options.Granularity entry is used as given. Otherwise
// the size is the tail limit: the domain — the part of it that runs here,
// when the kernel is split into shares — divided into slicesPerWorker slices
// per worker, at most maxSliceInsts and at least one instance.
func (n *Node) sliceSize(t *ageTracker) int {
	ks := t.ks
	if ks.gran > 0 {
		return ks.gran
	}
	cells := boxCells(t.extents)
	if ks.own != nil {
		cells = cells * ks.ownN / ks.shares // about the part of the domain that runs here
	}
	return max(min(cells/(n.opts.Workers*slicesPerWorker), maxSliceInsts), 1)
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
// two runs, so the remainder of every run but the last is cut as it is.
func (c *slicer) carve(t *ageTracker, partial bool) {
	size := c.n.sliceSize(t)
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
func (c *slicer) cut(t *ageTracker, k int) {
	b := getBatch()
	b.tracker = t
	r := &t.runs[t.rhead]
	b.run = *r
	b.run.hi = r.lo + k
	r.lo += k
	t.queued -= k
	c.out = append(c.out, b)
}

// drain releases everything: every dirty tracker's remainder is carved into
// a final, shorter slice and all carved slices are pushed. The analyzer calls
// it at a lull, so no ready instance is ever stranded; between lulls it only
// flushes, and remainders wait for their slice to fill up.
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
