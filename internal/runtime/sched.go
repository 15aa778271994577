// Package runtime implements a P2G execution node: the paper's low-level
// scheduler (LLS). It consists of a dependency analyzer (analyzer.go) — the
// paper's dedicated analyzer thread — plus a pool of worker goroutines that
// dispatch slices of kernel instances from one age-ordered ready queue (this
// file).
//
// The analyzer receives store/resize/done events from running kernel
// instances, derives every new valid combination of age and index variables
// that became runnable, and enqueues them. Ready instances are dispatched
// oldest-age-first so that aging cycles (mul2/plus5) cannot starve younger
// work, and each instance is dispatched exactly once (write-once semantics
// make re-execution meaningless).
package runtime

import (
	"container/heap"
	"sync"
)

// sliceHeap is a binary min-heap of queued slices keyed by (age, push
// sequence).
type sliceHeap []*batch

func (h sliceHeap) Len() int { return len(h) }
func (h sliceHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.tracker.age < b.tracker.age || a.tracker.age == b.tracker.age && a.seq < b.seq
}
func (h sliceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sliceHeap) Push(x any)   { *h = append(*h, x.(*batch)) }

// Pop nils the vacated slot so the backing array does not pin popped slices.
func (h *sliceHeap) Pop() any {
	old := *h
	b := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return b
}

// sliceQueue is the dispatch half of the low-level scheduler: the one ready
// queue every worker of a node pops from. The analyzer pushes carved slices;
// workers pop them oldest age first and, within an age, in push order. One
// mutex guards the heap; workers with nothing to run wait on cond.
//
// A slice is sized to about 100 µs of work (slice.go), so a node pops a few
// tens of thousands of slices per second at most, and one uncontended lock
// per pop is well under 1 % of a slice.
type sliceQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	ready   sliceHeap
	seq     uint64 // push sequence of the last slice pushed
	queued  int    // instances, not slices
	waiters int    // workers blocked in Pop
	closed  bool
}

func newSliceQueue() *sliceQueue {
	q := &sliceQueue{}
	q.cond.L = &q.mu
	return q
}

// PushBulk enqueues a burst of slices under one lock and wakes at most one
// blocked worker per slice. A push after Close is ignored.
func (q *sliceQueue) PushBulk(bs []*batch) {
	q.mu.Lock()
	if !q.closed {
		for _, b := range bs {
			q.seq++
			b.seq = q.seq
			q.queued += b.len()
			heap.Push(&q.ready, b)
		}
		for i := min(len(bs), q.waiters); i > 0; i-- {
			q.cond.Signal()
		}
	}
	q.mu.Unlock()
}

// TryPop returns the head slice without blocking, or false when none is
// queued (which does not imply the queue is closed). Workers use it to flush
// buffered analyzer events before they would block.
func (q *sliceQueue) TryPop() (*batch, bool) {
	q.mu.Lock()
	b := q.pop()
	q.mu.Unlock()
	return b, b != nil
}

// Pop blocks until a slice is queued; false once the queue is closed and
// drained.
func (q *sliceQueue) Pop() (*batch, bool) {
	q.mu.Lock()
	for len(q.ready) == 0 && !q.closed {
		q.waiters++
		q.cond.Wait()
		q.waiters--
	}
	b := q.pop()
	q.mu.Unlock()
	return b, b != nil
}

// pop removes the head slice, or returns nil when none is queued. The caller
// holds mu.
func (q *sliceQueue) pop() *batch {
	if len(q.ready) == 0 {
		return nil
	}
	b := heap.Pop(&q.ready).(*batch)
	q.queued -= b.len()
	return b
}

// Close wakes all blocked workers; queued slices may still be popped.
func (q *sliceQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Len returns the number of queued instances (not slices).
func (q *sliceQueue) Len() int {
	q.mu.Lock()
	n := q.queued
	q.mu.Unlock()
	return n
}
