// Package runtime implements a P2G execution node: the paper's low-level
// scheduler (LLS). It consists of a dependency analyzer running in a
// dedicated goroutine — exactly as the prototype in the paper runs its
// analyzer in a dedicated thread — plus a pool of worker goroutines that
// dispatch kernel instances from age-ordered ready queues.
//
// The analyzer receives store/resize/done events from running kernel
// instances, derives every new valid combination of age and index variables
// that became runnable, and enqueues them. Ready instances are dispatched
// oldest-age-first so that aging cycles (mul2/plus5) cannot starve younger
// work, and each instance is dispatched exactly once (write-once semantics
// make re-execution meaningless).
//
// Two ready-queue implementations exist: the work-stealing per-worker deques
// of sched.go (the default) and the single global priority queue below (the
// reference implementation, selectable with Options.Scheduler for A/B
// comparison).
package runtime

import (
	"container/heap"
	"sync"
)

// ageHeap is a min-heap of ages with non-empty buckets.
type ageHeap []int

func (h ageHeap) Len() int           { return len(h) }
func (h ageHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h ageHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ageHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *ageHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// readyQueue is the node-wide priority queue of dispatchable batches, ordered
// by age (oldest first) and FIFO within an age. Pop blocks until a batch is
// available or the queue is closed.
type readyQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buckets map[int][]*batch
	ages    ageHeap
	closed  bool
	queued  int
}

func newReadyQueue() *readyQueue {
	q := &readyQueue{buckets: make(map[int][]*batch)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// PushBulk enqueues many batches under one lock acquisition with a single
// consumer broadcast (see scheduler.PushBulk).
func (q *readyQueue) PushBulk(bs []*batch) {
	if len(bs) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	for _, b := range bs {
		age := b.tracker.age
		if _, ok := q.buckets[age]; !ok {
			heap.Push(&q.ages, age)
		}
		q.buckets[age] = append(q.buckets[age], b)
		q.queued += len(b.insts)
	}
	q.cond.Broadcast()
}

// popLocked removes the oldest-age batch, or nil when the queue is empty.
// Caller holds mu.
func (q *readyQueue) popLocked() *batch {
	for len(q.ages) > 0 {
		age := q.ages[0]
		bucket := q.buckets[age]
		if len(bucket) == 0 {
			heap.Pop(&q.ages)
			delete(q.buckets, age)
			continue
		}
		b := bucket[0]
		// Nil the popped slot: the age bucket keeps its backing array alive
		// for FIFO reslicing, and without this every popped batch would be
		// retained for the life of the bucket.
		bucket[0] = nil
		q.buckets[age] = bucket[1:]
		q.queued -= len(b.insts)
		return b
	}
	return nil
}

// Pop removes the oldest-age batch, blocking until one is available. The
// second result is false once the queue is closed and drained. The worker
// argument is unused (this is the global reference queue).
func (q *readyQueue) Pop(int) (*batch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if b := q.popLocked(); b != nil {
			return b, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// TryPop removes the oldest-age batch without blocking; false when the queue
// is currently empty.
func (q *readyQueue) TryPop(int) (*batch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.popLocked()
	return b, b != nil
}

// Close wakes all blocked consumers; queued batches may still be popped.
func (q *readyQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len returns the number of queued instances (not batches).
func (q *readyQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}
