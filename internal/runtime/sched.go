// Package runtime implements a P2G execution node: the paper's low-level
// scheduler (LLS). It consists of a dependency analyzer (analyzer.go) — the
// paper's dedicated analyzer thread — plus a pool of worker goroutines that
// dispatch slices of kernel instances from per-worker age-ordered deques
// (this file).
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
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ageHeap is a min-heap of ages with non-empty buckets.
type ageHeap []int

func (h ageHeap) Len() int           { return len(h) }
func (h ageHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h ageHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ageHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *ageHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// emptyAge is the deque-min sentinel for "nothing queued".
const emptyAge = int64(math.MaxInt64)

// ageBucket is the FIFO of same-age batches inside one deque. Popping
// advances head and nils the slot so popped batches are not retained by the
// backing array for the bucket's lifetime.
type ageBucket struct {
	batches []*batch
	head    int
}

// workerDeque is one worker's age-ordered queue. The owning worker pops from
// it locally; peers steal from it when their own deques run dry. min is the
// age of the oldest queued batch (emptyAge when empty), published atomically
// so thieves can scan deques without taking every lock.
type workerDeque struct {
	mu      sync.Mutex
	buckets map[int]*ageBucket
	ages    ageHeap
	queued  int // instances
	min     atomic.Int64
	depth   *obs.Gauge // per-worker queue-depth gauge; nil-safe
}

func (d *workerDeque) push(age int, b *batch) {
	d.mu.Lock()
	bkt := d.buckets[age]
	if bkt == nil {
		bkt = &ageBucket{}
		d.buckets[age] = bkt
		heap.Push(&d.ages, age)
	}
	bkt.batches = append(bkt.batches, b)
	d.queued += b.len()
	if int64(age) < d.min.Load() {
		d.min.Store(int64(age))
	}
	d.depth.Set(int64(d.queued))
	d.mu.Unlock()
}

// popOldest removes the oldest-age batch, or nil when the deque is empty
// (possible even right after min suggested otherwise — a racing consumer may
// have taken the work).
func (d *workerDeque) popOldest() *batch {
	d.mu.Lock()
	for len(d.ages) > 0 {
		age := d.ages[0]
		bkt := d.buckets[age]
		if bkt == nil || bkt.head >= len(bkt.batches) {
			heap.Pop(&d.ages)
			delete(d.buckets, age)
			continue
		}
		b := bkt.batches[bkt.head]
		bkt.batches[bkt.head] = nil
		bkt.head++
		if bkt.head >= len(bkt.batches) {
			heap.Pop(&d.ages)
			delete(d.buckets, age)
		}
		d.queued -= b.len()
		d.publishMin()
		d.depth.Set(int64(d.queued))
		d.mu.Unlock()
		return b
	}
	d.min.Store(emptyAge)
	d.mu.Unlock()
	return nil
}

// publishMin refreshes the atomic min from the heap top. Caller holds mu.
func (d *workerDeque) publishMin() {
	for len(d.ages) > 0 {
		age := d.ages[0]
		if bkt := d.buckets[age]; bkt != nil && bkt.head < len(bkt.batches) {
			d.min.Store(int64(age))
			return
		}
		heap.Pop(&d.ages)
		delete(d.buckets, age)
	}
	d.min.Store(emptyAge)
}

// stealScheduler is the dispatch half of the low-level scheduler, a
// work-stealing ready queue: the analyzer pushes ready batches, spread
// round-robin over one deque per worker, and workers pop them
// oldest-age-first. An age epoch preserves the paper's oldest-age-first
// dispatch order without a global lock on the hot path.
//
// The epoch is a lower bound on the oldest queued age. Pushes lower it
// (CAS-min after enqueueing); pops raise it when a scan over all deques
// proves every queued age is younger. A worker whose local oldest age is at
// the epoch pops locally without looking at anyone else — the common case —
// and otherwise scans the deques' published minimum ages for the globally
// oldest batch, stealing it from the peer that holds it. Because the epoch
// is advanced only by such proofs, a worker can never keep dispatching age
// N+1 work while a peer still holds age N work at or below the epoch; the
// only ordering slack is the instant between a batch being enqueued and its
// age being folded into the epoch, which is bounded by one dispatch.
type stealScheduler struct {
	deques  []*workerDeque
	epoch   atomic.Int64
	queued  atomic.Int64 // total queued instances
	rr      atomic.Uint32
	closed  atomic.Bool
	version atomic.Uint64 // bumped on every push; detects missed wakeups
	waiters atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
	steals  *obs.Counter // nil-safe
}

// newStealScheduler creates the stealing scheduler. steals and depth may be
// nil (metrics disabled); depth, when set, holds one gauge per worker.
func newStealScheduler(workers int, steals *obs.Counter, depth []*obs.Gauge) *stealScheduler {
	if workers < 1 {
		workers = 1
	}
	s := &stealScheduler{deques: make([]*workerDeque, workers), steals: steals}
	for i := range s.deques {
		d := &workerDeque{buckets: make(map[int]*ageBucket)}
		d.min.Store(emptyAge)
		if depth != nil {
			d.depth = depth[i]
		}
		s.deques[i] = d
	}
	s.epoch.Store(emptyAge)
	s.cond = sync.NewCond(&s.mu)
	return s
}

// PushBulk enqueues a burst of batches: per-batch deque pushes (round-robin)
// but a single epoch CAS with the group's minimum age and a single waiter
// broadcast, so creation bursts do not pay per-batch wakeup cost.
func (s *stealScheduler) PushBulk(bs []*batch) {
	if len(bs) == 0 || s.closed.Load() {
		return
	}
	minAge := int64(math.MaxInt64)
	var insts int64
	// Count first, push second: a pushed slice can be popped, run and
	// recycled at once, and a length read afterwards under-counts queued.
	for _, b := range bs {
		insts += int64(b.len())
		minAge = min(minAge, int64(b.tracker.age))
	}
	s.queued.Add(insts)
	for _, b := range bs {
		s.deques[int(s.rr.Add(1))%len(s.deques)].push(b.tracker.age, b)
	}
	for {
		e := s.epoch.Load()
		if minAge >= e || s.epoch.CompareAndSwap(e, minAge) {
			break
		}
	}
	s.version.Add(1)
	if s.waiters.Load() > 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// TryPop returns a batch without blocking, or false when no work is currently
// available (which does not imply the queue is closed). Workers use it to
// flush buffered analyzer events before they would block.
func (s *stealScheduler) TryPop(worker int) (*batch, bool) {
	self := s.deques[worker]
	for {
		e := s.epoch.Load()
		// Fast path: local work at (or below) the epoch is globally oldest
		// — no peer can hold anything older than the epoch lower bound.
		if m := self.min.Load(); m != emptyAge && m <= e {
			if b := self.popOldest(); b != nil {
				s.queued.Add(-int64(b.len()))
				return b, true
			}
			continue // lost a race with a thief; re-evaluate
		}
		// Slow path: locate the globally oldest deque.
		vi, oldest := -1, emptyAge
		for i, d := range s.deques {
			if m := d.min.Load(); m < oldest {
				oldest, vi = m, i
			}
		}
		if vi < 0 {
			return nil, false // everything is empty
		}
		if oldest > e {
			// Every queued age is younger than the epoch: raise it so
			// future pops take the fast path. CAS, so a concurrent push of
			// older work wins.
			s.epoch.CompareAndSwap(e, oldest)
		}
		if b := s.deques[vi].popOldest(); b != nil {
			s.queued.Add(-int64(b.len()))
			if vi != worker {
				s.steals.Add(1)
			}
			return b, true
		}
		// The victim was drained under us; rescan.
	}
}

// Pop blocks until a batch is available; false once the queue is closed and
// drained.
func (s *stealScheduler) Pop(worker int) (*batch, bool) {
	for {
		if b, ok := s.TryPop(worker); ok {
			return b, true
		}
		s.mu.Lock()
		v := s.version.Load()
		if b, ok := s.TryPop(worker); ok {
			s.mu.Unlock()
			return b, true
		}
		if s.closed.Load() {
			s.mu.Unlock()
			return nil, false
		}
		s.waiters.Add(1)
		for s.version.Load() == v && !s.closed.Load() {
			s.cond.Wait()
		}
		s.waiters.Add(-1)
		s.mu.Unlock()
	}
}

// Close wakes all blocked consumers; queued batches may still be popped.
func (s *stealScheduler) Close() {
	s.closed.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Len returns the number of queued instances (not batches).
func (s *stealScheduler) Len() int { return int(s.queued.Load()) }
