package runtime

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// SchedulerKind selects the ready-queue implementation of the low-level
// scheduler (Options.Scheduler).
type SchedulerKind uint8

const (
	// SchedStealing is the default: per-worker age-aware deques with work
	// stealing. The analyzer spreads batches across the deques round-robin;
	// each worker pops its own oldest-age batch locally and steals the
	// globally oldest batch from a peer when its deque is dry or holds only
	// work younger than the age epoch.
	SchedStealing SchedulerKind = iota
	// SchedGlobal is the reference implementation: the single mutex+condvar
	// priority queue all workers contend on. Kept selectable for A/B
	// benchmarking against the stealing scheduler.
	SchedGlobal
)

// scheduler is the dispatch half of the low-level scheduler: the analyzer
// pushes ready batches, workers pop them oldest-age-first. Pop blocks;
// TryPop does not (workers use it to flush buffered analyzer events before
// they would block).
type scheduler interface {
	// PushBulk enqueues many batches with amortized synchronization: one
	// epoch update and one waiter wakeup for the whole group. The analyzers
	// hand over every group of carved slices this way.
	PushBulk(bs []*batch)
	// TryPop returns a batch without blocking, or false when no work is
	// currently available (which does not imply the queue is closed).
	TryPop(worker int) (*batch, bool)
	// Pop blocks until a batch is available; false once the queue is closed
	// and drained.
	Pop(worker int) (*batch, bool)
	Close()
	// Len returns the number of queued instances (not batches).
	Len() int
}

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
	d.queued += len(b.insts)
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
		d.queued -= len(b.insts)
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

// stealScheduler implements the work-stealing ready queue: one deque per
// worker plus an age epoch that preserves the paper's oldest-age-first
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
		insts += int64(len(b.insts))
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

func (s *stealScheduler) TryPop(worker int) (*batch, bool) {
	self := s.deques[worker]
	for {
		e := s.epoch.Load()
		// Fast path: local work at (or below) the epoch is globally oldest
		// — no peer can hold anything older than the epoch lower bound.
		if m := self.min.Load(); m != emptyAge && m <= e {
			if b := self.popOldest(); b != nil {
				s.queued.Add(-int64(len(b.insts)))
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
			s.queued.Add(-int64(len(b.insts)))
			if vi != worker {
				s.steals.Add(1)
			}
			return b, true
		}
		// The victim was drained under us; rescan.
	}
}

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

func (s *stealScheduler) Close() {
	s.closed.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *stealScheduler) Len() int { return int(s.queued.Load()) }
