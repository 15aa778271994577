package runtime

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

func mkBatch(age int) *batch {
	return &batch{tracker: &ageTracker{age: age}, run: cellRun{hi: 1}}
}

// TestStealOldestFirst is the ordering contract of the stealing scheduler: a
// worker whose own deque holds only age N+1 work must steal a peer's age N
// batch (below the epoch) instead of dispatching its younger local work.
func TestStealOldestFirst(t *testing.T) {
	reg := obs.NewRegistry()
	steals := reg.Counter(obs.MStealsTotal)
	s := newStealScheduler(2, steals, nil)

	// Round-robin: the first push lands in deque 1, the second in deque 0.
	s.PushBulk([]*batch{mkBatch(1)}) // deque 1 <- age 1
	s.PushBulk([]*batch{mkBatch(0)}) // deque 0 <- age 0
	if s.deques[1].min.Load() != 1 || s.deques[0].min.Load() != 0 {
		t.Fatalf("unexpected deque placement: min0=%d min1=%d",
			s.deques[0].min.Load(), s.deques[1].min.Load())
	}

	// Worker 1 holds age 1 locally but the epoch is 0: it must steal the
	// age-0 batch from worker 0's deque first.
	b, ok := s.TryPop(1)
	if !ok || b.tracker.age != 0 {
		t.Fatalf("first pop got age %v (ok=%v), want steal of age 0", b, ok)
	}
	if got := steals.Load(); got != 1 {
		t.Fatalf("steals = %d, want 1", got)
	}
	b, ok = s.TryPop(1)
	if !ok || b.tracker.age != 1 {
		t.Fatalf("second pop got %v (ok=%v), want local age 1", b, ok)
	}
	// Popping own (now oldest) work is not a steal.
	if got := steals.Load(); got != 1 {
		t.Fatalf("steals after local pop = %d, want still 1", got)
	}
	if _, ok := s.TryPop(1); ok {
		t.Fatal("scheduler should be empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

// TestStealSchedulerEpochNeverSkipsAge pushes ages in descending order onto
// alternating deques and checks a single consumer drains them oldest-first —
// the epoch must chase every older push.
func TestStealSchedulerEpochNeverSkipsAge(t *testing.T) {
	s := newStealScheduler(4, nil, nil)
	for age := 9; age >= 0; age-- {
		s.PushBulk([]*batch{mkBatch(age)})
	}
	for want := 0; want < 10; want++ {
		b, ok := s.TryPop(2)
		if !ok {
			t.Fatalf("ran dry at age %d", want)
		}
		if b.tracker.age != want {
			t.Fatalf("popped age %d, want %d", b.tracker.age, want)
		}
	}
}

// TestStealSchedulerBlockingPop checks Pop blocks until a push arrives and
// returns false after Close drains.
func TestStealSchedulerBlockingPop(t *testing.T) {
	s := newStealScheduler(2, nil, nil)
	got := make(chan int, 1)
	go func() {
		b, ok := s.Pop(0)
		if !ok {
			got <- -1
			return
		}
		got <- b.tracker.age
	}()
	s.PushBulk([]*batch{mkBatch(7)})
	if age := <-got; age != 7 {
		t.Fatalf("blocked pop got %d, want 7", age)
	}
	s.Close()
	if _, ok := s.Pop(1); ok {
		t.Fatal("Pop after Close+drain should report closed")
	}
	s.PushBulk([]*batch{mkBatch(1)}) // push after close is a no-op
	if s.Len() != 0 {
		t.Fatal("push after close should be ignored")
	}
}

// TestStealSchedulerConcurrent hammers the scheduler from concurrent
// producers and consumers (run under -race) and checks every batch is
// dispatched exactly once.
func TestStealSchedulerConcurrent(t *testing.T) {
	const workers, perAge, ages = 4, 50, 8
	s := newStealScheduler(workers, nil, nil)
	var wg sync.WaitGroup
	seen := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok := s.Pop(w)
				if !ok {
					return
				}
				seen[w] += b.len()
			}
		}()
	}
	for a := 0; a < ages; a++ {
		for i := 0; i < perAge; i++ {
			s.PushBulk([]*batch{mkBatch(a)})
		}
	}
	s.Close() // workers drain the remaining queued batches before exiting
	wg.Wait()
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != perAge*ages {
		t.Fatalf("dispatched %d batches, want %d", total, perAge*ages)
	}
}

// TestPushBulkConcurrentRelease is the regression test for a data race in
// PushBulk (run under -race): it read a slice's length after pushing it,
// racing the consumer that had already popped and recycled the slice, and
// under-counted the queue depth. Consumers here pop and recycle as fast as
// the producer pushes; afterwards the depth must be back at exactly zero.
func TestPushBulkConcurrentRelease(t *testing.T) {
	const workers, rounds, group = 2, 300, 32
	s := newStealScheduler(workers, nil, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok := s.Pop(w)
				if !ok {
					return
				}
				releaseBatch(b)
			}
		}()
	}
	tr := &ageTracker{}
	bs := make([]*batch, group)
	for r := 0; r < rounds; r++ {
		for i := range bs {
			b := getBatch()
			b.tracker, b.run = tr, cellRun{hi: 3}
			bs[i] = b
		}
		s.PushBulk(bs)
	}
	s.Close()
	wg.Wait()
	if got := s.Len(); got != 0 {
		t.Fatalf("queue depth after draining = %d, want 0", got)
	}
}

// TestPushBulkEpochOrdering pins the ordering contract of bulk pushes:
// batches pushed through PushBulk in arbitrary age order are popped
// oldest-age-first by the stealing scheduler's epoch, regardless of which
// deque round-robin placement put them in.
func TestPushBulkEpochOrdering(t *testing.T) {
	s := newStealScheduler(4, nil, nil)
	rng := rand.New(rand.NewSource(11))
	var bs []*batch
	for i := 0; i < 64; i++ {
		b := getBatch()
		b.tracker = &ageTracker{age: rng.Intn(10)}
		b.run = cellRun{hi: 1}
		bs = append(bs, b)
	}
	// Several bulk pushes, as the analyzer makes them from successive events.
	for i := 0; i < len(bs); i += 16 {
		s.PushBulk(bs[i : i+16])
	}
	last := -1
	for i := 0; i < len(bs); i++ {
		b, ok := s.TryPop(0)
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if b.tracker.age < last {
			t.Fatalf("pop %d: age %d after age %d — epoch ordering violated", i, b.tracker.age, last)
		}
		last = b.tracker.age
	}
	if _, ok := s.TryPop(0); ok {
		t.Fatal("queue not empty after draining")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after draining", s.Len())
	}
}
