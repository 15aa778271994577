package runtime

import (
	"math/rand"
	"sync"
	"testing"
)

func mkBatch(age int) *batch {
	return &batch{tracker: &ageTracker{age: age}, run: cellRun{hi: 1}}
}

// TestSliceQueueDescendingAges pushes ages in descending order, one slice per
// push, and checks a consumer drains them oldest-first.
func TestSliceQueueDescendingAges(t *testing.T) {
	q := newSliceQueue()
	for age := 9; age >= 0; age-- {
		q.PushBulk([]*batch{mkBatch(age)})
	}
	for want := 0; want < 10; want++ {
		b, ok := q.TryPop()
		if !ok {
			t.Fatalf("ran dry at age %d", want)
		}
		if b.tracker.age != want {
			t.Fatalf("popped age %d, want %d", b.tracker.age, want)
		}
	}
}

// TestSliceQueueBlockingPop checks Pop blocks until a push arrives, and that
// Close lets queued slices still be popped, after which Pop reports closed
// and a push is ignored.
func TestSliceQueueBlockingPop(t *testing.T) {
	q := newSliceQueue()
	got := make(chan int, 1)
	go func() {
		b, ok := q.Pop()
		if !ok {
			got <- -1
			return
		}
		got <- b.tracker.age
	}()
	q.PushBulk([]*batch{mkBatch(7)})
	if age := <-got; age != 7 {
		t.Fatalf("blocked pop got %d, want 7", age)
	}
	q.PushBulk([]*batch{mkBatch(3)})
	q.Close()
	if b, ok := q.Pop(); !ok || b.tracker.age != 3 {
		t.Fatalf("Pop after Close got %v (ok=%v), want the queued age 3", b, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after Close+drain should report closed")
	}
	q.PushBulk([]*batch{mkBatch(1)}) // push after close is a no-op
	if q.Len() != 0 {
		t.Fatal("push after close should be ignored")
	}
}

// TestSliceQueueConcurrent hammers the queue from a producer and concurrent
// consumers (run under -race) and checks every slice is dispatched exactly
// once.
func TestSliceQueueConcurrent(t *testing.T) {
	const workers, perAge, ages = 4, 50, 8
	q := newSliceQueue()
	var wg sync.WaitGroup
	seen := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok := q.Pop()
				if !ok {
					return
				}
				seen[w] += b.len()
			}
		}()
	}
	for a := 0; a < ages; a++ {
		for i := 0; i < perAge; i++ {
			q.PushBulk([]*batch{mkBatch(a)})
		}
	}
	q.Close() // workers drain the remaining queued slices before exiting
	wg.Wait()
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != perAge*ages {
		t.Fatalf("dispatched %d slices, want %d", total, perAge*ages)
	}
}

// TestPushBulkConcurrentRelease is the regression test for a data race in
// PushBulk (run under -race): it read a slice's length after pushing it,
// racing the consumer that had already popped and recycled the slice, and
// under-counted the queue depth. Consumers here pop and recycle as fast as
// the producer pushes; afterwards the depth must be back at exactly zero.
func TestPushBulkConcurrentRelease(t *testing.T) {
	const workers, rounds, group = 2, 300, 32
	q := newSliceQueue()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok := q.Pop()
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
		q.PushBulk(bs)
	}
	q.Close()
	wg.Wait()
	if got := q.Len(); got != 0 {
		t.Fatalf("queue depth after draining = %d, want 0", got)
	}
}

// TestPushBulkAgeOrdering pins the dispatch order of DESIGN.md §4.6: slices
// pushed through PushBulk in arbitrary age order are popped oldest age
// first, and within an age in the order they were pushed.
func TestPushBulkAgeOrdering(t *testing.T) {
	q := newSliceQueue()
	rng := rand.New(rand.NewSource(11))
	var bs []*batch
	pushed := make(map[*batch]int)
	for i := 0; i < 64; i++ {
		b := getBatch()
		b.tracker = &ageTracker{age: rng.Intn(10)}
		b.run = cellRun{hi: 1}
		bs = append(bs, b)
		pushed[b] = i
	}
	// Several bulk pushes, as the analyzer makes them from successive events.
	for i := 0; i < len(bs); i += 16 {
		q.PushBulk(bs[i : i+16])
	}
	lastAge, lastPush := -1, -1
	for i := 0; i < len(bs); i++ {
		b, ok := q.TryPop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		age, at := b.tracker.age, pushed[b]
		if age < lastAge {
			t.Fatalf("pop %d: age %d after age %d — oldest-first violated", i, age, lastAge)
		}
		if age == lastAge && at < lastPush {
			t.Fatalf("pop %d: age %d push #%d after push #%d — FIFO within an age violated", i, age, at, lastPush)
		}
		lastAge, lastPush = age, at
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("queue not empty after draining")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestWorkerFlushesEachSlice: a worker hands each slice's events to the
// analyzer as the slice ends. A slice can run for milliseconds, and a done
// event held in the buffer across the worker's next slice would hold back
// the kernels it readies — an older age's, ahead of the younger slice the
// worker moved on to — by that long. Three queued slices reach the analyzer
// as three batches, each ending in its slice's done event, not as one batch
// flushed when the queue runs dry.
func TestWorkerFlushesEachSlice(t *testing.T) {
	n, tr, cell := benchNode(t, false)
	const slices = 3
	bs := make([]*batch, slices)
	for i := range bs {
		bs[i] = &batch{tracker: tr, run: cell}
	}
	n.sched.PushBulk(bs)
	n.sched.Close()
	n.wg.Add(1)
	n.worker(0)
	if got := len(n.an.ch); got != slices {
		t.Fatalf("%d event batches for %d slices, want one each", got, slices)
	}
	for i := 0; i < slices; i++ {
		evs := <-n.an.ch
		if k := len(*evs); k == 0 || !(*evs)[k-1].isDone {
			t.Errorf("batch %d: %d events, want its slice's events ending in the done event", i, k)
		}
		putEventBuf(evs)
	}
}
