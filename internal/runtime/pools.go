package runtime

import "sync"

// Pools backing the allocation-free dispatch path. Both are
// process-global (not per-node): the pooled objects carry no node identity,
// and sharing them lets concurrent nodes (tests, the distributed layer)
// amortize each other's warm-up.

// eventsPool recycles the event batches workers flush to the analyzer. A
// batch travels as a *[]event, from checkout through the event channel back
// to the pool, so neither a checkout nor a return boxes a slice header.
var eventsPool = sync.Pool{
	New: func() any {
		s := make([]event, 0, eventFlushThreshold)
		return &s
	},
}

// getEventBuf returns an empty event buffer with batching capacity.
func getEventBuf() *[]event {
	return eventsPool.Get().(*[]event)
}

// putEventBuf clears a processed batch (events hold tracker and field-state
// pointers) and returns it to the pool.
func putEventBuf(evs *[]event) {
	clear(*evs)
	*evs = (*evs)[:0]
	eventsPool.Put(evs)
}

// batchPool recycles slice headers between the analyzer's slicer (getBatch)
// and its done handling (releaseBatch). A batch owns no storage — its run is
// held by value — so carving and releasing slices allocates nothing once the
// pool is warm.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

func getBatch() *batch { return batchPool.Get().(*batch) }

// releaseBatch returns a finished slice for reuse, dropping its references so
// a pooled batch pins no tracker.
func releaseBatch(b *batch) {
	*b = batch{}
	batchPool.Put(b)
}
