package runtime

import (
	"fmt"
	"sort"

	"repro/internal/field"
)

// Generation replay: after a worker failure, the master re-sends a rebuilt
// worker the stores it would have received from the start of the run. The
// master's shadow node holds every forwarded generation, so replay is a pure
// re-encode of shadow state into the existing StoreFrame wire format —
// idempotent by construction, because write-once fields make a replayed store
// either the first write of its position (applied) or a duplicate (merged
// away under MergeStores).

// FieldAges returns the live ages of one field in ascending order. It is the
// replay iteration order: generations replay oldest-first so growth patterns
// on the receiver match the original run.
func (n *Node) FieldAges(fieldName string) ([]int, error) {
	fs, ok := n.fields[fieldName]
	if !ok {
		return nil, fmt.Errorf("p2g: unknown field %q", fieldName)
	}
	ages := fs.f.Ages()
	sort.Ints(ages)
	return ages, nil
}

// EncodeGenerationFrame re-encodes one field generation of this node into a
// StoreFrame for replay to a rebuilt worker. A fully-written generation
// becomes a single slab entry that fixes no dimension; a partially-written
// one is walked element-wise so unwritten positions stay unwritten on the
// receiver (a whole-field store would mark them written with zero values, and
// a consumer probing At would then see a different world than the original
// run). A generation with no writes returns (nil, nil) — there is nothing to
// replay.
//
// The returned frame comes from the frame pool; the caller owns it and should
// PutStoreFrame it after sending.
func (n *Node) EncodeGenerationFrame(fieldName string, age int) (*StoreFrame, error) {
	fs, ok := n.fields[fieldName]
	if !ok {
		return nil, fmt.Errorf("p2g: unknown field %q", fieldName)
	}
	f := fs.f
	writes := f.Writes(age)
	if writes == 0 {
		return nil, nil
	}
	rank := f.Rank()
	extents := make([]int, rank)
	total := 1
	for d := 0; d < rank; d++ {
		extents[d] = f.Extent(age, d)
		total *= extents[d]
	}
	fr := GetStoreFrame()
	fr.Reset(fieldName, age)
	if writes == total {
		arr := f.Snapshot(age)
		if err := fr.Add(StoreNotice{Field: fieldName, Age: age, Sel: make([]field.SlabDim, rank), Value: field.ArrayVal(arr)}); err != nil {
			PutStoreFrame(fr)
			return nil, err
		}
		return fr, nil
	}
	// Partially-written generation: element-wise walk over the extent box,
	// emitting only positions that were actually written.
	idx := make([]int, rank)
	for flat := 0; flat < total; flat++ {
		if v, ok := f.At(age, idx...); ok {
			if err := fr.Add(StoreNotice{Field: fieldName, Age: age, Elem: idx, Value: v}); err != nil {
				PutStoreFrame(fr)
				return nil, err
			}
		}
		for d := rank - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < extents[d] {
				break
			}
			idx[d] = 0
		}
	}
	return fr, nil
}
