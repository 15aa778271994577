//go:build !race

package dist

import (
	"testing"

	"repro/internal/field"
	"repro/internal/runtime"
)

const raceEnabled = false

// TestStoreBatcherAddAllocs: adding a row notice to the batcher allocates
// nothing, amortized — the frame copies the borrowed row into its pooled
// buffer, and only each emitted frame's envelope costs an allocation.
func TestStoreBatcherAddAllocs(t *testing.T) {
	frames := 0
	b := newStoreBatcher(func(_ *Msg, f *runtime.StoreFrame) {
		frames++
		runtime.PutStoreFrame(f)
	}, nil, "test", nil)
	row := field.NewArray(field.Uint8, 64)
	sel := []field.SlabDim{{Fixed: true}, {}}
	sn := runtime.StoreNotice{Field: "yInput", Sel: sel, Value: field.ArrayVal(row)}
	next := 0
	avg := testing.AllocsPerRun(4*frameFlushEntries, func() {
		sel[0].Index = next % frameFlushEntries
		sn.Age = next / frameFlushEntries
		next++
		if err := b.add(sn); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("storeBatcher.add of a row: %.1f allocs/op, want 0", avg)
	}
	if frames < 4 {
		t.Errorf("%d frames emitted over %d rows, want at least 4", frames, 4*frameFlushEntries)
	}
}
