//go:build !race

package lang

import "testing"

// TestKMeansSliceBodyAllocFree: a warm slice body allocates nothing — the
// benchmark template's assign at 250 lanes and refine at 12, the slices the
// runtime cuts for them on two workers. The columns, lane lists and scalar
// frame all come back from the pools they were returned to.
func TestKMeansSliceBodyAllocFree(t *testing.T) {
	for _, c := range []struct {
		kernel string
		lanes  int
	}{{"assign", 250}, {"refine", 12}} {
		kd, ctx := kmeansSlice(t, c.kernel, c.lanes)
		run := func() {
			if !kd.SliceBody(ctx, c.lanes) {
				t.Fatalf("%s: the slice body declined", c.kernel)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s at %d lanes: a warm slice body allocates %.1f objects/op, want 0", c.kernel, c.lanes, allocs)
		}
	}
}
