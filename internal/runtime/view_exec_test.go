package runtime

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

// viewBenchNode builds a one-kernel node whose whole-fetch input generation
// is pre-stored and complete, so exec can be driven directly through the
// zero-copy view path.
func viewBenchNode(t testing.TB, fetchCopy bool) (*Node, *ageTracker, *instState) {
	t.Helper()
	pb := core.NewBuilder("viewbench")
	pb.Field("in", field.Float64, 1, true)
	pb.Kernel("consume").
		Local("v", field.Float64, 1).
		FetchAll("v", "in", core.AgeAt(0)).
		Body(func(c *core.Ctx) error {
			_ = c.Array("v")
			return nil
		})
	prog, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{Workers: 1, FetchCopy: fetchCopy})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := n.fields["in"].f.StoreAll(0, field.ArrayFromFloat64(vals)); err != nil {
		t.Fatal(err)
	}
	n.fields["in"].f.MarkComplete(0)
	ks := n.kernels["consume"]
	return n, &ageTracker{ks: ks, age: 0}, &instState{}
}

// TestViewDispatchAllocFree pins the whole-generation view-fetch dispatch at
// zero allocations per op: aliasing the slab replaces the per-instance copy
// entirely.
func TestViewDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n, tr, is := viewBenchNode(t, false)
	if !n.kernels["consume"].fetchPlans[0].viewable {
		t.Fatal("whole fetch not planned as viewable")
	}
	w := newWorkerState(n, 0)
	exec := sliceOfOne(n, tr, is, w)
	exec() // warm the frame pool
	allocs := testing.AllocsPerRun(200, func() {
		for j := range w.bufs {
			w.bufs[j] = w.bufs[j][:0]
		}
		exec()
	})
	if allocs != 0 {
		t.Errorf("view-fetch dispatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFetchCopyDisablesViews: the A/B reference option must plan every fetch
// as non-viewable.
func TestFetchCopyDisablesViews(t *testing.T) {
	n, _, _ := viewBenchNode(t, true)
	if n.kernels["consume"].fetchPlans[0].viewable {
		t.Fatal("FetchCopy left the fetch viewable")
	}
}

// TestFetchCopyViewEquivalence runs the aging mul/sum cycle with the copying
// reference path and with zero-copy views, and requires every generation of
// both fields bit-identical — the serial-vs-view analogue of the
// sharded-analyzer equivalence stress (run under -race in CI).
func TestFetchCopyViewEquivalence(t *testing.T) {
	const maxAge = 40
	run := func(fetchCopy bool) *Node {
		n, err := NewNode(mulSum(t), Options{
			Workers: 4, MaxAge: maxAge, Output: io.Discard, FetchCopy: fetchCopy,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Stalled) != 0 {
			t.Fatalf("fetchCopy=%v stalled: %v", fetchCopy, rep.Stalled)
		}
		return n
	}
	ref := run(true)
	view := run(false)
	for _, f := range []string{"m_data", "p_data"} {
		for age := 0; age <= maxAge; age++ {
			want, err := ref.Snapshot(f, age)
			if err != nil {
				t.Fatal(err)
			}
			got, err := view.Snapshot(f, age)
			if err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Fatalf("%s(%d) diverged:\ncopy: %s\nview: %s", f, age, want, got)
			}
		}
	}
}
