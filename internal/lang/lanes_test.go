package lang

// The third leg of the differential tests: every lane-eligible kernel also
// runs through its slice body, at several slice lengths, on inputs made up
// per lane, and must leave in every row exactly what the scalar VM and the
// oracle leave in a context of their own — or decline, changing nothing,
// exactly when some lane fails on the scalar VM.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// slabPassThrough has a kernel that never touches its array local: a slab
// goes in and the same local is stored. The rows of a context share the one
// Array of a local, so in lockstep every instance would store the slab of
// the last one fetched; the kernel must not be lane-eligible.
const slabPassThrough = `int32[][] frames;
int32[][] out;
init:
  local int32[][] f;
  %{ for (int r = 0; r < 8; ++r) { for (int c = 0; c < 2; ++c) { put(f, r * 10 + c * 3, r, c); } } %}
  store frames(0) = f;
copy:
  index b;
  local int32[] blk;
  fetch blk = frames(0)[b][];
  %{ %}
  store out(0)[b][] = blk;
`

// laneCounts are the slice lengths checkLanes runs a kernel at.
var laneCounts = []int{1, 2, 3, 7, 64, 256}

// laneInputs makes up what the runtime would have fetched for lane l of n:
// the coordinates, and a value per fetched local. The coordinates are
// contiguous in every position, 2(p+1) + l, as within one share of a domain,
// or else wrap at 7, so that no column longer than 7 is. Whole fetches get
// the one array in shared; element fetches get a scalar that differs between
// lanes and is at times zero or negative, so divisions and square roots
// fault in some lanes only.
func laneInputs(kd *core.KernelDecl, shared []*field.Array, l int, contiguous bool) (coords []int, vals []field.Value) {
	coords = make([]int, len(kd.IndexVars))
	for p := range coords {
		coords[p] = l * (p + 1) % 7
		if contiguous {
			coords[p] = 2*(p+1) + l
		}
	}
	vals = make([]field.Value, len(kd.Locals))
	for _, fe := range kd.Fetches {
		li := kd.LocalIndex(fe.Local)
		if shared[li] != nil {
			vals[li] = field.ArrayVal(shared[li])
			continue
		}
		x := (l*5+li*3)%13 - 4
		if kind := kd.Locals[li].Kind; kind.Float() {
			vals[li] = field.Float64Val(float64(x) * 0.5).Convert(kind)
		} else {
			vals[li] = field.Int64Val(int64(x)).Convert(kind)
		}
	}
	return coords, vals
}

// laneArrays builds one small array per array local some fetch fills.
func laneArrays(kd *core.KernelDecl) []*field.Array {
	shared := make([]*field.Array, len(kd.Locals))
	for _, fe := range kd.Fetches {
		li := kd.LocalIndex(fe.Local)
		ld := kd.Locals[li]
		if ld.Rank == 0 {
			continue
		}
		extents := []int{6, 3, 2}[:ld.Rank]
		a := field.NewArray(ld.Kind, extents...)
		for off := 0; off < a.Len(); off++ {
			a.SetFlat(field.Int64Val(int64(off*7%11-3)).Convert(ld.Kind), off)
		}
		shared[li] = a
	}
	return shared
}

// rowState renders what the one instance of ctx holds after a body.
func rowState(kd *core.KernelDecl, ctx *core.Ctx) string {
	var b strings.Builder
	for _, l := range kd.Locals {
		fmt.Fprintf(&b, "local %s: bound=%v value=%v\n", l.Name, ctx.Bound(l.Name), ctx.Get(l.Name))
	}
	return b.String()
}

// laneState is rowState for lane l of ctx's columns; array locals are the
// context's one.
func laneState(kd *core.KernelDecl, ctx *core.Ctx, l int) string {
	var b strings.Builder
	for li, lo := range kd.Locals {
		bound, v := ctx.BoundAt(li), ctx.Get(lo.Name)
		if lo.Rank == 0 {
			bound, v = ctx.BoundCol(li)[l], ctx.LaneValue(li, l)
		}
		fmt.Fprintf(&b, "local %s: bound=%v value=%v\n", lo.Name, bound, v)
	}
	return b.String()
}

// scalarLane runs body on lane l in a context of its own and renders the
// outcome; failed says whether it ended in an error or a panic.
func scalarLane(kd *core.KernelDecl, shared []*field.Array, age, l int, contiguous bool) (state string, failed bool) {
	ctx := core.NewReusableCtx(kd, nil, nil)
	coords, vals := laneInputs(kd, shared, l, contiguous)
	ctx.Reset(age, coords)
	for li, v := range vals {
		if v.Kind() != field.Invalid {
			ctx.SetLocalValue(li, v)
		}
	}
	var b strings.Builder
	func() {
		defer func() {
			if r := recover(); r != nil {
				failed = true
				fmt.Fprintf(&b, "panic: %v\n", r)
			}
		}()
		err := kd.Body(ctx)
		failed = err != nil
		fmt.Fprintf(&b, "error: %v\n", err)
	}()
	return b.String() + rowState(kd, ctx), failed
}

// laneStats counts what checkLanes saw, so a test can tell that its programs
// reached the lockstep path at all, branches decided by index in it, and
// uniform values given a register of their own (renamed).
type laneStats struct{ kernels, eligible, byIndex, renamed, runs, completed int }

// checkLanes is the three-way comparison for every lane-eligible kernel of
// file (see the head of this file), with both kinds of coordinates
// laneInputs makes.
func checkLanes(t testing.TB, file *File, st *laneStats) {
	t.Helper()
	vmProg, bodies, err := compileFile("lanes", file)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	orProg, err := oracleProgram("lanes", file)
	if err != nil {
		t.Fatalf("oracle compile: %v", err)
	}
	for ki, kd := range vmProg.Kernels {
		st.kernels++
		if kd.SliceBody == nil {
			continue
		}
		st.eligible++
		if slices.ContainsFunc(bodies[ki].lane.byIndex, func(s int8) bool { return s >= 0 }) {
			st.byIndex++
		}
		if bodies[ki].lane.renamed > 0 {
			st.renamed++
		}
		age := 0
		if kd.AgeVar != "" {
			age = 2
		}
		shared := laneArrays(kd)
		for _, contiguous := range []bool{false, true} {
			for _, n := range laneCounts {
				want := make([]string, n)
				anyFailed := false
				for l := range want {
					var failed bool
					want[l], failed = scalarLane(kd, shared, age, l, contiguous)
					anyFailed = anyFailed || failed
					if or, _ := scalarLane(orProg.Kernels[ki], shared, age, l, contiguous); or != want[l] {
						t.Fatalf("kernel %s lane %d of %d (contiguous %v): the scalar VM and the oracle diverged\nvm:\n%s\noracle:\n%s", kd.Name, l, n, contiguous, want[l], or)
					}
				}
				ctx := core.NewReusableCtx(kd, nil, nil)
				ctx.Reset(age, nil)
				ctx.Lanes(n)
				for l := 0; l < n; l++ {
					coords, vals := laneInputs(kd, shared, l, contiguous)
					for p, x := range coords {
						ctx.CoordCol(p)[l] = int64(x)
					}
					for li, v := range vals {
						switch {
						case v.IsArray():
							ctx.SetLocalValue(li, v)
						case v.Kind() != field.Invalid:
							ctx.SetLaneValue(li, l, v)
						}
					}
				}
				before := make([]string, n)
				for l := range before {
					before[l] = laneState(kd, ctx, l)
				}
				ran := func() (ok bool) {
					defer func() {
						if recover() != nil {
							ok = false // the runtime treats a panic as declining, too
						}
					}()
					return kd.SliceBody(ctx, n)
				}()
				st.runs++
				if bodies[ki].lane.desynced.Load() {
					t.Fatalf("kernel %s, %d lanes (contiguous %v): lanes were parked where the plan has none", kd.Name, n, contiguous)
				}
				if ran {
					st.completed++
				}
				if ran == anyFailed {
					t.Fatalf("kernel %s, %d lanes (contiguous %v): slice body completed=%v although a lane failing on the scalar VM=%v", kd.Name, n, contiguous, ran, anyFailed)
				}
				for l := 0; l < n; l++ {
					got, exp := laneState(kd, ctx, l), before[l]
					if ran {
						got, exp = "error: <nil>\n"+got, want[l]
					}
					if got != exp {
						t.Fatalf("kernel %s lane %d of %d (contiguous %v, completed=%v): lane diverged\nslice body:\n%s\nwant:\n%s", kd.Name, l, n, contiguous, ran, got, exp)
					}
				}
			}
		}
	}
}

// TestKMeansTemplateLockstep pins the benchmark's K-means regime outside
// the benchmark: the template at N=2000, K=100 on two workers. The sizing
// rule gives every kernel the slices its tail limit allows — 250 of
// assign's 2 000 instances, 12 of refine's 100 — so every instance of
// both runs in lockstep and none declines; and the centroids are
// bit-identical to the same program run one instance per slice, which is
// the scalar VM.
func TestKMeansTemplateLockstep(t *testing.T) {
	src := everySource(t)[filepath.Join("..", "..", "bench", "kmeans.p2g.tmpl")]
	const ages = 3
	run := func(gran map[string]int) (*runtime.Report, []float64) {
		prog, err := Compile("kmeans", src)
		if err != nil {
			t.Fatal(err)
		}
		node, err := runtime.NewNode(prog, runtime.Options{Workers: 2, MaxAge: ages - 1, Output: io.Discard, Granularity: gran})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := node.Run()
		if err != nil {
			t.Fatal(err)
		}
		cents, err := node.Snapshot("centroids", ages)
		if err != nil {
			t.Fatal(err)
		}
		return rep, cents.Float64s()
	}
	rep, got := run(nil)
	for _, name := range []string{"assign", "refine"} {
		if k := rep.Kernel(name); k.Instances == 0 || k.Lockstep != k.Instances || k.Declined != 0 {
			t.Errorf("%s: %d of %d instances in lockstep (%d slices), %d declined; want all, none declined", name, k.Lockstep, k.Instances, k.Slices, k.Declined)
		}
	}
	scalar, want := run(map[string]int{"assign": 1, "refine": 1})
	if k := scalar.Kernel("assign"); k.Lockstep != 0 {
		t.Fatalf("assign ran %d instances in lockstep at one instance per slice", k.Lockstep)
	}
	if len(got) != len(want) || len(got) != 2*100 {
		t.Fatalf("%d centroid values, scalar VM %d, want 200", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("centroids(%d) value %d: %v in lockstep, %v on the scalar VM", ages, i, got[i], want[i])
		}
	}
}

// TestKMeansTemplateStoreEvents: refine element-fetches centroids(a), so the
// analyzer hears of every store to centroids(a+1), and refine makes two,
// [c][0] and [c][1]. They reach it as one box event per statement and slice:
// over 3 ages the analyzer's whole event count, done events included, stays
// below the 2×K per age that one event per element store sent for these two
// statements alone.
func TestKMeansTemplateStoreEvents(t *testing.T) {
	const ages, k = 3, 100
	prog, err := Compile("kmeans", everySource(t)[filepath.Join("..", "..", "bench", "kmeans.p2g.tmpl")])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runtime.Run(prog, runtime.Options{Workers: 2, MaxAge: ages - 1, Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if got, per := rep.ShardEvents[0], int64(2*k*ages); got >= per {
		t.Errorf("the analyzer handled %d events in %d ages, want fewer than the %d element events of refine's stores", got, ages, per)
	}
	if r := rep.Kernel("refine"); r.StoreOps != 2*r.Instances {
		t.Errorf("refine: %d store ops for %d instances, want two per instance", r.StoreOps, r.Instances)
	}
}

// TestLockstepFailureParity: when one instance of a slice fails — an error, or
// a panic from a get past the extent — the slice body declines and the slice
// reruns on the scalar VM, which the declined counter shows (slices of 7 are
// below the kernel's minimum and never tried). The run then ends with the
// error it ends with at one instance per slice; the instances that ran, which
// the tracer lists, are exactly those of earlier slices and those before the
// failing one in its own, and each of them kept its store; and the run comes
// back, because the done event covers the whole slice.
func TestLockstepFailureParity(t *testing.T) {
	const n = 70
	for name, tc := range map[string]struct {
		body string
		want func(x int) int // never 0
	}{
		"error": {"w = 100 / (x - 5) + v + get(a, 0);", func(x int) int { return 100/(x-5) + 3*x }},
		"panic": {"w = v + get(a, x) + 1;", func(x int) int { return 4*x + 1 }}, // a has n-1 elements
	} {
		src := fmt.Sprintf(`int32[] in;
int32[] tab;
int32[] out;
init:
  local int32[] i;
  local int32[] t;
  %%{
    for (int q = 0; q < %d; ++q) { put(i, q * 3, q); }
    for (int q = 0; q < %d; ++q) { put(t, q, q); }
  %%}
  store in(0) = i;
  store tab(0) = t;
k:
  index x;
  local int32 v;
  local int32[] a;
  local int32 w;
  fetch v = in(0)[x];
  fetch a = tab(0);
  %%{ %s %%}
  store out(0)[x] = w;
`, n, n-1, tc.body)
		// run returns the error and, per index, whether the instance ran and
		// whether its store is in place.
		run := func(gran int) (msg string, ran, stored [n]bool) {
			prog, err := Compile(name, src)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Kernel("k").SliceBody == nil {
				t.Fatal("kernel k is not lane-eligible")
			}
			tracer := obs.NewTracer(1 << 12)
			node, err := runtime.NewNode(prog, runtime.Options{Workers: 1, Tracer: tracer, Granularity: map[string]int{"k": gran}})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			var rep *runtime.Report
			go func() {
				var err error
				rep, err = node.Run()
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("%s, slices of %d: the run did not fail", name, gran)
				}
				msg = err.Error()
			case <-time.After(30 * time.Second):
				t.Fatalf("%s, slices of %d: the run did not come back", name, gran)
			}
			// The failing instance's slice was tried in lockstep, and counted
			// as declined, exactly when it was long enough for that. The
			// slicer cuts the domain into slices of gran and a remainder of
			// n mod gran, and instances become ready in no fixed order, so
			// the failing one may sit in the remainder: at gran 64 that is 6
			// instances, too few even though 64 are enough.
			sliceMin := prog.Kernel("k").SliceMin
			lens := []int{min(gran, n)}
			if gran < n && n%gran != 0 {
				lens = append(lens, n%gran)
			}
			// Declined is the failing slice's length if that was long enough
			// for lockstep, and 0 if not.
			var want []int64
			for _, l := range lens {
				if l < sliceMin {
					l = 0
				}
				want = append(want, int64(l))
			}
			if k := rep.Kernel("k"); !slices.Contains(want, k.Declined) {
				t.Errorf("%s, slices of %d: %d instances declined, want one of %v (lockstep from %d)", name, gran, k.Declined, want, sliceMin)
			}
			for _, sp := range tracer.Spans() {
				if sp.Name == "k" && sp.Cat == "kernel" {
					ran[sp.Index[0]] = true
				}
			}
			out, err := node.Snapshot("out", 0)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < out.Extent(0); x++ {
				if v := out.At(x).Int64(); v != 0 {
					if v != int64(tc.want(x)) {
						t.Errorf("%s, slices of %d: out(0)[%d] = %d, want %d", name, gran, x, v, tc.want(x))
					}
					stored[x] = true
				}
			}
			return msg, ran, stored
		}
		want, _, _ := run(1)
		if !strings.HasPrefix(want, "p2g: kernel k(age=0): ") {
			t.Fatalf("%s: unexpected reference error %q", name, want)
		}
		for _, gran := range []int{7, 64, 128} {
			got, ran, stored := run(gran)
			if got != want {
				t.Errorf("%s, slices of %d: error %q, want %q", name, gran, got, want)
			}
			failed := 0
			for x := range ran {
				if ran[x] != stored[x] {
					failed++
					if !ran[x] {
						t.Errorf("%s, slices of %d: out(0)[%d] is stored but the instance never ran", name, gran, x)
					}
				}
			}
			if failed != 1 {
				t.Errorf("%s, slices of %d: %d instances ran without their store in place, want the failing one only", name, gran, failed)
			}
		}
	}
}

// kmeansSlice builds what the runtime hands the slice body of the benchmark
// template's assign or refine (N=2000, K=100) at age 0: a context whose n rows
// are the instances of one slice, over a dataset, centroids and membership
// drawn from a fixed LCG, so that about as many lanes diverge as in a run.
func kmeansSlice(t testing.TB, kernel string, n int) (*core.KernelDecl, *core.Ctx) {
	t.Helper()
	const points, k = 2000, 100
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "kmeans.p2g.tmpl"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile("kmeans", strings.NewReplacer("@N@", "2000", "@K@", "100", "@SEED@", "1").Replace(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	kd := prog.Kernel(kernel)
	if kd.SliceBody == nil {
		t.Fatalf("%s has no slice body", kernel)
	}
	seed := uint64(1)
	next := func(m int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % m
	}
	pts := field.NewArray(field.Float64, points, 2)
	for i, v := 0, pts.Float64s(); i < len(v); i++ {
		v[i] = float64(next(100))
	}
	cents := field.NewArray(field.Float64, k, 2)
	for i, v := 0, cents.Float64s(); i < len(v); i++ {
		v[i] = float64(next(100))
	}
	ms := field.NewArray(field.Int32, points)
	for i := 0; i < points; i++ {
		ms.SetFlat(field.Int32Val(int32(next(k))), i)
	}
	ctx := core.NewReusableCtx(kd, nil, nil)
	ctx.Reset(0, nil)
	ctx.Lanes(n)
	x, y := "px", "py"
	if kernel == "assign" {
		ctx.SetLocalValue(kd.LocalIndex("cents"), field.ArrayVal(cents))
	} else {
		x, y = "cx", "cy"
		ctx.SetLocalValue(kd.LocalIndex("pts"), field.ArrayVal(pts))
		ctx.SetLocalValue(kd.LocalIndex("ms"), field.ArrayVal(ms))
	}
	src := pts
	if kernel != "assign" {
		src = cents
	}
	for l := 0; l < n; l++ {
		ctx.CoordCol(0)[l] = int64(l)
		ctx.SetLaneValue(kd.LocalIndex(x), l, field.Float64Val(src.Float64s()[2*l]))
		ctx.SetLaneValue(kd.LocalIndex(y), l, field.Float64Val(src.Float64s()[2*l+1]))
	}
	return kd, ctx
}

// BenchmarkKMeansSliceBody times one lockstep run of the template's assign at
// 250 lanes and refine at 12, the slices the runtime cuts on two workers.
func BenchmarkKMeansSliceBody(b *testing.B) {
	for _, c := range []struct {
		kernel string
		lanes  int
	}{{"assign", 250}, {"refine", 12}} {
		b.Run(c.kernel, func(b *testing.B) {
			kd, ctx := kmeansSlice(b, c.kernel, c.lanes)
			for i := 0; i < b.N; i++ {
				if !kd.SliceBody(ctx, c.lanes) {
					b.Fatal("the slice body declined")
				}
			}
		})
	}
}

// frameState renders a laneFrame's control state: "all", or the running
// lanes, then each group by pc, the implicit one as "implicit", and the lowest
// parked pc.
func frameState(lf *laneFrame) string {
	if lf.all {
		if lf.act != nil || len(lf.groups) != 0 || lf.imp != noPark || lf.nextPark != noPark {
			return fmt.Sprintf("all, yet act=%v groups=%v imp=%d next=%d", lf.act, lf.groups, lf.imp, lf.nextPark)
		}
		return "all"
	}
	sorted := func(l []int32) []int32 {
		l = slices.Clone(l)
		slices.Sort(l)
		return l
	}
	var pcs []int
	parked := map[int]string{}
	for _, g := range lf.groups {
		pcs = append(pcs, g.pc)
		parked[g.pc] = fmt.Sprint(sorted(g.lanes))
	}
	if lf.imp != noPark {
		if _, ok := parked[lf.imp]; !ok {
			pcs = append(pcs, lf.imp)
		}
		parked[lf.imp] += "implicit"
	}
	slices.Sort(pcs)
	var b strings.Builder
	fmt.Fprintf(&b, "run %v", sorted(lf.act))
	for _, pc := range pcs {
		fmt.Fprintf(&b, " | %d:%s", pc, parked[pc])
	}
	fmt.Fprintf(&b, " | next %d", lf.nextPark)
	return b.String()
}

// TestLaneFrameImplicitGroup drives park, diverge and reconverge through the
// transitions a branch makes, on 8 lanes. When all lanes ran, the lanes that
// did not take the lower pc are the implicit group, listed nowhere; it
// rejoins by setting all again, and is listed as a complement only when
// other lanes are parked in groups at that moment.
func TestLaneFrameImplicitGroup(t *testing.T) {
	type step struct {
		op        string // "diverge", "park" or "reconverge"
		pc        int
		run, rest []int32 // the lanes bound for the lower pc and, unless all ran, the others
		want      string  // frameState after the step
		wantPC    int     // what reconverge returns
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"minority rejoins at the join", []step{
			{op: "diverge", pc: 10, run: []int32{1, 5, 6}, want: "run [1 5 6] | 10:implicit | next 10"},
			{op: "reconverge", pc: 10, want: "all", wantPC: 10},
		}},
		{"minority lane parks past the join", []step{
			{op: "diverge", pc: 10, run: []int32{1, 5, 6}, want: "run [1 5 6] | 10:implicit | next 10"},
			// Lane 5 breaks out of a loop past the join: the minority splits,
			// and the lanes not bound for the lower pc are a listed group.
			{op: "diverge", pc: 14, run: []int32{1, 6}, rest: []int32{5}, want: "run [1 6] | 10:implicit | 14:[5] | next 10"},
			{op: "reconverge", pc: 10, want: "run [0 1 2 3 4 6 7] | 14:[5] | next 14", wantPC: 10},
			{op: "reconverge", pc: 14, want: "all", wantPC: 14},
		}},
		{"the running lanes pass the join", []step{
			{op: "diverge", pc: 10, run: []int32{2, 3, 4}, want: "run [2 3 4] | 10:implicit | next 10"},
			{op: "reconverge", pc: 12, want: "run [0 1 5 6 7] | 12:[2 3 4] | next 12", wantPC: 10},
			{op: "reconverge", pc: 12, want: "all", wantPC: 12},
		}},
		{"split inside the minority", []step{
			{op: "diverge", pc: 10, run: []int32{1, 3, 5, 7}, want: "run [1 3 5 7] | 10:implicit | next 10"},
			{op: "diverge", pc: 8, run: []int32{3}, rest: []int32{1, 5, 7}, want: "run [3] | 8:[1 5 7] | 10:implicit | next 8"},
			{op: "reconverge", pc: 8, want: "run [1 3 5 7] | 10:implicit | next 10", wantPC: 8},
			{op: "reconverge", pc: 10, want: "all", wantPC: 10},
		}},
		{"majority bound for the lower pc", []step{
			{op: "diverge", pc: 12, run: []int32{0, 1, 2, 3, 4, 6}, want: "run [0 1 2 3 4 6] | 12:implicit | next 12"},
			{op: "diverge", pc: 14, run: []int32{0, 1, 2, 4, 6}, rest: []int32{3}, want: "run [0 1 2 4 6] | 12:implicit | 14:[3] | next 12"},
			{op: "reconverge", pc: 12, want: "run [0 1 2 4 5 6 7] | 14:[3] | next 14", wantPC: 12},
			{op: "reconverge", pc: 14, want: "all", wantPC: 14},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lf := &laneFrame{}
			lf.size(&laneProg{}, 8)
			lf.all, lf.imp, lf.nextPark = true, noPark, noPark
			list := func(l []int32) []int32 {
				if l == nil {
					return nil
				}
				return append(lf.list(), l...)
			}
			for i, s := range tc.steps {
				switch s.op {
				case "diverge":
					lf.diverge(list(s.run), list(s.rest), s.pc)
				case "park":
					lf.park(s.pc, list(s.run))
				case "reconverge":
					if pc := lf.reconverge(s.pc); pc != s.wantPC {
						t.Errorf("step %d: reconverge(%d) returned %d, want %d", i, s.pc, pc, s.wantPC)
					}
				}
				if got := frameState(lf); got != s.want {
					t.Fatalf("step %d (%s at %d): %s, want %s", i, s.op, s.pc, got, s.want)
				}
			}
		})
	}
}

// laneShapes holds one kernel per shape of divergence the lockstep driver
// meets: a rarely and an often taken if, if/else, a split inside the lanes
// that took a branch, break and continue past the join, a loop whose trip
// count differs per lane (the majority bound for the lower pc), the jump
// chains of && and ||, jz and jnz, a uniform operand on either side of < and
// <=, and float compares with NaN in some lanes (f*inf is NaN where f is 0).
// The index shapes compare a uniform loop counter with an index, which the
// plan decides by index (laneProg.byIndex): == and != with the index on
// either side, both indexes of a rank-2 kernel, a test inside a divergent if
// where lanes may be parked, and a block variable that shadows the index and
// is assigned, which is not an index. The counters run from below the
// lowest coordinate laneInputs makes to past the highest of a short slice.
var laneShapes = `int32[] vs;
float64[] fs;
int32[] out;
float64[] outf;
int32[][] out2;
float64[][] outf2;
` + laneShape("rare", "if (v > 5) { r = v * 2; g = f; }") +
	laneShape("often", "if (v > -3) { r = v * 2; } g = f;") +
	laneShape("ifelse", "if (v < 2) { r = 1; } else { r = 2; g = f; }") +
	laneShape("nested", "if (v > 0) { if (v > 4) { r = 3; } else { r = 2; g = f; } } else { r = 1; }") +
	laneShape("break", "for (int i = 0; i < 10; ++i) { if (i == v) { break; } r += i; }") +
	laneShape("continue", "for (int i = 0; i < 8; ++i) { if (i % 3 == v % 3) { continue; } r += i; if (r > 12) { break; } }") +
	laneShape("trips", "for (int i = 0; i < v; ++i) { r += i; g += f; }") +
	laneShape("chains", "if (v > 1 && f < 2.0 || v == -3) { r = 7; } if (v < 0 || v > 6 && f > 1.0) { r += 1; }") +
	laneShape("jz", "if (v) { r = 1; } if (!v) { r += 2; } if (f) { r += 4; } if (!f) { r += 8; }") +
	laneShape("uniform", `int u = 3;
    float w = 0.5;
    if (u < v) { r += 1; }
    if (v < u) { r += 2; }
    if (u <= v) { r += 4; }
    if (v <= u) { r += 8; }
    if (v > u) { r += 16; }
    if (u >= v) { r += 32; }
    if (w < f) { r += 64; }
    if (f <= w) { r += 128; }
    if (w == f) { r += 256; }
    if (f != w) { r += 512; }`) +
	laneShape("nan", `float h = 10000000000.0;
    h = h * h * h * h;
    h = h * h * h * h * h * h * h * h;
    float z = f * h;
    if (z < 1.0) { r += 1; }
    if (z <= 1.0) { r += 2; }
    if (1.0 < z) { r += 4; }
    if (1.0 <= z) { r += 8; }
    if (z == 1.0) { r += 16; }
    if (z != 1.0) { r += 32; }
    if (z < f) { r += 64; }
    if (f <= z) { r += 128; }
    if (z == f) { r += 256; }
    if (z != f) { r += 512; }
    if (z) { r += 1024; }
    if (!z) { r += 2048; }`) +
	laneShape("equal", "for (int i = 0; i < 12; ++i) { if (i == x) { r += i + v; g = f; } }") +
	laneShape("flipped", "for (int i = 0; i < 12; ++i) { if (x == i) { r += 2 * i; } }") +
	laneShape("unequal", "for (int i = 0; i < 12; ++i) { if (i != x) { r += 1; } else { g = f; } if (x != i) { g += 0.5; } }") +
	laneShape("parked", "for (int i = 0; i < 12; ++i) { if (v > i - 3) { if (i == x) { r += i; } } }") +
	laneShape("shadowed", "r = x; int x = v; for (int i = -4; i < 12; ++i) { if (i == x) { r += i; x += 2; } }") +
	`pair:
  index x, y;
  local int32 v;
  local float64 f;
  local int32 r;
  local float64 g;
  fetch v = vs(0)[y];
  fetch f = fs(0)[x];
  %{
    r = 0;
    g = 0.0;
    for (int i = 0; i < 12; ++i) { if (i == y) { r += i; } if (x != i) { g += f; } }
  %}
  store out2(0)[x][y] = r;
  store outf2(0)[x][y] = g;
`

// laneShape is a kernel of laneShapes with body inside.
func laneShape(name, body string) string {
	return name + `:
  index x;
  local int32 v;
  local float64 f;
  local int32 r;
  local float64 g;
  fetch v = vs(0)[x];
  fetch f = fs(0)[x];
  %{
    r = 0;
    g = 0.0;
    ` + body + `
  %}
  store out(0)[x] = r;
  store outf(0)[x] = g;
`
}

// TestLaneDivergenceShapes runs every shape of laneShapes through
// checkLanes at every length of laneCounts: the rows match the scalar VM's
// and the oracle's, and the driver never finds lanes parked where the plan
// has none. It also pins which branches the plan decides by index, and
// which of them the driver decides because lanes may be parked there.
func TestLaneDivergenceShapes(t *testing.T) {
	file, err := Parse(laneShapes)
	if err != nil {
		t.Fatal(err)
	}
	var st laneStats
	checkLanes(t, file, &st)
	if st.eligible != st.kernels || st.completed != st.runs {
		t.Errorf("%d of %d kernels lane-eligible, %d of %d slice-body runs completed; want all", st.eligible, st.kernels, st.completed, st.runs)
	}
	_, bodies, err := compileFile("shapes", file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"equal": "x", "flipped": "x", "unequal": "x x", "parked": "x/driver", "pair": "y x"}
	for i, p := range bodies {
		if got := byIndexPlan(p, file.Kernels[i].Indexes); got != want[p.kernel] {
			t.Errorf("%s: branches decided by index %q, want %q", p.kernel, got, want[p.kernel])
		}
	}
}

// byIndexPlan lists the index of every branch p's plan decides by index, in
// pc order, with /driver where the lockstep code leaves it to the driver.
func byIndexPlan(p *bcProg, indexes []string) string {
	var got []string
	for pc, s := range p.lane.byIndex {
		if s >= 0 {
			name := indexes[p.lane.spans[s].idx]
			if p.lane.code[pc].op != opLaneIdx {
				name += "/driver"
			}
			got = append(got, name)
		}
	}
	return strings.Join(got, " ")
}
