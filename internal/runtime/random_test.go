package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// TestRandomPipelines builds randomized multi-stage pipelines — random stage
// counts, widths, age offsets, fan-in, and per field either rank 1, fetched
// and stored by element, or rank 2 with rows of 1–3 values, fetched and
// stored as [x][*] rows — runs them on the real node with random worker
// counts and slice sizes, with and without metrics and tracing, and checks
// every field generation against a direct sequential evaluation; a second run
// with garbage collection must dispatch the same instances and keep what it
// keeps intact. A stage whose fetches are all rows is slab-only and runs on
// a range tracker, the others on per-instance trackers, so drawn pipelines
// mix both, and a row-fetching stage's domain grows through row stores that
// arrive out of order. This is the broadest correctness net over the
// dependency analyzer: domain growth, completeness propagation, aging edges,
// scheduling order and the retirement of collected ages all have to be right
// for every topology drawn.
func TestRandomPipelines(t *testing.T) {
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			runRandomPipeline(t, rng)
		})
	}
}

type stage struct {
	mulAdd [2]int64 // value' = value*mul + add
	// srcA, srcB: indices of upstream fields (srcB = -1 for unary).
	srcA, srcB int
	// delay: the age offset of the store (0 or 1); fetches are at age a.
	delay int
}

// pipeField is one field of a random pipeline: cols 0 is a rank-1 field of
// single values, cols > 0 a rank-2 field whose rows hold cols values.
type pipeField struct{ cols int }

func (f pipeField) name(i int) string { return fmt.Sprintf("f%d", i) }

// rowLen is the number of values per index of the field.
func (f pipeField) rowLen() int { return max(f.cols, 1) }

// fetch declares local fetched from field i at age a — the element [x], or
// of a rank-2 field the row [x][*] — and returns the reader of its value j
// (cycling through a row). elem fetches the element [x][0] of a rank-2
// field instead: an element fetch of a generation no producer writes waits
// for ever, where a row fetch of it runs on an empty row, and only the first
// fetch, which binds the domain, sees every generation it reads written.
func (f pipeField) fetch(kb *core.KernelBuilder, local string, i int, elem bool) func(c *core.Ctx, j int) int64 {
	switch {
	case f.cols == 0:
		kb.Local(local, field.Int64, 0).Fetch(local, f.name(i), core.AgeVar(0), core.Idx("x"))
	case elem:
		kb.Local(local, field.Int64, 0).Fetch(local, f.name(i), core.AgeVar(0), core.Idx("x"), core.Lit(0))
	default:
		kb.Local(local, field.Int64, 1).Fetch(local, f.name(i), core.AgeVar(0), core.Idx("x"), core.All())
		return func(c *core.Ctx, j int) int64 { return c.Array(local).Int64s()[j%f.cols] }
	}
	return func(c *core.Ctx, _ int) int64 { return c.Int64(local) }
}

// store declares local stored to field i at age a+delay, element or row.
func (f pipeField) store(kb *core.KernelBuilder, local string, i, delay int) {
	if f.cols == 0 {
		kb.Local(local, field.Int64, 0).Store(f.name(i), core.AgeVar(delay), []core.IndexSpec{core.Idx("x")}, local)
		return
	}
	kb.Local(local, field.Int64, 1).Store(f.name(i), core.AgeVar(delay), []core.IndexSpec{core.Idx("x"), core.All()}, local)
}

// set fills a stored local with v(j) for every value j of a row.
func (f pipeField) set(c *core.Ctx, local string, v func(j int) int64) {
	if f.cols == 0 {
		c.SetInt64(local, v(0))
		return
	}
	a := c.Array(local)
	a.Grow(f.cols)
	for j, row := 0, a.Int64s(); j < f.cols; j++ {
		row[j] = v(j)
	}
}

func runRandomPipeline(t *testing.T, rng *rand.Rand) {
	t.Helper()
	width := 1 + rng.Intn(6)
	nStages := 1 + rng.Intn(5)
	maxAge := 1 + rng.Intn(5)

	// Field 0 is the seed; field i+1 is produced by stage i. A stage's first
	// fetch reads rows of a rank-2 source, its second one element.
	stages := make([]stage, nStages)
	for i := range stages {
		s := stage{
			mulAdd: [2]int64{int64(1 + rng.Intn(3)), int64(rng.Intn(7))},
			srcA:   rng.Intn(i + 1),
			srcB:   -1,
			delay:  0,
		}
		if rng.Intn(3) == 0 {
			s.srcB = rng.Intn(i + 1)
		}
		// At least one stage must close an aging cycle back to field 0 to
		// keep the program alive across ages; give each stage a chance.
		if rng.Intn(4) == 0 {
			s.delay = 1
		}
		stages[i] = s
	}
	fields := make([]pipeField, nStages+1)
	for i := range fields {
		if rng.Intn(2) == 0 {
			fields[i].cols = 1 + rng.Intn(3)
		}
	}

	b := core.NewBuilder("random")
	for i, f := range fields {
		b.Field(f.name(i), field.Int64, 1+min(f.cols, 1), true)
	}
	seed := make([][]int64, width)
	for x := range seed {
		seed[x] = make([]int64, fields[0].rowLen())
		for j := range seed[x] {
			seed[x][j] = int64(rng.Intn(100))
		}
	}
	b.Kernel("init").
		Local("vals", field.Int64, 1+min(fields[0].cols, 1)).
		StoreAll("f0", core.AgeAt(0), "vals").
		Body(func(c *core.Ctx) error {
			for x, row := range seed {
				if fields[0].cols == 0 {
					c.Array("vals").Put(field.Int64Val(row[0]), x)
					continue
				}
				for j, v := range row {
					c.Array("vals").Put(field.Int64Val(v), x, j)
				}
			}
			return nil
		})
	// A driver keeps f0 alive for later ages: f0(a+1)[x] = f_last(a)[x] + 1.
	lastF := fields[nStages]
	driver := b.Kernel("driver").Age("a").Index("x")
	getLast := lastF.fetch(driver, "v", nStages, false)
	fields[0].store(driver, "next", 0, 1)
	driver.Body(func(c *core.Ctx) error {
		fields[0].set(c, "next", func(j int) int64 { return getLast(c, j) + 1 })
		return nil
	})
	for i, s := range stages {
		s := s
		fa, out := fields[s.srcA], fields[i+1]
		kb := b.Kernel(fmt.Sprintf("stage%d", i)).Age("a").Index("x")
		getA := fa.fetch(kb, "a1", s.srcA, false)
		var getB func(c *core.Ctx, j int) int64
		if s.srcB >= 0 {
			getB = fields[s.srcB].fetch(kb, "a2", s.srcB, true)
		}
		out.store(kb, "out", i+1, s.delay)
		kb.Body(func(c *core.Ctx) error {
			out.set(c, "out", func(j int) int64 {
				v := getA(c, j)*s.mulAdd[0] + s.mulAdd[1]
				if getB != nil {
					v += getB(c, j)
				}
				return v
			})
			return nil
		})
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("building random program: %v", err)
	}

	// The delayed stores make some generations arrive from two ages; that
	// can violate write-once (stage with delay 1 and the same target as a
	// delay-0 producer). Our generator gives each field exactly one
	// producer kernel, except f0 (init + driver, different ages). Check
	// schedulability and skip genuinely unsatisfiable draws.
	//
	// Slice sizes are part of the draw: per kernel either the scheduler's own
	// sizing rule or a forced size — one, a prime that does not divide the
	// width, or more than the whole domain. None of it may change a single
	// field value.
	//
	// So are metrics and tracing: with either, every instance is stamped and
	// observed one by one, a range slice's included.
	workers := 1 + rng.Intn(8)
	opts := Options{Workers: workers, MaxAge: maxAge, Granularity: map[string]int{}}
	sizes := []int{1, 2, 3, 5, 7, width + 3}
	for _, kd := range prog.Kernels {
		if rng.Intn(3) > 0 {
			opts.Granularity[kd.Name] = sizes[rng.Intn(len(sizes))]
		}
	}
	if rng.Intn(2) == 0 {
		opts.Metrics = obs.NewRegistry()
	}
	if rng.Intn(2) == 0 {
		opts.Tracer = obs.NewTracer(4096)
	}
	node, err := NewNode(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatalf("run (workers=%d sizes=%v): %v", workers, opts.Granularity, err)
	}
	for _, k := range rep.Kernels {
		if k.Slices > k.Instances || (k.Instances > 0 && k.Slices == 0) {
			t.Fatalf("%s: %d slices for %d instances", k.Name, k.Slices, k.Instances)
		}
	}

	// Sequential reference: evaluate generation by generation.
	ref := make([]map[int][][]int64, nStages+1) // field -> age -> rows
	for i := range ref {
		ref[i] = map[int][][]int64{}
	}
	ref[0][0] = seed
	// apply computes a field's rows from value function v(x, j).
	apply := func(f pipeField, v func(x, j int) int64) [][]int64 {
		rows := make([][]int64, width)
		for x := range rows {
			rows[x] = make([]int64, f.rowLen())
			for j := range rows[x] {
				rows[x][j] = v(x, j)
			}
		}
		return rows
	}
	for a := 0; ; a++ {
		if _, ok := ref[0][a]; !ok {
			break
		}
		for i, s := range stages {
			src, ok := ref[s.srcA][a]
			if !ok {
				continue
			}
			var srcB [][]int64
			if s.srcB >= 0 {
				srcB, ok = ref[s.srcB][a]
				if !ok {
					continue // the real instance never becomes runnable either
				}
			}
			ref[i+1][a+s.delay] = apply(fields[i+1], func(x, j int) int64 {
				v := src[x][j%len(src[x])]*s.mulAdd[0] + s.mulAdd[1]
				if srcB != nil {
					v += srcB[x][0]
				}
				return v
			})
		}
		// Driver.
		if lastVals, ok := ref[nStages][a]; ok && a+1 <= maxAge {
			ref[0][a+1] = apply(fields[0], func(x, j int) int64 {
				return lastVals[x][j%len(lastVals[x])] + 1
			})
		}
		if a > maxAge+1 {
			break
		}
	}

	// Compare every generation the reference produced within the bound.
	// Generations whose producing kernel ran beyond maxAge are absent, and
	// so are the ones garbage collection dropped; both snapshot empty.
	check := func(node *Node) {
		t.Helper()
		for fi, f := range fields {
			for a, want := range ref[fi] {
				if a > maxAge {
					continue
				}
				s, err := node.Snapshot(f.name(fi), a)
				if err != nil {
					t.Fatal(err)
				}
				if s.Extent(0) == 0 {
					continue
				}
				if s.Extent(0) != width || f.cols > 0 && s.Extent(1) != f.cols {
					t.Fatalf("f%d(%d) extents %v, want %d rows of %d", fi, a, s.Extents(), width, f.cols)
				}
				for x := 0; x < width; x++ {
					for j, w := range want[x] {
						idx := []int{x, j}[:1+min(f.cols, 1)]
						if got := s.At(idx...).Int64(); got != w {
							t.Fatalf("f%d(%d)%v = %d, want %d (workers=%d, GC %v)", fi, a, idx, got, w, workers, node.opts.GC)
						}
					}
				}
			}
		}
	}
	check(node)

	opts.GC = true
	gcNode, err := NewNode(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	gcRep, err := gcNode.Run()
	if err != nil {
		t.Fatalf("run with GC (workers=%d sizes=%v): %v", workers, opts.Granularity, err)
	}
	// A stage fetching a generation nobody produces never runs, with or
	// without GC; garbage collection must not stall anything else.
	if len(gcRep.Stalled) != len(rep.Stalled) {
		t.Fatalf("stalled with GC: %v\nwithout: %v", gcRep.Stalled, rep.Stalled)
	}
	for i, k := range gcRep.Kernels {
		if k.Instances != rep.Kernels[i].Instances {
			t.Fatalf("%s: %d instances with GC, %d without", k.Name, k.Instances, rep.Kernels[i].Instances)
		}
	}
	check(gcNode)
}
