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
// stored as [x][*] rows or as [*][x] columns, whose boxes never merge — runs
// them on the real node with random worker counts and slice sizes, with and
// without metrics and tracing, and checks every field generation against a
// direct sequential evaluation; a second run with garbage collection must
// dispatch the same instances and keep what it keeps intact. A stage's
// second source is an element fetch — [x], or [x][0] of a rank-2 field,
// kmeans_vm's shape — at a drawn offset: [x+1] reads a halo field, whose
// producer also writes the element past the domain, or a shifted field,
// whose producer stores every index one further on ([x+1], [x+1][*]) and
// leaves index 0 unwritten. A stage of a rows field may run over its cells,
// on a rank-2 domain (x, y) whose element stores [x][y] go out as partial
// and whole rows. A stage either reads its sources as they are produced, so
// its element fetches are satisfied cell by cell while it waits, or through
// whole copies that a mirror kernel stores in one piece each — the element
// source first — so that the element generation is written throughout before
// the stage has a cell, and a whole burst is satisfied at once. Drawn
// pipelines mix slab-only stages with element-fetching ones, and a
// row-fetching stage's domain grows through row stores that arrive out of
// order. This is the broadest correctness net over the dependency analyzer:
// domain growth, completeness propagation, aging edges, scheduling order and
// the retirement of collected ages all have to be right for every topology
// drawn.
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
	// off: the index offset of the srcB element fetch, 1 only for a halo
	// field.
	off int
	// mirrored: the stage reads its sources through whole copies.
	mirrored bool
	// cells: the stage runs over the cells of its rows source, index (x,
	// y), fetching and storing [x][y] by element.
	cells bool
}

// pipeField is one field of a random pipeline: cols 0 is a rank-1 field of
// single values, cols > 0 a rank-2 field whose rows hold cols values — laid
// out as columns [j][x] when cm is set. A halo field holds one index more
// than the pipeline's width: its producer also writes the index past its
// domain, which only an [x+1] element fetch reads. A shifted field (shift 1)
// holds its values one index further on, index 0 unwritten: only an [x+1]
// element fetch reads it.
type pipeField struct {
	cols  int
	halo  bool
	shift int
	cm    bool
}

// at is the index of value j of index x: [x][j], or [j][x] laid out as
// columns.
func (f pipeField) at(x, j core.IndexSpec) []core.IndexSpec {
	if f.cm {
		return []core.IndexSpec{j, x}
	}
	return []core.IndexSpec{x, j}
}

func (f pipeField) name(i int) string { return fmt.Sprintf("f%d", i) }

// rank is the field's rank.
func (f pipeField) rank() int { return 1 + min(f.cols, 1) }

// index is where value j of index x is: [x], [x][j] or [j][x].
func (f pipeField) index(x, j int) []int {
	if f.cm {
		return []int{j, x}
	}
	return []int{x, j}[:f.rank()]
}

// rowLen is the number of values per index of the field.
func (f pipeField) rowLen() int { return max(f.cols, 1) }

// fetch declares local fetched from field name, shaped like f, at age a —
// the element [x], or of a rank-2 field the row [x][*] (column [*][x]) — and
// returns the reader of its value j (cycling through a row). elem fetches
// the element [x+off][0] ([0][x+off]) of a rank-2 field instead, and [x+off]
// of a rank-1 one: an element fetch of a generation no producer writes waits
// for ever, where a row fetch of it runs on an empty row, and only the first
// fetch, which binds the domain, sees every generation it reads written.
func (f pipeField) fetch(kb *core.KernelBuilder, local, name string, elem bool, off int) func(c *core.Ctx, j int) int64 {
	switch {
	case f.cols == 0:
		kb.Local(local, field.Int64, 0).Fetch(local, name, core.AgeVar(0), core.IdxOff("x", off))
	case elem:
		kb.Local(local, field.Int64, 0).Fetch(local, name, core.AgeVar(0), f.at(core.IdxOff("x", off), core.Lit(0))...)
	default:
		kb.Local(local, field.Int64, 1).Fetch(local, name, core.AgeVar(0), f.at(core.Idx("x"), core.All())...)
		return func(c *core.Ctx, j int) int64 { return c.Array(local).Int64s()[j%f.cols] }
	}
	return func(c *core.Ctx, _ int) int64 { return c.Int64(local) }
}

// store declares local stored to field i at age a+delay and index x+off,
// element, row or column.
func (f pipeField) store(kb *core.KernelBuilder, local string, i, delay, off int) {
	if f.cols == 0 {
		kb.Local(local, field.Int64, 0).Store(f.name(i), core.AgeVar(delay), []core.IndexSpec{core.IdxOff("x", off)}, local)
		return
	}
	kb.Local(local, field.Int64, 1).Store(f.name(i), core.AgeVar(delay), f.at(core.IdxOff("x", off), core.All()), local)
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

// haloBias is what a halo element adds to the last element of its domain.
const haloBias = 1000

func runRandomPipeline(t *testing.T, rng *rand.Rand) {
	t.Helper()
	width := 1 + rng.Intn(6)
	nStages := 1 + rng.Intn(5)
	maxAge := 1 + rng.Intn(5)

	// Field 0 is the seed; field i+1 is produced by stage i. Fields between
	// the seed and the last one may be halo or shifted fields; the first
	// fetch binds the domain, so it reads a field that is neither.
	fields := make([]pipeField, nStages+1)
	for i := range fields {
		if rng.Intn(2) == 0 {
			fields[i].cols = 1 + rng.Intn(3)
			fields[i].cm = rng.Intn(3) == 0
		}
		if i > 0 && i < nStages {
			switch rng.Intn(4) {
			case 0:
				fields[i].halo = true
			case 1:
				fields[i].shift = 1
			}
		}
	}
	offset := func(f pipeField) bool { return f.halo || f.shift > 0 }
	stages := make([]stage, nStages)
	for i := range stages {
		s := stage{
			mulAdd: [2]int64{int64(1 + rng.Intn(3)), int64(rng.Intn(7))},
			srcA:   rng.Intn(i + 1),
			srcB:   -1,
			delay:  0,
		}
		for offset(fields[s.srcA]) {
			s.srcA = rng.Intn(i + 1)
		}
		// A cells stage's output is a plain rows field of its source's
		// shape; nothing has drawn it as a source yet.
		if fa := fields[s.srcA]; fa.cols > 0 && !fa.cm && rng.Intn(3) == 0 {
			s.cells, fields[i+1] = true, pipeField{cols: fa.cols}
		}
		if rng.Intn(3) == 0 {
			s.srcB = rng.Intn(i + 1)
			if fb := fields[s.srcB]; fb.shift > 0 || fb.halo && rng.Intn(2) == 0 {
				s.off = 1
			}
			s.mirrored = rng.Intn(2) == 0
		}
		// At least one stage must close an aging cycle back to field 0 to
		// keep the program alive across ages; give each stage a chance.
		if rng.Intn(4) == 0 {
			s.delay = 1
		}
		stages[i] = s
	}

	b := core.NewBuilder("random")
	for i, f := range fields {
		b.Field(f.name(i), field.Int64, f.rank(), true)
	}
	seed := make([][]int64, width)
	for x := range seed {
		seed[x] = make([]int64, fields[0].rowLen())
		for j := range seed[x] {
			seed[x][j] = int64(rng.Intn(100))
		}
	}
	b.Kernel("init").
		Local("vals", field.Int64, fields[0].rank()).
		StoreAll("f0", core.AgeAt(0), "vals").
		Body(func(c *core.Ctx) error {
			for x, row := range seed {
				if fields[0].cols == 0 {
					c.Array("vals").Put(field.Int64Val(row[0]), x)
					continue
				}
				for j, v := range row {
					c.Array("vals").Put(field.Int64Val(v), fields[0].index(x, j)...)
				}
			}
			return nil
		})
	// A driver keeps f0 alive for later ages: f0(a+1)[x] = f_last(a)[x] + 1.
	lastF := fields[nStages]
	driver := b.Kernel("driver").Age("a").Index("x")
	getLast := lastF.fetch(driver, "v", lastF.name(nStages), false, 0)
	fields[0].store(driver, "next", 0, 1, 0)
	driver.Body(func(c *core.Ctx) error {
		fields[0].set(c, "next", func(j int) int64 { return getLast(c, j) + 1 })
		return nil
	})
	for i, s := range stages {
		s := s
		fa, out := fields[s.srcA], fields[i+1]
		nameA, nameB := fa.name(s.srcA), ""
		if s.srcB >= 0 {
			nameB = fields[s.srcB].name(s.srcB)
		}
		if s.mirrored {
			// The mirror stores srcB's copy first: the stage's domain grows
			// only with the second store, when the element source is
			// written throughout.
			mb, ma := fmt.Sprintf("m%db", i), fmt.Sprintf("m%da", i)
			b.Field(mb, field.Int64, fields[s.srcB].rank(), true)
			b.Field(ma, field.Int64, fa.rank(), true)
			b.Kernel(fmt.Sprintf("mirror%d", i)).Age("a").
				Local("vb", field.Int64, fields[s.srcB].rank()).
				Local("va", field.Int64, fa.rank()).
				FetchAll("vb", nameB, core.AgeVar(0)).
				FetchAll("va", nameA, core.AgeVar(0)).
				StoreAll(mb, core.AgeVar(0), "vb").
				StoreAll(ma, core.AgeVar(0), "va")
			nameA, nameB = ma, mb
		}
		kb := b.Kernel(fmt.Sprintf("stage%d", i)).Age("a")
		var getA func(c *core.Ctx, j int) int64
		if s.cells {
			kb.Index("x", "y").Local("a1", field.Int64, 0).Local("out", field.Int64, 0).
				Fetch("a1", nameA, core.AgeVar(0), core.Idx("x"), core.Idx("y")).
				Store(out.name(i+1), core.AgeVar(s.delay), []core.IndexSpec{core.Idx("x"), core.Idx("y")}, "out")
			getA = func(c *core.Ctx, _ int) int64 { return c.Int64("a1") }
		} else {
			kb.Index("x")
			getA = fa.fetch(kb, "a1", nameA, false, 0)
			out.store(kb, "out", i+1, s.delay, out.shift)
		}
		var getB func(c *core.Ctx, j int) int64
		if s.srcB >= 0 {
			getB = fields[s.srcB].fetch(kb, "a2", nameB, true, s.off)
		}
		if out.halo {
			out.store(kb, "halo", i+1, s.delay, 1)
		}
		kb.Body(func(c *core.Ctx) error {
			v := func(j int) int64 {
				v := getA(c, j)*s.mulAdd[0] + s.mulAdd[1]
				if getB != nil {
					v += getB(c, j)
				}
				return v
			}
			if s.cells {
				c.SetInt64("out", v(c.Index("y")))
				return nil
			}
			out.set(c, "out", v)
			if out.halo && c.Index("x") == width-1 {
				out.set(c, "halo", func(j int) int64 { return v(j) + haloBias })
			}
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
	// apply computes a field's rows from value function v(x, j), a halo
	// field's extra row from the last one, and a shifted field's rows one
	// further on, after an unwritten (zero) row.
	apply := func(f pipeField, v func(x, j int) int64) [][]int64 {
		rows := make([][]int64, width+f.shift)
		for x := range rows {
			rows[x] = make([]int64, f.rowLen())
			for j := range rows[x] {
				if x >= f.shift {
					rows[x][j] = v(x-f.shift, j)
				}
			}
		}
		if f.halo {
			halo := make([]int64, f.rowLen())
			for j := range halo {
				halo[j] = v(width-1, j) + haloBias
			}
			rows = append(rows, halo)
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
					v += srcB[x+s.off][0]
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
				if n := f.index(len(want), f.cols); s.Extent(0) != n[0] || f.cols > 0 && s.Extent(1) != n[1] {
					t.Fatalf("f%d(%d) extents %v, want %d rows of %d (columns: %v)", fi, a, s.Extents(), len(want), f.cols, f.cm)
				}
				for x := range want {
					for j, w := range want[x] {
						idx := f.index(x, j)
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
