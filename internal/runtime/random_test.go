package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

// TestRandomPipelines builds randomized multi-stage element-wise pipelines —
// random stage counts, widths, age offsets, fan-in — runs them on the real
// node with random worker counts, shard counts and slice sizes, and checks
// every field generation against a direct sequential evaluation. This is the
// broadest correctness net over the dependency analyzer: domain growth,
// completeness propagation, aging edges and scheduling order all have to be
// right for every topology drawn.
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

func runRandomPipeline(t *testing.T, rng *rand.Rand) {
	t.Helper()
	width := 1 + rng.Intn(6)
	nStages := 1 + rng.Intn(5)
	maxAge := 1 + rng.Intn(5)

	// Field 0 is the seed; field i+1 is produced by stage i.
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

	b := core.NewBuilder("random")
	for i := 0; i <= nStages; i++ {
		b.Field(fmt.Sprintf("f%d", i), field.Int64, 1, true)
	}
	seed := make([]int64, width)
	for i := range seed {
		seed[i] = int64(rng.Intn(100))
	}
	b.Kernel("init").
		Local("vals", field.Int64, 1).
		StoreAll("f0", core.AgeAt(0), "vals").
		Body(func(c *core.Ctx) error {
			for i, v := range seed {
				c.Array("vals").Put(field.Int64Val(v), i)
			}
			return nil
		})
	// A driver keeps f0 alive for later ages: f0(a+1)[x] = f_last(a)[x] + 1.
	last := fmt.Sprintf("f%d", nStages)
	b.Kernel("driver").Age("a").Index("x").
		Local("v", field.Int64, 0).
		Fetch("v", last, core.AgeVar(0), core.Idx("x")).
		Store("f0", core.AgeVar(1), []core.IndexSpec{core.Idx("x")}, "v").
		Body(func(c *core.Ctx) error {
			c.SetInt64("v", c.Int64("v")+1)
			return nil
		})
	for i, s := range stages {
		s := s
		kb := b.Kernel(fmt.Sprintf("stage%d", i)).Age("a").Index("x").
			Local("a1", field.Int64, 0).
			Fetch("a1", fmt.Sprintf("f%d", s.srcA), core.AgeVar(0), core.Idx("x"))
		if s.srcB >= 0 {
			kb.Local("a2", field.Int64, 0).
				Fetch("a2", fmt.Sprintf("f%d", s.srcB), core.AgeVar(0), core.Idx("x"))
		}
		kb.Local("out", field.Int64, 0).
			Store(fmt.Sprintf("f%d", i+1), core.AgeVar(s.delay), []core.IndexSpec{core.Idx("x")}, "out").
			Body(func(c *core.Ctx) error {
				v := c.Int64("a1")*s.mulAdd[0] + s.mulAdd[1]
				if s.srcB >= 0 {
					v += c.Int64("a2")
				}
				c.SetInt64("out", v)
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
	// width, or more than the whole domain — under a random analyzer shard
	// count. None of it may change a single field value.
	workers := 1 + rng.Intn(8)
	opts := Options{Workers: workers, MaxAge: maxAge, AnalyzerShards: 1 + rng.Intn(3), Granularity: map[string]int{}}
	sizes := []int{1, 2, 3, 5, 7, width + 3}
	for _, kd := range prog.Kernels {
		if rng.Intn(3) > 0 {
			opts.Granularity[kd.Name] = sizes[rng.Intn(len(sizes))]
		}
	}
	node, err := NewNode(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatalf("run (workers=%d shards=%d sizes=%v): %v", workers, opts.AnalyzerShards, opts.Granularity, err)
	}
	for _, k := range rep.Kernels {
		if k.Slices > k.Instances || (k.Instances > 0 && k.Slices == 0) {
			t.Fatalf("%s: %d slices for %d instances", k.Name, k.Slices, k.Instances)
		}
	}

	// Sequential reference: evaluate generation by generation.
	ref := make([]map[int][]int64, nStages+1) // field -> age -> values
	for i := range ref {
		ref[i] = map[int][]int64{}
	}
	ref[0][0] = append([]int64(nil), seed...)
	for a := 0; ; a++ {
		if _, ok := ref[0][a]; !ok {
			break
		}
		for i, s := range stages {
			src, ok := ref[s.srcA][a]
			if !ok {
				continue
			}
			var srcB []int64
			if s.srcB >= 0 {
				srcB, ok = ref[s.srcB][a]
				if !ok {
					continue // the real instance never becomes runnable either
				}
			}
			out := make([]int64, width)
			for x := 0; x < width; x++ {
				v := src[x]*s.mulAdd[0] + s.mulAdd[1]
				if srcB != nil {
					v += srcB[x]
				}
				out[x] = v
			}
			ref[i+1][a+s.delay] = out
		}
		// Driver.
		if lastVals, ok := ref[nStages][a]; ok && a+1 <= maxAge {
			next := make([]int64, width)
			for x := range lastVals {
				next[x] = lastVals[x] + 1
			}
			ref[0][a+1] = next
		}
		if a > maxAge+1 {
			break
		}
	}

	// Compare every generation the reference produced within the bound.
	for fi := 0; fi <= nStages; fi++ {
		for a, want := range ref[fi] {
			if a > maxAge {
				continue
			}
			// Generations whose producing kernel ran beyond maxAge are
			// absent; skip unproduced ones.
			s, err := node.Snapshot(fmt.Sprintf("f%d", fi), a)
			if err != nil {
				t.Fatal(err)
			}
			if s.Extent(0) == 0 {
				continue // bounded out
			}
			if s.Extent(0) != width {
				t.Fatalf("f%d(%d) extent %d, want %d", fi, a, s.Extent(0), width)
			}
			for x := 0; x < width; x++ {
				if got := s.At(x).Int64(); got != want[x] {
					t.Fatalf("f%d(%d)[%d] = %d, want %d (workers=%d)", fi, a, x, got, want[x], workers)
				}
			}
		}
	}
}
