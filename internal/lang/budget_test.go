package lang

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// lowerTestdata lowers every kernel of a testdata program.
func lowerTestdata(t *testing.T, name string) map[string]*bcProg {
	t.Helper()
	file, err := Parse(readTestdata(t, name+".p2g"))
	if err != nil {
		t.Fatal(err)
	}
	_, bodies, err := compileFile(name, file)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := map[string]*bcProg{}
	for _, p := range bodies {
		out[p.kernel] = p
	}
	return out
}

// shortestIteration is the least number of instructions one trip through the
// loop [head, tail] executes. Inside an innermost loop every jump but the
// back-edge goes forward, so one pass in order relaxes every path.
func shortestIteration(p *bcProg, head, tail int) int {
	const far = 1 << 30
	dist := make([]int, tail+2)
	for i := range dist {
		dist[i] = far
	}
	dist[head] = 1
	for pc := head; pc < tail; pc++ {
		in := p.code[pc]
		if t := in.target(); t > pc && t <= tail {
			dist[t] = min(dist[t], dist[pc]+1)
		}
		if in.op != opJmp {
			dist[pc+1] = min(dist[pc+1], dist[pc]+1)
		}
	}
	return dist[tail]
}

// TestLoweringInstructionBudget pins what the lowering emits for the hot loops
// of the testdata programs. The counts are static and repeat exactly; a
// lowering change that makes an innermost loop longer fails here, one that
// makes it shorter should lower the budget.
func TestLoweringInstructionBudget(t *testing.T) {
	budget := map[string]map[string]int{ // program -> kernel -> Listing.InnerLoop
		"kmeans":    {"init": 14, "assign": 14, "refine": 9, "print": 7},
		"mulsum":    {"init": 4, "mul2": 0, "plus5": 0, "print": 8},
		"wavefront": {"load": 7, "border_row": 0, "border_col": 0, "border_corner": 0, "predict": 0},
		"dctstats":  {"read": 8, "dct": 25, "stats": 5},
	}
	for prog, kernels := range budget {
		listings, err := Disassemble(prog, readTestdata(t, prog+".p2g"))
		if err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		if len(listings) != len(kernels) {
			t.Errorf("%s: %d kernels listed, budget names %d", prog, len(listings), len(kernels))
		}
		for _, l := range listings {
			want, ok := kernels[l.Kernel]
			switch {
			case !ok:
				t.Errorf("%s: kernel %s has no budget", prog, l.Kernel)
			case l.InnerLoop > want:
				t.Errorf("%s: kernel %s: innermost loop is %d instructions, budget %d\n%s", prog, l.Kernel, l.InnerLoop, want, l.Text)
			case l.InnerLoop < want:
				t.Logf("%s: kernel %s: innermost loop is %d instructions, budget %d can come down", prog, l.Kernel, l.InnerLoop, want)
			}
			if !strings.Contains(l.Text, "innermost loop ") {
				t.Errorf("%s: kernel %s: header line lacks the innermost-loop count:\n%s", prog, l.Kernel, l.Text)
			}
		}
	}

	// No opcode reloads a constant or a kernel local any more: constants are
	// registers filled at frame creation, locals are loaded by the prologue.
	for op := opcode(0); op < numOpcodes; op++ {
		if name := opTable[op].name; name == "" {
			t.Errorf("opcode %d has no opTable entry", op)
		} else if strings.HasPrefix(name, "ld") || strings.HasPrefix(name, "stl") {
			t.Errorf("opcode %s: constant loads and local load/store instructions must not exist", name)
		}
	}

	// The K-means hot loops. assign's loop keeps exactly one move, the
	// source's own `best = d` between two variables; nothing in either loop
	// copies a temporary into the variable an operation should have written.
	kmeans := lowerTestdata(t, "kmeans")
	for kernel, wantMoves := range map[string]int{"assign": 1, "refine": 0} {
		p := kmeans[kernel]
		moves := 0
		for _, l := range p.loops() {
			for pc := l[0]; pc <= l[1]; pc++ {
				if strings.HasPrefix(opTable[p.code[pc].op].name, "mov") {
					moves++
				}
			}
		}
		if moves != wantMoves {
			t.Errorf("kmeans %s: %d mov instructions inside loops, want %d", kernel, moves, wantMoves)
		}
	}
	if n := kmeans["assign"].innerLoop(); n > 14 {
		t.Errorf("kmeans assign: inner loop is %d instructions, want <= 14", n)
	}
	refine := kmeans["refine"]
	loops := refine.loops()
	if len(loops) != 1 {
		t.Fatalf("kmeans refine: %d loops, want 1", len(loops))
	}
	if n := shortestIteration(refine, loops[0][0], loops[0][1]); n > 5 {
		t.Errorf("kmeans refine: the non-member path is %d instructions, want <= 5", n)
	}
}

// TestLaneEligibility pins which kernels of the tree's sources can run their
// slices in lockstep, the reason for every one that cannot, and for the
// K-means kernels the benchmark lives on also which registers are varying
// and from what slice length they run in lockstep: losing eligibility, or a
// loop counter turning varying, should fail here rather than show up as a
// slower benchmark.
func TestLaneEligibility(t *testing.T) {
	// program/kernel -> why not ("" if eligible)
	want := map[string]string{
		"kmeans.p2g/init":        "put",
		"kmeans.p2g/assign":      "",
		"kmeans.p2g/refine":      "",
		"kmeans.p2g/print":       "cout",
		"kmeans.p2g.tmpl/init":   "put",
		"kmeans.p2g.tmpl/assign": "",
		"kmeans.p2g.tmpl/refine": "",
		"kmeans.p2g.tmpl/print":  "cout",

		"mulsum.p2g/init":  "put",
		"mulsum.p2g/mul2":  "",
		"mulsum.p2g/plus5": "",
		"mulsum.p2g/print": "cout",

		"wavefront.p2g/load":          "stop",
		"wavefront.p2g/border_row":    "",
		"wavefront.p2g/border_col":    "",
		"wavefront.p2g/border_corner": "",
		"wavefront.p2g/predict":       "",

		"dctstats.p2g/read":  "stop",
		"dctstats.p2g/dct":   "array blk is not a typed whole fetch", // a slab per instance
		"dctstats.p2g/stats": "cout",

		// Not in the tree: the body never touches the slab it passes on.
		"slab-pass-through.p2g/init": "put",
		"slab-pass-through.p2g/copy": "array blk is not a typed whole fetch",
	}
	// The varying registers of the eligible K-means kernels, in both sources:
	// assign's are the point (f0 f1), the best distance (f2), the temporaries
	// computed from them and m (i2); its loop counter i4 and bound i3 are
	// not, nor are the centroid's coordinates, which the lowering reads into
	// temporaries that later hold distances (f4, f5) and the plan gives
	// registers of their own (f11, f12). refine's are the cluster index (i1),
	// the fetched centroid (f0 f1), the sums and the count written under the
	// divergent if, and the results; its loop counter i4, bound i3 and the
	// membership read i5 are not.
	varying := map[string]string{
		"assign": "i2 f0 f1 f2 f3 f4 f5 f6 f7",
		"refine": "i1 i2 f0 f1 f2 f3 f4 f5 f6",
	}
	// The shortest slice each is run in lockstep at (laneBreakEven): of the
	// instructions of its loop that every lane executes the driver has 6 of
	// assign's 10 and none of refine's 4, whose membership test exec decides
	// by index, which leaves refine at the floor of 2. Measured through
	// execSlice, assign breaks even at 8 to 9 lanes and refine at 2
	// (EXPERIMENTS.md E26). refine's matters: its domain is the K clusters,
	// so its tail limit is small — 12 at K=100 on two workers.
	minLanes := map[string]int{"assign": 9, "refine": 2}
	// The values given registers of their own (renameUniform): assign's two
	// centroid coordinates; renaming refine's would only add a column.
	renamed := map[string]int{"assign": 2, "refine": 0}
	// The branches each decides by index (byIndexPlan): refine's membership
	// test compares the uniform get(ms, i) with its index c; assign's two
	// compare per-lane distances.
	byIndex := map[string]string{"assign": "", "refine": "c"}
	got := map[string]string{}
	sources := everySource(t)
	sources["slab-pass-through.p2g"] = slabPassThrough
	for path, src := range sources {
		file, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, bodies, err := compileFile(path, file)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range bodies {
			key := filepath.Base(path) + "/" + p.kernel
			got[key] = p.laneWhy
			if (p.lane == nil) != (p.laneWhy != "") {
				t.Errorf("%s: lane plan %v but reason %q", key, p.lane != nil, p.laneWhy)
			}
			if exp, ok := varying[p.kernel]; ok && strings.HasPrefix(filepath.Base(path), "kmeans") && p.lane != nil {
				var regs []string
				for _, r := range p.lane.iregs {
					regs = append(regs, fmt.Sprint("i", r))
				}
				for _, r := range p.lane.fregs {
					regs = append(regs, fmt.Sprint("f", r))
				}
				if v := strings.Join(regs, " "); v != exp {
					t.Errorf("%s: varying registers %q, want %q", key, v, exp)
				}
				if p.lane.minLanes != minLanes[p.kernel] {
					t.Errorf("%s: lockstep from %d lanes, want %d", key, p.lane.minLanes, minLanes[p.kernel])
				}
				if p.lane.renamed != renamed[p.kernel] {
					t.Errorf("%s: %d values renamed, want %d", key, p.lane.renamed, renamed[p.kernel])
				}
				if got := byIndexPlan(p, file.Kernels[i].Indexes); got != byIndex[p.kernel] {
					t.Errorf("%s: branches decided by index %q, want %q", key, got, byIndex[p.kernel])
				}
				if n, want := strings.Count(p.disasm(&file.Kernels[i]), "; divergent, by index "), len(strings.Fields(byIndex[p.kernel])); n != want {
					t.Errorf("%s: the listing marks %d branches divergent by index, want %d", key, n, want)
				}
			}
		}
	}
	for key, why := range got {
		if exp, ok := want[key]; !ok {
			t.Errorf("%s: not in the table (lanes: %q)", key, why)
		} else if why != exp {
			t.Errorf("%s: lanes %q, want %q", key, why, exp)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: in the table but not in the tree", key)
		}
	}
}

// A kernel that needs more registers of one class — or more kernel locals —
// than a byte operand can name does not compile, and the error says which
// kernel, which class and how many.
func TestLoweringRegisterLimit(t *testing.T) {
	var wide, many strings.Builder
	wide.WriteString("int32[] out;\nwide:\n  local int32[] r;\n  %{\n")
	many.WriteString("int32[] out;\nmany:\n  local int32[] r;\n")
	for i := 0; i < maxRegs+10; i++ {
		fmt.Fprintf(&wide, "int v%d = %d;\n", i, i%7)
		fmt.Fprintf(&many, "  local int32[] v%d;\n", i)
	}
	fmt.Fprintf(&wide, "put(r, v3 + v%d, 0);\n  %%}\n  store out(0) = r;\n", maxRegs+9)
	fmt.Fprintf(&many, "  %%{ put(v%d, 1, 0); put(r, 1, 0); %%}\n  store out(0) = r;\n", maxRegs+9)
	for src, want := range map[string]string{
		// 266 variables, one temporary for the sum and the constants 0..6.
		wide.String(): "2:1: kernel wide needs 274 int registers, the limit is 256",
		many.String(): "2:1: kernel many needs 267 locals, the limit is 256",
	} {
		if _, err := Compile("limit", src); err == nil || err.Error() != want {
			t.Errorf("Compile = %v, want %s", err, want)
		}
	}
}
