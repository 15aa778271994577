package lang

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/runtime"
)

// lowerTestdata lowers every kernel of a testdata program.
func lowerTestdata(t *testing.T, name string) map[string]*bcProg {
	t.Helper()
	file, err := Parse(readTestdata(t, name+".p2g"))
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]FieldDecl{}
	for _, fd := range file.Fields {
		fields[fd.Name] = fd
	}
	timers := map[string]bool{}
	for _, td := range file.Timers {
		timers[td.Name] = true
	}
	out := map[string]*bcProg{}
	for i := range file.Kernels {
		kd := &file.Kernels[i]
		p, err := lowerKernelBody(kd, timers, fields)
		if err != nil {
			t.Fatalf("%s: kernel %s: %v", name, kd.Name, err)
		}
		out[kd.Name] = p
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

// A kernel that needs more registers of one class than a byte operand can
// name is not lowered: it keeps the closure body and runs correctly.
func TestLoweringRegisterLimitFallsBack(t *testing.T) {
	var b strings.Builder
	b.WriteString("int32[] out;\nk:\n  local int32[] r;\n  %{\n")
	for i := 0; i < maxRegs+10; i++ {
		fmt.Fprintf(&b, "int v%d = %d;\n", i, i%7)
	}
	fmt.Fprintf(&b, "put(r, v3 + v%d, 0);\n  %%}\n  store out(0) = r;\n", maxRegs+9)
	src := b.String()
	listings, err := Disassemble("wide", src)
	if err != nil {
		t.Fatal(err)
	}
	if l := listings[0]; !l.Fallback || !strings.Contains(l.FallbackReason, "registers") {
		t.Fatalf("listing = %+v, want a fallback naming the register limit", l)
	}
	node, _ := equivRun(t, "wide", src, BackendBytecode, runtime.Options{Workers: 1})
	snap, err := node.Snapshot("out", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.String(), fmt.Sprintf("{%d}", 3+(maxRegs+9)%7); got != want {
		t.Errorf("out(0) = %s, want %s", got, want)
	}
}
