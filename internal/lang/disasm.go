package lang

// Disassembly of kernel bodies for p2gc -disasm and the -check report.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/field"
)

// Listing is the bytecode of one kernel body.
type Listing struct {
	Kernel       string
	Instructions int // bytecode length
	// InnerLoop is the instruction count of the longest innermost loop (a
	// loop with no loop inside it), test and back-jump included; 0 when the
	// kernel has no loop. It is what one iteration of the hot loop costs on
	// its longest path, and the number the lowering's budget test pins.
	InnerLoop int
	Text      string // annotated listing
}

// Disassemble compiles kernel-language source and returns per-kernel bytecode
// listings. Compile errors are reported exactly as Compile reports them.
func Disassemble(name, src string) ([]Listing, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	_, bodies, err := compileFile(name, file)
	if err != nil {
		return nil, err
	}
	out := make([]Listing, len(bodies))
	for i, bp := range bodies {
		out[i] = Listing{
			Kernel:       bp.kernel,
			Instructions: len(bp.code),
			InnerLoop:    bp.innerLoop(),
			Text:         bp.disasm(&file.Kernels[i]),
		}
	}
	return out, nil
}

// target returns the instruction in jumps to, or -1 when it is not a jump.
func (in instr) target() int {
	if opTable[in.op].args[3] == xTarget {
		return int(in.d)
	}
	return -1
}

// loops returns the [head, tail] instruction range of every loop, one per
// backward jump (the inverted loops' bottom test).
func (p *bcProg) loops() [][2]int {
	var out [][2]int
	for pc, in := range p.code {
		if t := in.target(); t >= 0 && t <= pc {
			out = append(out, [2]int{t, pc})
		}
	}
	return out
}

// innerLoops returns the loops that have no loop inside them.
func (p *bcProg) innerLoops() [][2]int {
	loops := p.loops()
	var out [][2]int
	for _, l := range loops {
		inner := true
		for _, m := range loops {
			if m != l && l[0] <= m[0] && m[1] <= l[1] {
				inner = false
				break
			}
		}
		if inner {
			out = append(out, l)
		}
	}
	return out
}

// innerLoop is Listing.InnerLoop.
func (p *bcProg) innerLoop() int {
	longest := 0
	for _, l := range p.innerLoops() {
		longest = max(longest, l[1]-l[0]+1)
	}
	return longest
}

// disasm renders the program as an annotated listing for p2gc -disasm:
// header, prologue loads, instructions, epilogue write-backs. Constant
// registers and immediates print as their value (`#0`). When the body can run
// in lockstep the header says `lanes: yes` and from what slice length, a
// varying register (one value per lane) carries a star, a branch on one is
// marked divergent, and the instructions show the plan's registers (a value
// renameUniform gave a register of its own names one above the constants).
func (p *bcProg) disasm(kd *KernelDef) string {
	var b strings.Builder
	lanes := "no (" + p.laneWhy + ")"
	if p.lane != nil {
		lanes = fmt.Sprintf("yes (slices of %d or more)", p.lane.minLanes)
	}
	fmt.Fprintf(&b, "kernel %s: %d instructions, innermost loop %d, registers i=%d f=%d s=%d v=%d, constants i=%d f=%d s=%d, lanes: %s\n",
		p.kernel, len(p.code), p.innerLoop(), p.nI, p.nF, p.nS, p.nV, len(p.ints), len(p.floats), len(p.strs), lanes)

	star := func(cl regClass, r int32) string {
		if p.lane != nil && (cl == clI && p.lane.icol[r] >= 0 || cl == clF && p.lane.fcol[r] >= 0) {
			return "*"
		}
		return ""
	}
	reg := func(cl regClass, r int32) string {
		switch cl {
		case clI:
			if int(r) >= p.nI && int(r) < p.nI+len(p.ints) {
				return "#" + strconv.FormatInt(p.ints[int(r)-p.nI], 10)
			}
			return "i" + strconv.Itoa(int(r)) + star(cl, r)
		case clF:
			if int(r) >= p.nF && int(r) < p.nF+len(p.floats) {
				return "#" + strconv.FormatFloat(p.floats[int(r)-p.nF], 'g', -1, 64)
			}
			return "f" + strconv.Itoa(int(r)) + star(cl, r)
		case clS:
			if int(r) >= p.nS {
				return "#" + strconv.Quote(p.strs[int(r)-p.nS])
			}
			return "s" + strconv.Itoa(int(r))
		}
		return "v" + strconv.Itoa(int(r))
	}
	local := func(i int32) string { return kd.Locals[i].Name }

	for _, ld := range p.loads {
		var src string
		switch ld.from {
		case fromAge:
			src = "age " + kd.AgeVar
		case fromCoord:
			src = "index " + kd.Indexes[ld.idx]
		default:
			src = "local " + local(ld.idx)
		}
		fmt.Fprintf(&b, "      prologue   %s = %s\n", reg(ld.cl, ld.reg), src)
	}

	code := p.code
	if p.lane != nil {
		code = p.lane.ops
	}
	for pc, in := range code {
		info := &opTable[in.op]
		var ops [4]string // operands as text, by slot
		var shown []string
		for i, x := range [4]int32{int32(in.a), int32(in.b), int32(in.c), in.d} {
			switch info.args[i] {
			case xNone:
				continue
			case xI:
				ops[i] = reg(clI, x)
			case xF:
				ops[i] = reg(clF, x)
			case xS:
				ops[i] = reg(clS, x)
			case xV:
				ops[i] = reg(clV, x)
			case xImm:
				ops[i] = "#" + strconv.Itoa(int(x))
			case xTarget:
				ops[i] = "-> " + strconv.Itoa(int(x))
			case xLocal:
				ops[i] = local(x)
			case xKind:
				ops[i] = field.Kind(x).String()
			case xErr:
				ops[i] = "err" + strconv.Itoa(int(x))
			case xSite:
				ops[i] = strconv.Quote(p.sites[x].op)
			case xTimer:
				ops[i] = p.timerNames[x]
			case xBlock:
				ops[i] = "i" + strconv.Itoa(int(x)) + ".."
			case xCount:
				ops[i] = "x" + strconv.Itoa(int(x))
			}
			shown = append(shown, ops[i])
		}
		line := strings.TrimRight(fmt.Sprintf("%4d  %-10s %s", pc, info.name, strings.Join(shown, ", ")), " ")

		note := ""
		switch in.op {
		case opJzI, opJzF, opJzV:
			note = fmt.Sprintf("if !%s %s", ops[0], ops[3])
		case opJnzI, opJnzF, opJnzV:
			note = fmt.Sprintf("if %s %s", ops[0], ops[3])
		case opJeqI, opJeqF:
			note = fmt.Sprintf("if %s == %s %s", ops[0], ops[1], ops[3])
		case opJneI, opJneF:
			note = fmt.Sprintf("if %s != %s %s", ops[0], ops[1], ops[3])
		case opJltI, opJltF:
			note = fmt.Sprintf("if %s < %s %s", ops[0], ops[1], ops[3])
		case opJleI, opJleF:
			note = fmt.Sprintf("if %s <= %s %s", ops[0], ops[1], ops[3])
		case opErr:
			note = fmt.Sprintf("error: %v", p.errs[in.d])
		case opDivI, opModI, opDivF, opSqrtF:
			note = fmt.Sprintf("on error: %v", p.errs[in.d])
		case opBind:
			note = fmt.Sprintf("local %s is assigned", ops[0])
		case opGetF1, opGetI1:
			note = fmt.Sprintf("%s[%s]", ops[1], ops[2])
		case opGetF2, opGetI2:
			note = fmt.Sprintf("%s[%s][%s]", ops[1], ops[2], ops[3])
		case opPutF1, opPutI1:
			note = fmt.Sprintf("%s[%s] = %s", ops[0], ops[2], ops[1])
		case opPutF2, opPutI2:
			note = fmt.Sprintf("%s[%s][%s] = %s", ops[0], ops[2], ops[3], ops[1])
		}
		if p.lane != nil && p.lane.divergent[pc] {
			note += "; divergent"
			if s := p.lane.byIndex[pc]; s >= 0 {
				note += ", by index " + kd.Indexes[p.lane.spans[s].idx]
			}
		}
		if note != "" {
			line = fmt.Sprintf("%-44s ; %s", line, note)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}

	for _, st := range p.stores {
		fmt.Fprintf(&b, "      epilogue   local %s = %s (%s) if assigned\n", local(st.li), reg(st.cl, st.reg), st.kind)
	}
	return b.String()
}
