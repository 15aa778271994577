package lang

// Lockstep execution of a slice. The instances of a slice run the same body
// on independent data, so a compiled kernel has a second entry point
// (core.KernelDecl.SliceBody) that walks bcProg.code once for all of them:
// an instruction is fetched and decoded once and applied to a column of
// lanes, one lane per instance.
//
// The plan (planLanes, after lowering) classifies every register. A uniform
// register holds the same value in every lane — constants, the age, anything
// computed from uniform operands while all lanes run together — and stays in
// the scalar register file, where the scalar loop (exec) executes the
// instructions that write it, once per slice. A varying register — an index
// coordinate, a fetched scalar, anything derived from one or written while
// only some lanes run — gets a column, and the driver below executes its
// instructions over the active lanes.
//
// Control flow. A branch on uniform operands moves all lanes together. A
// branch on varying operands may split them: one loop over the running lanes
// compares their operands, in place, and lists the lanes bound for the lower
// pc, which go on; the others are parked at the higher pc. Whenever the
// running lanes reach or pass the lowest parked pc the lanes with the lowest
// pc run next (min-pc reconvergence). Lanes parked by a split of all lanes
// are listed nowhere: they are the implicit group, every lane neither running
// nor in a listed group, and rejoin by making all lanes run again. Because a
// loop's exit lies above its body and both arms of an if lie below its end,
// that is enough for if/else, the jump chains of && and ||, break and
// continue. The pcs at which some lanes may be parked are the plan's partial
// set; everything there is the driver's, and every register written there is
// varying.
//
// A jeqi or jnei of a uniform value u and an index coordinate no instruction
// writes is decided by index: at most one lane's coordinate is u, and when
// the coordinates of the slice are contiguous (base + lane) it is lane
// u - base. With all lanes running, exec takes the branch for all of them
// unless that lane exists, and the driver then splits off just that lane.
//
// A body is lane-eligible when it consists of exec's call-free instructions
// plus extent, bind and ret, keeps no string or boxed value — every scalar
// local is a typed number, a column of the slice's context (core.Ctx.Lanes)
// — and has no array local but those every lane shares (whole fetches): the
// lanes of a context share one Array per local, so a slab per instance rules
// lanes out even when the body only passes it on to a store. The prologue
// copies the loaded columns into the lanes' and the epilogue copies the
// assigned registers back, with their bound flags. Such a body has no effect before
// its epilogue, so when any lane faults — division by zero, negative sqrt, a
// get out of range — the attempt is abandoned with nothing written and the
// caller runs the slice through body() instance by instance: errors, panics
// and what a failing instance leaves behind are the scalar VM's by
// construction.

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// laneProg is the static lockstep plan of one lane-eligible body.
type laneProg struct {
	// ops is bcProg.code with the plan's registers: a value renameUniform
	// moved off a varying register reads and writes its own, numbered above
	// the class's constants (the scalar frame has room for every register).
	// bcProg.code, which the scalar body runs, stays as the lowering left it.
	ops []instr
	// code is ops with opLane in place of every instruction the driver
	// executes: those that write a varying register, branches on one, and
	// everything at a partial pc.
	code []instr
	// solo is ops with opLane at every pc that is not partial: what one lane
	// runs on its own, in the scalar loop, until it is back where all lanes
	// can be together (laneVM.solo).
	solo []instr
	// icol and fcol give a varying register's column, -1 for a uniform one;
	// iregs and fregs are the inverse, the register of each column.
	icol, fcol   [maxRegs]int16
	iregs, fregs []uint8
	// bindCol gives the column of per-lane bound flags of a local some opBind
	// at a partial pc marks, else -1 (the scalar frame's flag serves);
	// bindLocals is the inverse.
	bindCol    []int16
	bindLocals []uint8
	arrays     []uint8 // the array locals the body reads
	// Per pc: the instruction is a branch on a varying register (the listing
	// marks it); it reads a varying register.
	divergent []bool
	varies    []bool
	// byIndex gives per pc the span slot of a branch decided by index (see
	// the head of the file), else -1; spans are the coordinate loads, by
	// slot. Where such a branch is not partial, code holds opLaneIdx.
	byIndex []int8
	spans   []bcLoad
	// minLanes is the shortest slice worth running in lockstep
	// (laneBreakEven); it becomes core.KernelDecl.SliceMin.
	minLanes int
	// renamed counts the values renameUniform gave a register of their own;
	// nextI and nextF are the registers it gives the next ones.
	renamed      int
	nextI, nextF int

	frames sync.Pool
	// desynced is set when the driver finds lanes parked where the plan says
	// none can be. The slice then runs on the scalar VM and nothing is lost,
	// but it means planLanes is wrong; the differential tests fail on it.
	desynced atomic.Bool
}

// laneRejectOp names what makes an instruction unfit for lanes, "" if it fits.
func laneRejectOp(op opcode) string {
	switch op {
	case opRet, opJmp, opErr, opBind, opExtent,
		opJzI, opJnzI, opJzF, opJnzF,
		opJeqI, opJneI, opJltI, opJleI, opJeqF, opJneF, opJltF, opJleF,
		opMovI, opMovF, opI2F, opF2I, opTrunc32, opTruncU8, opBoolI, opBoolF, opNotI, opNotF,
		opAddI, opAddKI, opSubI, opMulI, opDivI, opModI, opNegI,
		opAddF, opSubF, opMulF, opDivF, opNegF,
		opEqI, opNeI, opLtI, opLeI, opEqF, opNeF, opLtF, opLeF,
		opSqrtF, opAbsI, opAbsF, opMinI, opMaxI,
		opGetF1, opGetF2, opGetI1, opGetI2:
		return ""
	case opStop:
		return "stop"
	case opPutF1, opPutF2, opPutI1, opPutI2, opPutV:
		return "put"
	case opNow, opExpired, opResetTimer:
		return "timer"
	case opFloorF, opCosF, opSinF, opPowF, opMinF, opMaxF:
		return "math call " + opTable[op].name
	}
	if op >= opCoutClear && op <= opCoutFlush {
		return "cout"
	}
	return "string or any value"
}

// laneWrites reports whether a lane-eligible instruction writes register a.
func laneWrites(op opcode) bool {
	return op >= opMovI && op <= opMaxF || op >= opGetF1 && op <= opGetI2 || op == opExtent
}

func laneBranch(op opcode) bool { return op >= opJzI && op <= opJleF }

// laneVaries reports whether an instruction reads a varying register.
func laneVaries(in instr, varI, varF *[maxRegs]bool) bool {
	x := [4]uint8{in.a, in.b, in.c, uint8(in.d)}
	for i, role := range opTable[in.op].args {
		if i == 0 && laneWrites(in.op) || role != xI && role != xF {
			continue
		}
		if role == xI && varI[x[i]] || role == xF && varF[x[i]] {
			return true
		}
	}
	return false
}

// planLanes decides whether the lowered body can run in lockstep and, if so,
// builds its plan.
func (p *bcProg) planLanes(k *KernelDef) {
	// A scalar local is a column of numbers in a slice's context, read and
	// written typed.
	for li, l := range k.Locals {
		if l.Rank == 0 && p.arrCl[li] != clI && p.arrCl[li] != clF {
			p.laneWhy = "string or any value"
			return
		}
	}
	lp := &laneProg{}
	seen := make([]bool, len(p.arrCl))
	// shared reports whether array local li is the same typed array in every
	// lane, which a whole fetch makes it, and records the reason when not.
	shared := func(li int) bool {
		whole := false
		for _, f := range k.Fetches {
			whole = whole || f.Local == k.Locals[li].Name && f.Ref.Whole
		}
		if !whole || p.arrCl[li] == clV {
			p.laneWhy = "array " + k.Locals[li].Name + " is not a typed whole fetch"
			return false
		}
		return true
	}
	for _, in := range p.code {
		if why := laneRejectOp(in.op); why != "" {
			p.laneWhy = why
			return
		}
		if in.op >= opGetF1 && in.op <= opGetI2 || in.op == opExtent {
			if li := in.b; !seen[li] {
				seen[li] = true
				lp.arrays = append(lp.arrays, li)
				if !shared(int(li)) {
					return
				}
			}
		}
	}
	// An array local the body never touches is still per lane when a slab
	// fetch fills it (a pass-through to a store): all lanes of a context share
	// the one Array of a local.
	for li := range k.Locals {
		if k.Locals[li].Rank > 0 && !seen[li] && !shared(li) {
			return
		}
	}

	n := len(p.code)
	var varI, varF [maxRegs]bool
	partial := make([]bool, n) // per pc: some lanes may be parked while it executes
	lp.divergent = make([]bool, n)
	lp.varies = make([]bool, n)
	lp.ops = append([]instr(nil), p.code...)
	lp.nextI, lp.nextF = p.nI+len(p.ints), p.nF+len(p.floats)
	for {
		p.laneFlow(lp, partial, &varI, &varF)
		if !lp.renameUniform(partial, &varI, &varF) {
			break
		}
	}

	for r := range lp.icol {
		lp.icol[r], lp.fcol[r] = -1, -1
		if varI[r] {
			lp.icol[r] = int16(len(lp.iregs))
			lp.iregs = append(lp.iregs, uint8(r))
		}
		if varF[r] {
			lp.fcol[r] = int16(len(lp.fregs))
			lp.fregs = append(lp.fregs, uint8(r))
		}
	}
	lp.bindCol = make([]int16, len(p.arrCl))
	for li := range lp.bindCol {
		lp.bindCol[li] = -1
	}
	lp.code = append([]instr(nil), lp.ops...)
	lp.solo = append([]instr(nil), lp.ops...)
	for pc, in := range lp.ops {
		if !partial[pc] {
			lp.solo[pc].op = opLane
		}
		mine := partial[pc] || lp.divergent[pc]
		if laneWrites(in.op) {
			col := lp.icol[in.a]
			if opTable[in.op].args[0] == xF {
				col = lp.fcol[in.a]
			}
			mine = mine || col >= 0
		}
		if mine {
			lp.code[pc].op = opLane
			if in.op == opBind && lp.bindCol[in.a] < 0 {
				lp.bindCol[in.a] = int16(len(lp.bindLocals))
				lp.bindLocals = append(lp.bindLocals, in.a)
			}
		}
	}

	var written [maxRegs]bool // int registers some instruction writes
	for _, in := range lp.ops {
		written[in.a] = written[in.a] || laneWrites(in.op) && opTable[in.op].args[0] == xI
	}
	lp.byIndex = make([]int8, n)
	for pc, in := range lp.ops {
		lp.byIndex[pc] = -1
		u, r := in.a, in.b
		if varI[u] {
			u, r = r, u
		}
		i := slices.IndexFunc(p.loads, func(ld bcLoad) bool { return ld.from == fromCoord && ld.reg == int32(r) })
		if !lp.divergent[pc] || in.op != opJeqI && in.op != opJneI || varI[u] || written[r] || i < 0 {
			continue
		}
		s := slices.Index(lp.spans, p.loads[i])
		if s < 0 {
			s, lp.spans = len(lp.spans), append(lp.spans, p.loads[i])
		}
		if lp.byIndex[pc] = int8(s); !partial[pc] {
			lp.code[pc] = instr{op: opLaneIdx, a: u, b: uint8(b2i(in.op == opJneI)), c: uint8(s), d: in.d}
		}
	}
	lp.minLanes = p.laneBreakEven(lp.code, partial)
	lp.frames.New = func() any { return &laneFrame{} }
	p.lane = lp
}

// laneFlow is the data-flow pass, to a fixed point: a register is varying
// when some instruction writes it from a varying operand or at a partial pc;
// the pcs between a branch or jump and its target are partial when it reads a
// varying register or is itself at a partial pc. That covers every pc at
// which lanes can be parked. The lanes with the lowest pc always run, so with
// lanes parked as far up as D the running ones are below D, and the claim is
// that every pc from theirs to D is marked: a split at j puts its sides at
// j+1 and at the target and marks what lies between; a jump from a marked j
// to x beyond D parks the jumpers there, and [j+1, x) is marked; one back to
// x < j marks [x, j]; stepping to the next instruction shrinks the range.
func (p *bcProg) laneFlow(lp *laneProg, partial []bool, varI, varF *[maxRegs]bool) {
	*varI, *varF = [maxRegs]bool{}, [maxRegs]bool{}
	clear(partial)
	for _, ld := range p.loads {
		if ld.from != fromAge {
			if ld.cl == clI {
				varI[ld.reg] = true
			} else {
				varF[ld.reg] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for pc, in := range lp.ops {
			lp.varies[pc] = laneVaries(in, varI, varF)
			vary := lp.varies[pc]
			switch {
			case laneBranch(in.op) || in.op == opJmp:
				lp.divergent[pc] = vary
				if !vary && !partial[pc] {
					break
				}
				lo, hi := min(pc+1, int(in.d)), max(pc+1, int(in.d))
				for q := lo; q < hi; q++ {
					if !partial[q] {
						partial[q], changed = true, true
					}
				}
			case laneWrites(in.op) && (vary || partial[pc]):
				v := varI
				if opTable[in.op].args[0] == xF {
					v = varF
				}
				if !v[in.a] {
					v[in.a], changed = true, true
				}
			}
		}
	}
}

// renameUniform gives its own register to every value that is uniform but
// shares a varying register: one written outside the partial pcs from
// uniform operands into a register that a later instruction of the same
// basic block writes again. Every read of the value then lies between the
// two writes, so renaming the first write and those reads changes nothing a
// lane computes; the register it shared is varying only for its other
// values, and the renamed one stays in exec instead of being broadcast into
// every lane (assign's cents[c][#0], which the lowering computes into the
// temporary that later holds a distance). Nothing else is renamed: a new
// register that only moves a varying value adds a column. It renames in ops
// alone, so a scalar body that fails between the two writes still leaves a
// local's register as the program assigned it, and it reports whether it
// renamed any.
func (lp *laneProg) renameUniform(partial []bool, varI, varF *[maxRegs]bool) bool {
	code := lp.ops
	target := make([]bool, len(code)+1)
	for _, in := range code {
		if laneBranch(in.op) || in.op == opJmp {
			target[in.d] = true
		}
	}
	ends := func(op opcode) bool { return laneBranch(op) || op == opJmp || op == opRet || op == opErr }
	renamed := false
	for d, in := range code {
		cl := opTable[in.op].args[0]
		if !laneWrites(in.op) || partial[d] || lp.varies[d] || cl == xI && !varI[in.a] || cl == xF && !varF[in.a] {
			continue
		}
		e := -1 // the next write of the register, if the block has one
		for q := d + 1; q < len(code) && !target[q] && !ends(code[q-1].op); q++ {
			if x := code[q]; laneWrites(x.op) && opTable[x.op].args[0] == cl && x.a == in.a {
				e = q
				break
			}
		}
		next := &lp.nextI
		if cl == xF {
			next = &lp.nextF
		}
		if e < 0 || *next >= maxRegs {
			continue
		}
		r, nr := int32(in.a), int32(*next)
		*next++
		code[d].a = uint8(nr)
		rename := func(x int32) int32 {
			if x == r {
				return nr
			}
			return x
		}
		for q := d + 1; q <= e; q++ {
			mapRegs(&code[q], cl, rename)
		}
		lp.renamed++
		renamed = true
	}
	return renamed
}

// mapRegs replaces each register operand of class cl that x reads by f of
// it.
func mapRegs(x *instr, cl operand, f func(int32) int32) {
	ops := [4]int32{int32(x.a), int32(x.b), int32(x.c), x.d}
	for i, role := range opTable[x.op].args {
		if role == cl && !(i == 0 && laneWrites(x.op)) {
			ops[i] = f(ops[i])
		}
	}
	x.a, x.b, x.c, x.d = uint8(ops[0]), uint8(ops[1]), uint8(ops[2]), ops[3]
}

// laneBreakEven estimates the shortest slice that lockstep runs faster than
// the scalar loop runs its instances one by one. An instruction costs the
// scalar loop ≈1.6 ns per instance; in lockstep a uniform one costs that once
// per slice and one of the driver's ≈13 ns per slice plus ≈1 ns per lane
// (EXPERIMENTS.md E8b, per body; the 13 fitted to assign's break-even in
// E26). With v the driver's share of the hot instructions every lane
// executes — those of the innermost loops, or of the whole body when it has
// none, that are not at a partial pc — n lanes break even when
// v(13 + n) + 1.6(1 - v) = 1.6n: 1 lane when the loop's only varying
// instruction is a compare decided by index (K-means refine), 9 for a loop
// of float arithmetic on per-lane values whose reads of a shared array stay
// uniform (assign; measured through execSlice: even at 8 and 9 lanes, 20.7
// against 20.1 and 22.6 against 22.9 µs), 22 when everything varies.
//
// Leaving out the partial pcs assumes that few lanes enter the body of a
// divergent if, which is what the running minimum of assign and the
// membership test of refine do; a body that sends half its lanes each way
// breaks even later than this says. The model leaves out as well what a run
// costs before its first instruction (the frames, the arrays resolved, the
// loaded columns copied), so the answer is never below 2: at one lane,
// lockstep refine takes 23.5 µs through execSlice against 21.5 µs for the
// scalar body, at two 25 against 46 µs (E26). code is the plan's.
func (p *bcProg) laneBreakEven(code []instr, partial []bool) int {
	hot := p.innerLoops()
	if len(hot) == 0 {
		hot = [][2]int{{0, len(code) - 1}}
	}
	total, driver := 0, 0
	for _, l := range hot {
		for pc := l[0]; pc <= l[1]; pc++ {
			if partial[pc] {
				continue
			}
			total++
			if code[pc].op == opLane {
				driver++
			}
		}
	}
	if total == 0 {
		total, driver = 1, 1 // a loop on a per-lane bound: all of it is partial
	}
	// ceil((11.4v + 1.6) / (1.6 - v)) with v = driver/total, in tenths.
	num, den := 114*driver+16*total, 16*total-10*driver
	return max(2, (num+den-1)/den)
}

// laneGroup is a set of lanes parked at a pc.
type laneGroup struct {
	pc    int
	lanes []int32
}

// noPark is laneFrame.nextPark when no lane is parked.
const noPark = math.MaxInt

// laneFrame holds the columns and the control state of one lockstep run. It
// is pooled per bcProg and grows to the longest slice it has served.
type laneFrame struct {
	cap int // lanes per column
	n   int // lanes in this run
	ic  []int64
	fc  []float64
	bc  []bool
	// Scratch columns: slots 0 and 1 take gathered or broadcast operands,
	// slot 2 a result on its way to being scattered.
	si [3][]int64
	sf [3][]float64
	// castI and castF remember the value an operand slot is filled with, and
	// how far, since srcI/srcF last broadcast a uniform register into it: a
	// loop combining a column with a constant fills the slot once (`v * 2` in
	// BenchmarkLangMulSum's calc1: 8 % of its lanes time, EXPERIMENTS.md E17).
	castI, castF [2]laneCast
	saved        []bool  // solo's copy of the scalar frame's bound flags
	split        []int32 // where branch lists the lanes bound for the lower pc, if not nil
	held         []bool  // reconverge's scratch: the lanes in some group

	// all says every lane is running; otherwise act lists the running lanes
	// (in no particular order: lanes are independent) and groups the parked
	// ones, at most one group per pc. The lanes in neither, if any, are the
	// implicit group, parked at imp (else noPark); nextPark is the lowest pc
	// at which lanes are parked.
	all      bool
	act      []int32
	groups   []laneGroup
	imp      int
	nextPark int
	free     [][]int32 // spare lane lists
}

func (lf *laneFrame) size(lp *laneProg, n int) {
	lf.n = n
	if n <= lf.cap {
		return
	}
	c := max(n, 2*lf.cap, 64)
	lf.cap = c
	ni, nf := len(lp.iregs), len(lp.fregs)
	ints := make([]int64, (ni+3)*c)
	floats := make([]float64, (nf+3)*c)
	lf.ic, ints = ints[:ni*c], ints[ni*c:]
	lf.fc, floats = floats[:nf*c], floats[nf*c:]
	for k := range lf.si {
		lf.si[k], lf.sf[k] = ints[k*c:(k+1)*c], floats[k*c:(k+1)*c]
	}
	lf.bc = make([]bool, len(lp.bindLocals)*c)
	lf.saved = make([]bool, len(lp.bindLocals))
	lf.split, lf.free = nil, lf.free[:0]
	lf.castI, lf.castF = [2]laneCast{}, [2]laneCast{}
}

func (lf *laneFrame) icolumn(col int16) []int64 {
	return lf.ic[int(col)*lf.cap:][:lf.n]
}

func (lf *laneFrame) fcolumn(col int16) []float64 {
	return lf.fc[int(col)*lf.cap:][:lf.n]
}

func (lf *laneFrame) list() []int32 {
	if k := len(lf.free); k > 0 {
		l := lf.free[k-1]
		lf.free = lf.free[:k-1]
		return l[:0]
	}
	return make([]int32, 0, lf.cap)
}

// park leaves lanes waiting at pc.
func (lf *laneFrame) park(pc int, lanes []int32) {
	lf.nextPark = min(lf.nextPark, pc)
	for i := range lf.groups {
		if g := &lf.groups[i]; g.pc == pc {
			g.lanes = append(g.lanes, lanes...)
			lf.free = append(lf.free, lanes)
			return
		}
	}
	lf.groups = append(lf.groups, laneGroup{pc: pc, lanes: lanes})
}

// diverge makes run the running set and parks the other lanes at pc: listed
// in rest, or, when all lanes ran, as the implicit group.
func (lf *laneFrame) diverge(run, rest []int32, pc int) {
	if lf.all {
		lf.all, lf.imp, lf.nextPark = false, pc, min(lf.nextPark, pc)
	} else {
		lf.free = append(lf.free, lf.act)
		lf.park(pc, rest)
	}
	lf.act = run
}

// reconverge is called when the running lanes have reached or passed the
// lowest parked pc: the lanes with the lowest pc run next. It returns that pc.
// The implicit group rejoins by setting all again, unless lanes are parked
// in groups at that moment; only then is it listed, as their complement.
func (lf *laneFrame) reconverge(pc int) int {
	if pc > lf.nextPark {
		lf.park(pc, lf.act)
		lf.act, pc = lf.list(), lf.nextPark
	}
	lf.nextPark = noPark
	for i := 0; i < len(lf.groups); {
		g := lf.groups[i]
		if g.pc != pc {
			lf.nextPark = min(lf.nextPark, g.pc)
			i++
			continue
		}
		lf.act = append(lf.act, g.lanes...)
		lf.free = append(lf.free, g.lanes)
		last := len(lf.groups) - 1
		lf.groups[i] = lf.groups[last]
		lf.groups = lf.groups[:last]
	}
	switch {
	case lf.imp != pc:
		lf.nextPark = min(lf.nextPark, lf.imp)
	case len(lf.groups) == 0:
		lf.imp, lf.all = noPark, true
	default: // the implicit group and the running lanes: all lanes in no group
		lf.imp, lf.act = noPark, lf.act[:0]
		lf.held = append(lf.held[:0], make([]bool, lf.n)...)
		for _, g := range lf.groups {
			for _, l := range g.lanes {
				lf.held[l] = true
			}
		}
		for l, h := range lf.held {
			if !h {
				lf.act = append(lf.act, int32(l))
			}
		}
	}
	if lf.all = lf.all || len(lf.act) == lf.n; lf.all {
		lf.free = append(lf.free, lf.act)
		lf.act = nil
	}
	return pc
}

// laneVM is the state of one lockstep run.
type laneVM struct {
	p  *bcProg
	lp *laneProg
	fr *bcFrame
	lf *laneFrame
}

// laneSolo is the largest group of lanes that leaves the lockstep at a split
// and runs one lane at a time (laneVM.solo): the driver's cost per
// instruction does not depend on how few lanes it serves, the scalar loop's
// cost per lane does not depend on the driver. Parking handles every split
// without it; it is here for what it measures (EXPERIMENTS.md E23): K-means
// refine, whose loop splits off one lane whenever a point belongs to a
// cluster of the slice, runs a 12-lane slice in 97 µs with laneSolo 0
// against 56 µs with 2 (BenchmarkKMeansSliceBody/refine, medians of 8
// alternating runs on the 2-vCPU build host).
const laneSolo = 2

// laneCmp is the comparison a branch makes of its operands b and c, as exec
// makes it. Bit 0 negates it; the rest selects == (cmpEq), equality in the
// total order in which NaN equals everything (cmpSame), < (cmpLt) or >
// (cmpGt). So cmpGe is that order's >=, !(b < c), and cmpLe its <=.
type laneCmp uint8

const (
	cmpEq laneCmp = iota
	cmpNe
	cmpSame
	cmpApart
	cmpLt
	cmpGe
	cmpGt
	cmpLe
)

// laneCmps gives each branch opcode's comparison, from opJzI (not jzv, jnzv).
var laneCmps = [...]laneCmp{cmpEq, cmpNe, cmpEq, cmpNe, cmpEq, cmpNe, cmpEq, cmpNe, cmpLt, cmpLe, cmpSame, cmpApart, cmpLt, cmpLe}

// laneHolds is b cmp c for a comparison without its negation bit.
func laneHolds[T int64 | float64](cmp laneCmp, b, c T) int64 {
	switch cmp {
	case cmpEq:
		return b2i(b == c)
	case cmpSame:
		return b2i(!(b < c) && !(b > c))
	case cmpLt:
		return b2i(b < c)
	}
	return b2i(b > c)
}

// laneZeroI and laneZeroF are the second operand of jz and jnz.
var laneZeroI, laneZeroF = [1]int64{}, [1]float64{}

// branch runs the conditional branch in, whose fall-through pc is next: one
// loop (laneSplit) lists the lanes bound for the lower pc. When they split,
// those go on — alone when they are few, and back with the others at once if
// that brings them to the higher pc, as the body of a rarely taken if does —
// and the rest wait there (laneFrame.diverge). It returns the pc to continue
// at, and false when a lane on its own faulted.
func (vm *laneVM) branch(ctx *core.Ctx, in instr, next int) (int, bool) {
	lf, cmp, low, high := vm.lf, laneCmps[in.op-opJzI], int(in.d), next
	if low > high { // the lanes that do not jump take the lower pc
		low, high, cmp = high, low, cmp^1
	}
	if lf.split == nil {
		lf.split = lf.list()
	}
	run, rest := lf.split, []int32(nil)
	if !lf.all {
		rest = lf.list()
	}
	var k, total int
	if s := vm.lp.byIndex[next-1]; s >= 0 && lf.all && vm.fr.span[s].last != math.MaxUint64 {
		run, total = vm.indexSplit(in, cmp, vm.fr.span[s], run), lf.n
	} else if two := opTable[in.op].args[1] != xNone; opTable[in.op].args[0] == xF {
		c := laneZeroF[:]
		if two {
			c = vm.operandF(in.b)
		}
		run, rest, total = laneSplit(lf, cmp, vm.operandF(in.a), c, run, rest)
	} else {
		c := laneZeroI[:]
		if two {
			c = vm.operandI(in.b)
		}
		run, rest, total = laneSplit(lf, cmp, vm.operandI(in.a), c, run, rest)
	}
	if k = len(run); k == 0 || k == total || low == high {
		if rest != nil {
			lf.free = append(lf.free, rest)
		}
		if k == 0 {
			return high, true
		}
		return low, true
	} else if k > laneSolo {
		lf.split = nil
		lf.diverge(run, rest, high)
		return low, true
	}
	back := run[:0] // the lanes solo brings to high
	for _, l := range run {
		end, ok := vm.solo(ctx, l, low)
		switch {
		case !ok:
			return 0, false
		case end == high:
			back = append(back, l)
		default:
			lf.park(end, append(lf.list(), l))
		}
	}
	switch {
	case lf.all && len(back) < k:
		lf.split = nil
		lf.diverge(back, nil, high)
	case !lf.all:
		lf.free = append(lf.free, lf.act)
		lf.act = append(rest, back...)
	}
	return high, true
}

// laneSpan is a span slot's index column in one run: lane l's coordinate is
// base + l for every l <= last, or last is MaxUint64 when it is not.
type laneSpan struct {
	base int64
	last uint64
}

// indexSplit is laneSplit for a branch decided by index with all lanes
// running over the contiguous column s: the lanes bound for the lower pc are
// the one whose coordinate is the uniform operand, if any, or all the others.
func (vm *laneVM) indexSplit(in instr, cmp laneCmp, s laneSpan, low []int32) []int32 {
	u := in.a
	if vm.lp.icol[u] >= 0 {
		u = in.b
	}
	d, low := uint64(vm.fr.i[u]-s.base), low[:0]
	if cmp == cmpEq {
		if d <= s.last {
			low = append(low, int32(d))
		}
		return low
	}
	for l := range vm.lf.n {
		if uint64(l) != d {
			low = append(low, int32(l))
		}
	}
	return low
}

// operandI returns int register r: its column, or the scalar register itself
// when it is uniform.
func (vm *laneVM) operandI(r uint8) []int64 {
	if col := vm.lp.icol[r]; col >= 0 {
		return vm.lf.icolumn(col)
	}
	return vm.fr.i[r : r+1]
}

func (vm *laneVM) operandF(r uint8) []float64 {
	if col := vm.lp.fcol[r]; col >= 0 {
		return vm.lf.fcolumn(col)
	}
	return vm.fr.f[r : r+1]
}

// laneSplit lists in low the running lanes for which b cmp c holds and, when
// not all run, the others in rest; it returns how many lanes it decided for.
// An operand is a column or one uniform value; two of those decide for all.
func laneSplit[T int64 | float64](lf *laneFrame, cmp laneCmp, b, c []T, low, rest []int32) ([]int32, []int32, int) {
	if len(b) < len(c) { // make b the column, if either is
		b, c = c, b
		if cmp >= cmpLt {
			cmp ^= 2
		}
	}
	neg := int64(cmp & 1)
	if !lf.all && len(b) > 1 {
		k, j, low, rest := 0, 0, low[:len(lf.act)], rest[:len(lf.act)]
		for _, l := range lf.act {
			h := int(laneHolds(cmp&^1, b[l], c[min(int(l), len(c)-1)]) ^ neg)
			low[k], rest[j] = l, l
			k, j = k+h, j+1-h
		}
		return low[:k], rest[:j], len(lf.act)
	}
	k := 0
	low = low[:len(b)]
	if y := c[0]; len(c) == 1 {
		switch cmp &^ 1 {
		case cmpEq:
			for l, x := range b {
				low[k] = int32(l)
				k += int(laneHolds(cmpEq, x, y) ^ neg)
			}
		case cmpSame:
			for l, x := range b {
				low[k] = int32(l)
				k += int(laneHolds(cmpSame, x, y) ^ neg)
			}
		case cmpLt:
			for l, x := range b {
				low[k] = int32(l)
				k += int(laneHolds(cmpLt, x, y) ^ neg)
			}
		case cmpGt:
			for l, x := range b {
				low[k] = int32(l)
				k += int(laneHolds(cmpGt, x, y) ^ neg)
			}
		}
		return low[:k], rest, len(b)
	}
	c = c[:len(b)]
	switch cmp &^ 1 {
	case cmpEq:
		for l, x := range b {
			low[k] = int32(l)
			k += int(laneHolds(cmpEq, x, c[l]) ^ neg)
		}
	case cmpSame:
		for l, x := range b {
			low[k] = int32(l)
			k += int(laneHolds(cmpSame, x, c[l]) ^ neg)
		}
	case cmpLt:
		for l, x := range b {
			low[k] = int32(l)
			k += int(laneHolds(cmpLt, x, c[l]) ^ neg)
		}
	case cmpGt:
		for l, x := range b {
			low[k] = int32(l)
			k += int(laneHolds(cmpGt, x, c[l]) ^ neg)
		}
	}
	return low[:k], rest, len(b)
}

// solo runs lane l alone from pc, which is partial, through the scalar loop
// until it reaches a pc that is not, and returns that pc: the lane's
// registers move into the scalar frame and back, where nothing else reads
// them (a register is varying or uniform, never both, and every write at a
// partial pc is to a varying one), and so do the bound flags it sets.
func (vm *laneVM) solo(ctx *core.Ctx, l int32, pc int) (int, bool) {
	lp, fr, lf := vm.lp, vm.fr, vm.lf
	for col, r := range lp.iregs {
		fr.i[r] = lf.ic[col*lf.cap+int(l)]
	}
	for col, r := range lp.fregs {
		fr.f[r] = lf.fc[col*lf.cap+int(l)]
	}
	for col, li := range lp.bindLocals {
		lf.saved[col], fr.assigned[li] = fr.assigned[li], false
	}
	pc, err := vm.p.exec(ctx, fr, lp.solo, pc)
	for col, r := range lp.iregs {
		lf.ic[col*lf.cap+int(l)] = fr.i[r]
	}
	for col, r := range lp.fregs {
		lf.fc[col*lf.cap+int(l)] = fr.f[r]
	}
	for col, li := range lp.bindLocals {
		if fr.assigned[li] {
			lf.bc[col*lf.cap+int(l)] = true
		}
		fr.assigned[li] = lf.saved[col]
	}
	return pc, err == nil
}

// srcI returns int register r of the running lanes as w values in scratch
// slot k or, when all lanes run, the register's column itself. w is 1 when
// every operand of the instruction is uniform, else the number of running
// lanes. With one set, a uniform register stays one value: the operand of
// an instruction with a scalar form (laneArith).
func (vm *laneVM) srcI(r uint8, k, w int, one bool) []int64 {
	b := vm.operandI(r)
	if one && len(b) == 1 {
		return b
	}
	return laneGather(vm.lf, b, vm.lf.si[k][:w], &vm.lf.castI[k], uint64(b[0]))
}

func (vm *laneVM) srcF(r uint8, k, w int, one bool) []float64 {
	b := vm.operandF(r)
	if one && len(b) == 1 {
		return b
	}
	return laneGather(vm.lf, b, vm.lf.sf[k][:w], &vm.lf.castF[k], math.Float64bits(b[0]))
}

// laneArith is the arithmetic of an instruction the driver computes with
// one operand a single uniform value, unbroadcast (laneScalarOp), and 0 for
// any other.
func laneArith(op opcode) byte {
	switch op {
	case opAddI, opAddF:
		return '+'
	case opSubI, opSubF:
		return '-'
	case opMulI, opMulF:
		return '*'
	case opDivF:
		return '/'
	}
	return 0
}

// laneCast is what an operand slot was last filled with: w copies of bits.
type laneCast struct {
	bits uint64
	w    int
}

// laneGather fills s from b, one value per lane or a uniform one whose bits
// are bits, unless cast says s holds it already, or returns b itself.
func laneGather[T int64 | float64](lf *laneFrame, b, s []T, cast *laneCast, bits uint64) []T {
	switch {
	case len(b) == 1: // uniform, or the column of a run of one lane
		if cast.w < len(s) || cast.bits != bits {
			for i := range s {
				s[i] = b[0]
			}
			*cast = laneCast{bits, len(s)}
		}
		return s
	case lf.all:
		return b
	}
	cast.w = 0
	for i, l := range lf.act {
		s[i] = b[l]
	}
	return s
}

// srcII returns the one or two int operands of an instruction (c is b when
// there is one), a uniform one as a single value if it has a scalar form.
func (vm *laneVM) srcII(in instr, w int) (b, c []int64) {
	one := laneArith(in.op) != 0
	b = vm.srcI(in.b, 0, w, one)
	if c = b; opTable[in.op].args[2] == xI {
		c = vm.srcI(in.c, 1, w, one)
	}
	return b, c
}

func (vm *laneVM) srcFF(in instr, w int) (b, c []float64) {
	one := laneArith(in.op) != 0
	b = vm.srcF(in.b, 0, w, one)
	if c = b; opTable[in.op].args[2] == xF {
		c = vm.srcF(in.c, 1, w, one)
	}
	return b, c
}

// dstI returns where an instruction computes the w values of int register r:
// the register's column when that is one value per lane with all lanes
// running, else scratch, which putI then distributes.
func (vm *laneVM) dstI(r uint8, w int) []int64 {
	if lf := vm.lf; lf.all && w == lf.n {
		return lf.icolumn(vm.lp.icol[r])
	}
	return vm.lf.si[2][:w]
}

func (vm *laneVM) dstF(r uint8, w int) []float64 {
	if lf := vm.lf; lf.all && w == lf.n {
		return lf.fcolumn(vm.lp.fcol[r])
	}
	return vm.lf.sf[2][:w]
}

// putI completes a write of int register r computed into d by dstI.
func (vm *laneVM) putI(r uint8, d []int64) { lanePut(vm.lf, vm.lf.icolumn(vm.lp.icol[r]), d) }

func (vm *laneVM) putF(r uint8, d []float64) { lanePut(vm.lf, vm.lf.fcolumn(vm.lp.fcol[r]), d) }

// lanePut distributes d over the running lanes of column c: nothing to do
// when d is c (all lanes, one value each), else one value for every running
// lane or one value per running lane.
func lanePut[T any](lf *laneFrame, c, d []T) {
	switch {
	case lf.all && len(d) == lf.n: // computed in place
	case lf.all:
		for l := range c {
			c[l] = d[0]
		}
	case len(d) == 1:
		for _, l := range lf.act {
			c[l] = d[0]
		}
	default:
		for i, l := range lf.act {
			c[l] = d[i]
		}
	}
}

// laneExit says how a lockstep run ended.
type laneExit uint8

const (
	laneDone     laneExit = iota
	laneFaulted           // a lane hit a runtime error: the scalar VM reruns the slice
	laneDesynced          // lanes were parked where the plan has none (see laneProg.desynced)
)

// run is the lockstep driver: uniform stretches of code go to exec, which
// returns at the next opLane; the instruction there is executed below over
// the running lanes. Operands come through srcI/srcF and results leave
// through putI/putF, so every loop is a dense one over equally long slices
// whether all lanes run, some do, or the operands are uniform — but for a
// uniform operand of add, sub, mul or div, which stays one value.
func (vm *laneVM) run(ctx *core.Ctx) laneExit {
	p, lp, fr, lf := vm.p, vm.lp, vm.fr, vm.lf
	for pc := 0; ; {
		if pc >= lf.nextPark {
			pc = lf.reconverge(pc)
		}
		if lp.code[pc].op != opLane {
			if !lf.all {
				return laneDesynced
			}
			var err error
			if pc, err = p.exec(ctx, fr, lp.code, pc); err != nil {
				return laneFaulted
			} else if pc < 0 {
				return laneDone
			}
		}
		in := lp.ops[pc]
		// w is how many values the instruction computes: one per running
		// lane, or one in all when every operand is uniform.
		w := len(lf.act)
		switch {
		case !lp.varies[pc]:
			w = 1
		case lf.all:
			w = lf.n
		}
		pc++
		switch in.op {
		case opRet:
			if !lf.all {
				return laneDesynced
			}
			return laneDone
		case opErr:
			return laneFaulted
		case opJmp:
			pc = int(in.d)
		case opBind:
			flags := lf.bc[int(lp.bindCol[in.a])*lf.cap:][:lf.n]
			if lf.all {
				for l := range flags {
					flags[l] = true
				}
			} else {
				for _, l := range lf.act {
					flags[l] = true
				}
			}

		case opJzI, opJnzI, opJeqI, opJneI, opJltI, opJleI, opJzF, opJnzF, opJeqF, opJneF, opJltF, opJleF:
			var ok bool
			if pc, ok = vm.branch(ctx, in, pc); !ok {
				return laneFaulted
			}

		case opMovI, opTrunc32, opTruncU8, opBoolI, opNotI, opAddI, opAddKI, opSubI, opMulI, opDivI, opModI,
			opNegI, opAbsI, opMinI, opMaxI, opEqI, opNeI, opLtI, opLeI:
			b, c := vm.srcII(in, w)
			d := vm.dstI(in.a, w)
			if !laneIntOp(in, d, b, c) {
				return laneFaulted
			}
			vm.putI(in.a, d)
		case opMovF, opNegF, opAbsF, opSqrtF, opAddF, opSubF, opMulF, opDivF:
			b, c := vm.srcFF(in, w)
			d := vm.dstF(in.a, w)
			if !laneFloatOp(in.op, d, b, c) {
				return laneFaulted
			}
			vm.putF(in.a, d)
		case opF2I, opBoolF, opNotF, opEqF, opNeF, opLtF, opLeF:
			b, c := vm.srcFF(in, w)
			d := vm.dstI(in.a, w)
			laneFloatToInt(in.op, d, b, c)
			vm.putI(in.a, d)
		case opI2F:
			b, d := vm.srcI(in.b, 0, w, false), vm.dstF(in.a, w)
			for i, x := range b {
				d[i] = float64(x)
			}
			vm.putF(in.a, d)

		// Array reads: every lane sees the same view, resolved before the
		// run. A coordinate out of range is a fault (the scalar VM's boxed
		// path has the panic), and so is a view without the typed backing
		// the op was lowered for, whose extents are zero.
		case opGetF1, opGetI1:
			v := &fr.views[in.b]
			ci, n1 := vm.srcI(in.c, 0, w, false), uint64(v.n1)
			if in.op == opGetF1 {
				d := vm.dstF(in.a, w)
				for k, i := range ci {
					if uint64(i) >= n1 {
						return laneFaulted
					}
					d[k] = v.f64[i]
				}
				vm.putF(in.a, d)
			} else {
				d := vm.dstI(in.a, w)
				for k, i := range ci {
					if uint64(i) >= n1 {
						return laneFaulted
					}
					d[k] = v.int(i)
				}
				vm.putI(in.a, d)
			}
		case opGetF2, opGetI2:
			v := &fr.views[in.b]
			ci, cj := vm.srcI(in.c, 0, w, false), vm.srcI(uint8(in.d), 1, w, false)
			if in.op == opGetF2 {
				d := vm.dstF(in.a, w)
				for k, i := range ci {
					j := cj[k]
					if uint64(i) >= uint64(v.rows) || uint64(j) >= uint64(v.cols) {
						return laneFaulted
					}
					d[k] = v.f64[i*v.cols+j]
				}
				vm.putF(in.a, d)
			} else {
				d := vm.dstI(in.a, w)
				for k, i := range ci {
					j := cj[k]
					if uint64(i) >= uint64(v.rows) || uint64(j) >= uint64(v.cols) {
						return laneFaulted
					}
					d[k] = v.int(i*v.cols + j)
				}
				vm.putI(in.a, d)
			}
		case opExtent:
			a := fr.views[in.b].arr
			dims, d := vm.srcI(in.c, 0, w, false), vm.dstI(in.a, w)
			for k, dim := range dims {
				d[k] = int64(a.Extent(int(dim)))
			}
			vm.putI(in.a, d)

		default:
			return laneDesynced // planLanes admitted an instruction the driver lacks
		}
	}
}

// laneIntOp computes an int instruction over equally long operand slices (c
// is b for a unary one), or one of them a single value (laneScalarOp). It
// returns false when an element faults.
func laneIntOp(in instr, d, b, c []int64) bool {
	if len(b) < len(d) || len(c) < len(d) {
		return laneScalarOp(laneArith(in.op), d, b, c)
	}
	b, c = b[:len(d)], c[:len(d)]
	switch in.op {
	case opMovI:
		copy(d, b)
	case opTrunc32:
		for i := range d {
			d[i] = int64(int32(b[i]))
		}
	case opTruncU8:
		for i := range d {
			d[i] = int64(uint8(b[i]))
		}
	case opBoolI:
		for i := range d {
			d[i] = b2i(b[i] != 0)
		}
	case opNotI:
		for i := range d {
			d[i] = b2i(b[i] == 0)
		}
	case opAddI:
		for i := range d {
			d[i] = b[i] + c[i]
		}
	case opAddKI:
		k := int64(in.d)
		for i := range d {
			d[i] = b[i] + k
		}
	case opSubI:
		for i := range d {
			d[i] = b[i] - c[i]
		}
	case opMulI:
		for i := range d {
			d[i] = b[i] * c[i]
		}
	case opDivI:
		for i := range d {
			if c[i] == 0 {
				return false
			}
			d[i] = b[i] / c[i]
		}
	case opModI:
		for i := range d {
			if c[i] == 0 {
				return false
			}
			d[i] = b[i] % c[i]
		}
	case opNegI:
		for i := range d {
			d[i] = -b[i]
		}
	case opAbsI:
		for i := range d {
			d[i] = max(b[i], -b[i])
		}
	case opMinI:
		for i := range d {
			d[i] = min(b[i], c[i])
		}
	case opMaxI:
		for i := range d {
			d[i] = max(b[i], c[i])
		}
	case opEqI:
		for i := range d {
			d[i] = b2i(b[i] == c[i])
		}
	case opNeI:
		for i := range d {
			d[i] = b2i(b[i] != c[i])
		}
	case opLtI:
		for i := range d {
			d[i] = b2i(b[i] < c[i])
		}
	case opLeI:
		for i := range d {
			d[i] = b2i(b[i] <= c[i])
		}
	}
	return true
}

// laneScalarOp computes an instruction with a scalar form (laneArith) whose
// operand b or c is one uniform value. It returns false when an element
// faults.
func laneScalarOp[T int64 | float64](arith byte, d, b, c []T) bool {
	if len(b) < len(d) && (arith == '+' || arith == '*') { // make c the value
		b, c = c, b
	}
	if len(b) < len(d) {
		x, c := b[0], c[:len(d)]
		if arith == '-' {
			for i := range d {
				d[i] = x - c[i]
			}
			return true
		}
		for i := range d {
			if c[i] == 0 {
				return false
			}
			d[i] = x / c[i]
		}
		return true
	}
	y, b := c[0], b[:len(d)]
	switch arith {
	case '+':
		for i := range d {
			d[i] = b[i] + y
		}
	case '-':
		for i := range d {
			d[i] = b[i] - y
		}
	case '*':
		for i := range d {
			d[i] = b[i] * y
		}
	case '/':
		if y == 0 {
			return false
		}
		for i := range d {
			d[i] = b[i] / y
		}
	}
	return true
}

// laneFloatOp is laneIntOp for float instructions. Each loop performs one
// IEEE operation per element and stores it, exactly as exec does one
// instruction at a time, so nothing can be contracted into an FMA.
func laneFloatOp(op opcode, d, b, c []float64) bool {
	if len(b) < len(d) || len(c) < len(d) {
		return laneScalarOp(laneArith(op), d, b, c)
	}
	b, c = b[:len(d)], c[:len(d)]
	switch op {
	case opMovF:
		copy(d, b)
	case opNegF:
		for i := range d {
			d[i] = -b[i]
		}
	case opAbsF:
		for i := range d {
			d[i] = math.Abs(b[i])
		}
	case opSqrtF:
		for i := range d {
			if b[i] < 0 {
				return false
			}
			d[i] = math.Sqrt(b[i])
		}
	case opAddF:
		for i := range d {
			d[i] = b[i] + c[i]
		}
	case opSubF:
		for i := range d {
			d[i] = b[i] - c[i]
		}
	case opMulF:
		for i := range d {
			d[i] = b[i] * c[i]
		}
	case opDivF:
		for i := range d {
			if c[i] == 0 {
				return false
			}
			d[i] = b[i] / c[i]
		}
	}
	return true
}

// laneFloatToInt computes the float instructions with an int result.
// Comparisons keep exec's order, in which NaN equals everything.
func laneFloatToInt(op opcode, d []int64, b, c []float64) {
	b, c = b[:len(d)], c[:len(d)]
	switch op {
	case opF2I:
		for i := range d {
			d[i] = int64(b[i])
		}
	case opBoolF:
		for i := range d {
			d[i] = b2i(b[i] != 0)
		}
	case opNotF:
		for i := range d {
			d[i] = b2i(b[i] == 0)
		}
	case opEqF:
		for i := range d {
			d[i] = b2i(!(b[i] < c[i]) && !(b[i] > c[i]))
		}
	case opNeF:
		for i := range d {
			d[i] = b2i(b[i] < c[i] || b[i] > c[i])
		}
	case opLtF:
		for i := range d {
			d[i] = b2i(b[i] < c[i])
		}
	case opLeF:
		for i := range d {
			d[i] = b2i(!(b[i] > c[i]))
		}
	}
}

// sliceBody wraps the plan as a core slice body: lanes [0, n) of ctx are the
// lanes. It declines, with no column changed, when a lane faults.
func (p *bcProg) sliceBody() func(*core.Ctx, int) bool {
	lp := p.lane
	return func(ctx *core.Ctx, n int) bool {
		fr := p.frames.Get().(*bcFrame)
		lf := lp.frames.Get().(*laneFrame)
		lf.size(lp, n)
		exit := p.runLanes(ctx, fr, lf)
		if exit == laneDesynced {
			lp.desynced.Store(true)
		}
		for _, st := range p.stores {
			fr.assigned[st.li] = false
		}
		clear(fr.views)
		p.frames.Put(fr)
		// A run that was abandoned leaves lanes parked.
		if lf.act != nil {
			lf.free = append(lf.free, lf.act)
		}
		for _, g := range lf.groups {
			lf.free = append(lf.free, g.lanes)
		}
		lf.act, lf.groups, lf.imp = nil, lf.groups[:0], noPark
		lp.frames.Put(lf)
		return exit == laneDone
	}
}

// runLanes is one lockstep attempt: resolve the shared arrays, copy the
// loaded columns of the context into the lanes' (the prologue), run, and
// write the assigned locals' registers into their columns, binding them in
// the lanes that assigned them (the epilogue), if every lane got through.
func (p *bcProg) runLanes(ctx *core.Ctx, fr *bcFrame, lf *laneFrame) laneExit {
	lp, n := p.lane, lf.n
	for _, li := range lp.arrays {
		p.resolve(ctx, fr, li)
	}
	for _, ld := range p.loads {
		switch {
		case ld.from == fromAge:
			fr.i[ld.reg] = int64(ctx.Age())
		case ld.from == fromCoord:
			copy(lf.icolumn(lp.icol[ld.reg]), ctx.CoordCol(int(ld.idx)))
		case ld.cl == clI:
			copy(lf.icolumn(lp.icol[ld.reg]), ctx.IntCol(int(ld.idx)))
		default:
			copy(lf.fcolumn(lp.fcol[ld.reg]), ctx.FloatCol(int(ld.idx)))
		}
	}
	for s, ld := range lp.spans {
		col := lf.icolumn(lp.icol[ld.reg])
		fr.span[s] = laneSpan{col[0], uint64(n - 1)}
		for l, x := range col {
			if x != col[0]+int64(l) {
				fr.span[s].last = math.MaxUint64
				break
			}
		}
	}
	clear(lf.bc)
	lf.all, lf.imp, lf.nextPark = true, noPark, noPark

	vm := laneVM{p: p, lp: lp, fr: fr, lf: lf}
	if exit := vm.run(ctx); exit != laneDone {
		return exit
	}

	for _, st := range p.stores {
		li := int(st.li)
		var flags []bool
		if col := lp.bindCol[st.li]; col >= 0 {
			flags = lf.bc[int(col)*lf.cap:][:n]
		}
		all, bound := fr.assigned[st.li], ctx.BoundCol(li)[:n]
		if st.cl == clI {
			laneStore(ctx.IntCol(li)[:n], bound, all, flags, vm.operandI(uint8(st.reg)))
		} else {
			laneStore(ctx.FloatCol(li)[:n], bound, all, flags, vm.operandF(uint8(st.reg)))
		}
	}
	return laneDone
}

// laneStore writes a stored local's register, src — its column, or one
// uniform value — into the local's column c in the lanes that assigned it,
// and binds it there: every lane when all is set, else those flags marks.
func laneStore[T int64 | float64](c []T, bound []bool, all bool, flags []bool, src []T) {
	for l := range c {
		if all || flags != nil && flags[l] {
			c[l], bound[l] = src[min(l, len(src)-1)], true
		}
	}
}
