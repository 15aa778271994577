package lang

// The bytecode VM: a single switch-dispatch loop over bcProg.code operating
// on a pooled frame (layout in bytecode.go). Steady-state body execution
// allocates nothing on the hot path; cold paths — implicit array grow, boxed
// arithmetic, runtime errors — may allocate.

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/field"
)

// arrView is one array local resolved for the current invocation: the typed
// flat backing plus the extents the rank-1 and rank-2 ops bound-check
// against. The zero view misses every fast path, which is how first touch,
// out-of-range coordinates, a rank or element class the op was not lowered
// for, and writes to a backing that aliases a field generation all reach the
// boxed path through the same test.
type arrView struct {
	arr *field.Array // nil until first touch
	f64 []float64
	i64 []int64
	i32 []int32
	u8  []uint8
	n1  int64 // extent of a rank-1 array, else 0
	// rows x cols of a rank-2 array (cols is the row stride), else 0
	rows, cols int64
	rw         bool // the backing is private: puts may write it in place
}

// bcFrame holds one invocation's register files and scratch state. The int
// and float files are arrays of the size a byte operand spans, so the VM
// indexes them unchecked.
type bcFrame struct {
	i        [maxRegs]int64
	f        [maxRegs]float64
	s        []string
	v        []field.Value
	views    []arrView     // per kernel local
	assigned [maxRegs]bool // per kernel local: opBind ran
	buf      []byte        // cout assembly buffer
	span     []laneSpan    // per span slot of a lockstep run (laneProg.spans)
}

func (p *bcProg) newFrame() *bcFrame {
	fr := &bcFrame{
		s:     make([]string, p.nS+len(p.strs)),
		v:     make([]field.Value, p.nV),
		views: make([]arrView, len(p.arrCl)),
	}
	copy(fr.i[p.nI:], p.ints)
	copy(fr.f[p.nF:], p.floats)
	copy(fr.s[p.nS:], p.strs)
	if p.lane != nil {
		fr.span = make([]laneSpan, len(p.lane.spans))
	}
	return fr
}

// body wraps the program as a core kernel body.
func (p *bcProg) body() func(*core.Ctx) error {
	p.frames.New = func() any { return p.newFrame() }
	return func(ctx *core.Ctx) error {
		fr := p.frames.Get().(*bcFrame)
		// Deferred so that an error return and a panic (out-of-range get,
		// negative put) publish the locals assigned so far, as an immediate
		// ctx.Set would have; runBody recovers the panic.
		defer p.leave(ctx, fr)
		for _, ld := range p.loads {
			switch ld.from {
			case fromAge:
				fr.i[ld.reg] = int64(ctx.Age())
			case fromCoord:
				fr.i[ld.reg] = int64(ctx.Coord(int(ld.idx)))
			default:
				v := ctx.LocalValue(int(ld.idx))
				switch ld.cl {
				case clI:
					fr.i[ld.reg] = v.Int64()
				case clF:
					fr.f[ld.reg] = v.Float64()
				case clS:
					fr.s[ld.reg] = v.Str()
				default:
					fr.v[ld.reg] = v
				}
			}
		}
		_, err := p.exec(ctx, fr, p.code, 0)
		return err
	}
}

// leave is the epilogue: write the assigned locals back, drop what the frame
// references (strings and boxed values would pin memory, views point into a
// Ctx that will be reset) and pool it.
func (p *bcProg) leave(ctx *core.Ctx, fr *bcFrame) {
	for _, st := range p.stores {
		if !fr.assigned[st.li] {
			continue
		}
		fr.assigned[st.li] = false
		var v field.Value
		switch st.cl {
		case clI:
			v = field.IntValOf(st.kind, fr.i[st.reg])
		case clF:
			v = field.FloatValOf(st.kind, fr.f[st.reg])
		case clS:
			v = field.StringVal(fr.s[st.reg])
		default:
			v = fr.v[st.reg]
		}
		ctx.SetLocalValue(int(st.li), v)
	}
	clear(fr.s[:p.nS])
	clear(fr.v)
	clear(fr.views)
	fr.buf = fr.buf[:0]
	p.frames.Put(fr)
}

// resolve fills the view of array local li on its first touch in this
// invocation and reports whether it did. It goes through Ctx.LocalArray,
// which materializes the default and marks the local bound like Ctx.Array.
func (p *bcProg) resolve(ctx *core.Ctx, fr *bcFrame, li uint8) bool {
	v := &fr.views[li]
	if v.arr != nil {
		return false
	}
	a := ctx.LocalArray(int(li))
	v.arr = a
	b := a.Backing()
	switch p.arrCl[li] {
	case clF:
		if b.F64 == nil {
			return true
		}
		v.f64 = b.F64
	case clI:
		if b.I32 == nil && b.I64 == nil && b.U8 == nil {
			return true
		}
		v.i32, v.i64, v.u8 = b.I32, b.I64, b.U8
	default:
		return true
	}
	v.rw = !b.Shared
	switch a.Rank() {
	case 1:
		v.n1 = int64(a.Extent(0))
	case 2:
		v.rows, v.cols = int64(a.Extent(0)), int64(a.Extent(1))
	}
	return true
}

// array returns array local li for the boxed path, resolving it if needed.
func (p *bcProg) array(ctx *core.Ctx, fr *bcFrame, li uint8) *field.Array {
	p.resolve(ctx, fr, li)
	return fr.views[li].arr
}

// coldPut is the boxed put: grow, negative index, rank mismatch and writes to
// a shared backing all go through Array.Put (and its panics). The backing may
// have moved, so the view is dropped and the next touch resolves it again.
func (fr *bcFrame) coldPut(li uint8, val field.Value, idx ...int) {
	v := &fr.views[li]
	a := v.arr
	*v = arrView{}
	a.Put(val, idx...)
}

// coldIdx converts coordinate registers for the boxed At/Put cold path.
func coldIdx(regs []int64) []int {
	out := make([]int, len(regs))
	for i, v := range regs {
		out[i] = int(v)
	}
	return out
}

// exec is the VM loop: it runs code from pc until the body returns (-1), an
// instruction fails (-1 and the error) or it reaches an opLane, or an
// opLaneIdx that sends some lane apart, whose pc it returns. The cases of its
// switch are the instructions that complete without calling anything; each
// ends in continue, so the loop has no call on any path back to its head and
// the program counter and register bases stay in machine registers. Everything else — the remaining instructions and the
// misses of the typed array forms — falls out of the switch into slow.
func (p *bcProg) exec(ctx *core.Ctx, fr *bcFrame, code []instr, pc int) (int, error) {
	ri, rf := &fr.i, &fr.f
	views := fr.views
	for {
		in := code[pc]
		pc++
		switch in.op {
		case opRet:
			return -1, nil
		case opLane:
			return pc - 1, nil
		case opLaneIdx:
			if s := fr.span[in.c]; uint64(ri[in.a]-s.base) <= s.last {
				return pc - 1, nil // some lane's coordinate is i[a]
			}
			if in.b != 0 {
				pc = int(in.d)
			}
			continue
		case opJmp:
			pc = int(in.d)
			continue
		case opJzI:
			if ri[in.a] == 0 {
				pc = int(in.d)
			}
			continue
		case opJnzI:
			if ri[in.a] != 0 {
				pc = int(in.d)
			}
			continue
		case opJzF:
			if rf[in.a] == 0 {
				pc = int(in.d)
			}
			continue
		case opJnzF:
			if rf[in.a] != 0 {
				pc = int(in.d)
			}
			continue
		case opJeqI:
			if ri[in.a] == ri[in.b] {
				pc = int(in.d)
			}
			continue
		case opJneI:
			if ri[in.a] != ri[in.b] {
				pc = int(in.d)
			}
			continue
		case opJltI:
			if ri[in.a] < ri[in.b] {
				pc = int(in.d)
			}
			continue
		case opJleI:
			if ri[in.a] <= ri[in.b] {
				pc = int(in.d)
			}
			continue
		// Float comparisons replicate cmpResult(compareFloat(a, b)): a total
		// order in which NaN compares equal to everything, unlike IEEE.
		case opJeqF:
			if !(rf[in.a] < rf[in.b]) && !(rf[in.a] > rf[in.b]) {
				pc = int(in.d)
			}
			continue
		case opJneF:
			if rf[in.a] < rf[in.b] || rf[in.a] > rf[in.b] {
				pc = int(in.d)
			}
			continue
		case opJltF:
			if rf[in.a] < rf[in.b] {
				pc = int(in.d)
			}
			continue
		case opJleF:
			if !(rf[in.a] > rf[in.b]) {
				pc = int(in.d)
			}
			continue
		case opErr:
			return -1, p.errs[in.d]

		case opMovI:
			ri[in.a] = ri[in.b]
			continue
		case opMovF:
			rf[in.a] = rf[in.b]
			continue

		case opI2F:
			rf[in.a] = float64(ri[in.b])
			continue
		case opF2I:
			ri[in.a] = int64(rf[in.b])
			continue
		case opTrunc32:
			ri[in.a] = int64(int32(ri[in.b]))
			continue
		case opTruncU8:
			ri[in.a] = int64(uint8(ri[in.b]))
			continue
		case opBoolI:
			ri[in.a] = b2i(ri[in.b] != 0)
			continue
		case opBoolF:
			ri[in.a] = b2i(rf[in.b] != 0)
			continue
		case opNotI:
			ri[in.a] = b2i(ri[in.b] == 0)
			continue
		case opNotF:
			ri[in.a] = b2i(rf[in.b] == 0)
			continue

		case opAddI:
			ri[in.a] = ri[in.b] + ri[in.c]
			continue
		case opAddKI:
			ri[in.a] = ri[in.b] + int64(in.d)
			continue
		case opSubI:
			ri[in.a] = ri[in.b] - ri[in.c]
			continue
		case opMulI:
			ri[in.a] = ri[in.b] * ri[in.c]
			continue
		case opDivI:
			if ri[in.c] == 0 {
				return -1, p.errs[in.d]
			}
			ri[in.a] = ri[in.b] / ri[in.c]
			continue
		case opModI:
			if ri[in.c] == 0 {
				return -1, p.errs[in.d]
			}
			ri[in.a] = ri[in.b] % ri[in.c]
			continue
		case opNegI:
			ri[in.a] = -ri[in.b]
			continue

		case opAddF:
			rf[in.a] = rf[in.b] + rf[in.c]
			continue
		case opSubF:
			rf[in.a] = rf[in.b] - rf[in.c]
			continue
		case opMulF:
			rf[in.a] = rf[in.b] * rf[in.c]
			continue
		case opDivF:
			if rf[in.c] == 0 {
				return -1, p.errs[in.d]
			}
			rf[in.a] = rf[in.b] / rf[in.c]
			continue
		case opNegF:
			rf[in.a] = -rf[in.b]
			continue

		case opEqI:
			ri[in.a] = b2i(ri[in.b] == ri[in.c])
			continue
		case opNeI:
			ri[in.a] = b2i(ri[in.b] != ri[in.c])
			continue
		case opLtI:
			ri[in.a] = b2i(ri[in.b] < ri[in.c])
			continue
		case opLeI:
			ri[in.a] = b2i(ri[in.b] <= ri[in.c])
			continue
		case opEqF:
			ri[in.a] = b2i(!(rf[in.b] < rf[in.c]) && !(rf[in.b] > rf[in.c]))
			continue
		case opNeF:
			ri[in.a] = b2i(rf[in.b] < rf[in.c] || rf[in.b] > rf[in.c])
			continue
		case opLtF:
			ri[in.a] = b2i(rf[in.b] < rf[in.c])
			continue
		case opLeF:
			ri[in.a] = b2i(!(rf[in.b] > rf[in.c]))
			continue

		case opSqrtF:
			if rf[in.b] < 0 {
				return -1, p.errs[in.d]
			}
			rf[in.a] = math.Sqrt(rf[in.b])
			continue
		case opAbsI:
			x := ri[in.b]
			if x < 0 {
				x = -x
			}
			ri[in.a] = x
			continue
		case opAbsF:
			rf[in.a] = math.Abs(rf[in.b])
			continue
		case opMinI:
			if ri[in.b] < ri[in.c] {
				ri[in.a] = ri[in.b]
			} else {
				ri[in.a] = ri[in.c]
			}
			continue
		case opMaxI:
			if ri[in.b] > ri[in.c] {
				ri[in.a] = ri[in.b]
			} else {
				ri[in.a] = ri[in.c]
			}
			continue

		case opBind:
			fr.assigned[in.a] = true
			continue

		// Typed array access, hits only.
		case opGetF1:
			v := &views[in.b]
			if i := ri[in.c]; uint64(i) < uint64(v.n1) {
				rf[in.a] = v.f64[i]
				continue
			}
		case opGetF2:
			v := &views[in.b]
			if i, j := ri[in.c], ri[uint8(in.d)]; uint64(i) < uint64(v.rows) && uint64(j) < uint64(v.cols) {
				rf[in.a] = v.f64[i*v.cols+j]
				continue
			}
		case opGetI1:
			v := &views[in.b]
			if i := ri[in.c]; uint64(i) < uint64(v.n1) {
				ri[in.a] = v.int(i)
				continue
			}
		case opGetI2:
			v := &views[in.b]
			if i, j := ri[in.c], ri[uint8(in.d)]; uint64(i) < uint64(v.rows) && uint64(j) < uint64(v.cols) {
				ri[in.a] = v.int(i*v.cols + j)
				continue
			}
		case opPutF1:
			v := &views[in.a]
			if i := ri[in.c]; uint64(i) < uint64(v.n1) && v.rw {
				v.f64[i] = rf[in.b]
				continue
			}
		case opPutF2:
			v := &views[in.a]
			if i, j := ri[in.c], ri[uint8(in.d)]; uint64(i) < uint64(v.rows) && uint64(j) < uint64(v.cols) && v.rw {
				v.f64[i*v.cols+j] = rf[in.b]
				continue
			}
		case opPutI1:
			v := &views[in.a]
			if i := ri[in.c]; uint64(i) < uint64(v.n1) && v.rw {
				v.setInt(i, ri[in.b])
				continue
			}
		case opPutI2:
			v := &views[in.a]
			if i, j := ri[in.c], ri[uint8(in.d)]; uint64(i) < uint64(v.rows) && uint64(j) < uint64(v.cols) && v.rw {
				v.setInt(i*v.cols+j, ri[in.b])
				continue
			}
		}
		var err error
		if pc, err = p.slow(ctx, fr, in, pc); pc < 0 {
			return -1, err
		}
	}
}

// slow executes one instruction exec does not complete itself and returns
// the next program counter, or -1 and the error that ends the body.
func (p *bcProg) slow(ctx *core.Ctx, fr *bcFrame, in instr, pc int) (int, error) {
	ri, rf, rs, rv := &fr.i, &fr.f, fr.s, fr.v
	switch in.op {
	case opJzV:
		if !rv[in.a].Bool() {
			pc = int(in.d)
		}
	case opJnzV:
		if rv[in.a].Bool() {
			pc = int(in.d)
		}
	case opStop:
		ctx.Stop()

	case opMovS:
		rs[in.a] = rs[in.b]
	case opMovV:
		rv[in.a] = rv[in.b]
	case opZeroV:
		rv[in.a] = field.Zero(field.Kind(in.b))

	case opBoolV:
		ri[in.a] = b2i(rv[in.b].Bool())
	case opNotV:
		ri[in.a] = b2i(!rv[in.b].Bool())
	case opI2S:
		rs[in.a] = strconv.FormatInt(ri[in.b], 10)
	case opF2S:
		rs[in.a] = strconv.FormatFloat(rf[in.b], 'g', -1, 64)
	case opB2S:
		if ri[in.b] != 0 {
			rs[in.a] = "true"
		} else {
			rs[in.a] = "false"
		}
	case opV2S:
		rs[in.a] = rv[in.b].String()
	case opBoxI:
		rv[in.a] = field.IntValOf(field.Kind(in.c), ri[in.b])
	case opBoxF:
		rv[in.a] = field.FloatValOf(field.Kind(in.c), rf[in.b])
	case opBoxS:
		rv[in.a] = field.StrValOf(field.Kind(in.c), rs[in.b])
	case opConvV:
		rv[in.a] = rv[in.b].Convert(field.Kind(in.c))
	case opUnboxVI:
		ri[in.a] = rv[in.b].Int64()
	case opUnboxVF:
		rf[in.a] = rv[in.b].Float64()

	case opConcatS:
		rs[in.a] = rs[in.b] + rs[in.c]
	case opEqS:
		ri[in.a] = b2i(rs[in.b] == rs[in.c])
	case opNeS:
		ri[in.a] = b2i(rs[in.b] != rs[in.c])

	case opArithV:
		site := &p.sites[in.d]
		nv, err := arith(site.tok, site.op, rv[in.b], rv[in.c])
		if err != nil {
			return -1, err
		}
		rv[in.a] = nv
	case opIncV:
		v := rv[in.b]
		if v.Kind().Float() {
			rv[in.a] = field.Float64Val(v.Float64() + float64(in.d))
		} else {
			rv[in.a] = field.Int64Val(v.Int64() + int64(in.d))
		}
	case opNegV:
		v := rv[in.b]
		if v.Kind().Float() {
			rv[in.a] = field.Float64Val(-v.Float64())
		} else {
			rv[in.a] = field.Int64Val(-v.Int64())
		}
	case opAbsV:
		v := rv[in.b]
		if v.Kind().Float() {
			rv[in.a] = field.Float64Val(math.Abs(v.Float64()))
		} else {
			x := v.Int64()
			if x < 0 {
				x = -x
			}
			rv[in.a] = field.Int64Val(x)
		}
	case opMinV:
		a, b := rv[in.b], rv[in.c]
		if a.Kind().Float() || b.Kind().Float() {
			rv[in.a] = field.Float64Val(math.Min(a.Float64(), b.Float64()))
		} else if a.Int64() < b.Int64() {
			rv[in.a] = a
		} else {
			rv[in.a] = b
		}
	case opMaxV:
		a, b := rv[in.b], rv[in.c]
		if a.Kind().Float() || b.Kind().Float() {
			rv[in.a] = field.Float64Val(math.Max(a.Float64(), b.Float64()))
		} else if a.Int64() > b.Int64() {
			rv[in.a] = a
		} else {
			rv[in.a] = b
		}

	case opFloorF:
		rf[in.a] = math.Floor(rf[in.b])
	case opCosF:
		rf[in.a] = math.Cos(rf[in.b])
	case opSinF:
		rf[in.a] = math.Sin(rf[in.b])
	case opPowF:
		rf[in.a] = math.Pow(rf[in.b], rf[in.c])
	case opMinF:
		rf[in.a] = math.Min(rf[in.b], rf[in.c])
	case opMaxF:
		rf[in.a] = math.Max(rf[in.b], rf[in.c])

	// Misses of the typed array forms. One that resolve() turns into a first
	// touch runs the instruction again against the filled view; any other is
	// the boxed access.
	case opGetF1, opGetF2, opGetI1, opGetI2:
		if p.resolve(ctx, fr, in.b) {
			return pc - 1, nil
		}
		a := fr.views[in.b].arr
		var v field.Value
		if in.op == opGetF1 || in.op == opGetI1 {
			v = a.At(int(ri[in.c]))
		} else {
			v = a.At(int(ri[in.c]), int(ri[uint8(in.d)]))
		}
		if in.op == opGetF1 || in.op == opGetF2 {
			rf[in.a] = v.Float64()
		} else {
			ri[in.a] = v.Int64()
		}
	case opPutF1, opPutF2, opPutI1, opPutI2:
		if p.resolve(ctx, fr, in.a) {
			return pc - 1, nil
		}
		v := field.Int64Val(ri[in.b])
		if in.op == opPutF1 || in.op == opPutF2 {
			v = field.Float64Val(rf[in.b])
		}
		if in.op == opPutF1 || in.op == opPutI1 {
			fr.coldPut(in.a, v, int(ri[in.c]))
		} else {
			fr.coldPut(in.a, v, int(ri[in.c]), int(ri[uint8(in.d)]))
		}

	case opGetV:
		a := p.array(ctx, fr, in.b)
		idx := ri[in.c : int(in.c)+int(in.d)]
		off := a.FlatOffset64(idx)
		if off < 0 {
			a.At(coldIdx(idx)...) // panics with the out-of-bounds message
		}
		rv[in.a] = a.AtFlat(off)
	case opPutV:
		a := p.array(ctx, fr, in.a)
		idx := ri[in.c : int(in.c)+int(in.d)]
		if off := a.FlatOffset64(idx); off >= 0 {
			a.SetFlat(rv[in.b], off)
		} else {
			fr.coldPut(in.a, rv[in.b], coldIdx(idx)...)
		}
	case opExtent:
		ri[in.a] = int64(p.array(ctx, fr, in.b).Extent(int(ri[in.c])))

	case opNow:
		ri[in.a] = ctx.Now().UnixMilli()
	case opExpired:
		exp, err := ctx.Expired(p.timerNames[in.b], time.Duration(ri[in.c])*time.Millisecond)
		if err != nil {
			return -1, err
		}
		ri[in.a] = b2i(exp)
	case opResetTimer:
		ctx.ResetTimer(p.timerNames[in.a])

	case opCoutClear:
		fr.buf = fr.buf[:0]
	case opCoutI:
		fr.buf = strconv.AppendInt(fr.buf, ri[in.a], 10)
	case opCoutF:
		fr.buf = strconv.AppendFloat(fr.buf, rf[in.a], 'g', -1, 64)
	case opCoutB:
		if ri[in.a] != 0 {
			fr.buf = append(fr.buf, "true"...)
		} else {
			fr.buf = append(fr.buf, "false"...)
		}
	case opCoutS:
		fr.buf = append(fr.buf, rs[in.a]...)
	case opCoutV:
		fr.buf = append(fr.buf, rv[in.a].String()...)
	case opCoutFlush:
		ctx.Printf("%s", fr.buf)

	default:
		return -1, fmt.Errorf("lang: corrupt bytecode: opcode %d at pc %d", in.op, pc-1)
	}
	return pc, nil
}

// int reads element off of an integer-class view as its int64 payload;
// exactly one of the three backings is set.
func (v *arrView) int(off int64) int64 {
	switch {
	case v.i32 != nil:
		return int64(v.i32[off])
	case v.i64 != nil:
		return v.i64[off]
	default:
		return int64(v.u8[off])
	}
}

// setInt stores x with the width truncation slab.set applies; a Bool array's
// payload was normalized to 0/1 by the lowering.
func (v *arrView) setInt(off, x int64) {
	switch {
	case v.i32 != nil:
		v.i32[off] = int32(x)
	case v.i64 != nil:
		v.i64[off] = x
	default:
		v.u8[off] = uint8(x)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
