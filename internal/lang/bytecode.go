package lang

// Register bytecode for kernel bodies: lower.go turns the code-block AST into
// a flat instruction slice executed by a switch-dispatch VM (vm.go). It is the
// only way a kernel-language body runs; the tests in bytecode_test.go and
// fuzz_test.go pin it to bit-identical results against a tree-walking oracle
// (oracle_test.go).
//
// Frame layout. Each register class — i (int64), f (float64), s (string),
// v (boxed field.Value) — is one file per frame, laid out as
//
//	[ age | index coordinates | scalar kernel locals | block variables | temporaries | constants ]
//
// Constants are registers like any other: they are written once when a pooled
// frame is created and no instruction targets them, so a literal costs
// nothing per invocation or per iteration. The age, the index coordinates and
// the scalar kernel locals the body names are loaded by the prologue
// (bcProg.loads, run by body() before the first instruction) and live in
// registers from then on; an assignment to a local is an ordinary register
// write followed by opBind, which marks the local in the frame's assigned
// mask, and the epilogue (bcProg.stores) writes exactly the marked locals
// back to the Ctx with SetLocalValue — on every way out of the body, so a
// local is bound iff the executed path assigned it and a failing body leaves
// the Ctx with exactly the assignments it made. Array locals resolve on first
// touch into a frame-held arrView (vm.go).
//
// Instruction encoding: eight bytes — the opcode, three one-byte operands
// {a, b, c} and one int32 operand d — whose roles opTable records per opcode.
// a is the destination (or the array for puts); d carries whatever needs the
// range: jump targets (absolute instruction indices), immediates, table
// indices, and the fourth register of the rank-2 array forms. Register
// operands being bytes is what lets the VM index its fixed-size int and float
// register files without bounds checks; a kernel that needs more than 256
// registers of one class (constants included), locals or timers is a compile
// error.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/field"
)

type opcode uint8

// Opcodes. Suffix conventions: I/F/S/V name the register class an op works
// in; ops that move between classes name source and destination (opI2F).
const (
	// control flow
	opRet  opcode = iota // return nil
	opJmp                // d=target
	opJzI                // a=ireg d=target: jump if i[a] == 0
	opJnzI               // jump if i[a] != 0
	opJzF                // jump if f[a] == 0 (NaN is truthy)
	opJnzF               // jump if f[a] != 0
	opJzV                // jump if !v[a].Bool()
	opJnzV               // jump if v[a].Bool()
	// fused compare-and-branch, a,b=operands d=target; > and >= swap their
	// operands onto < and <=. The float forms follow arith()'s compareFloat
	// order, under which NaN compares equal to everything.
	opJeqI
	opJneI
	opJltI
	opJleI
	opJeqF
	opJneF
	opJltF
	opJleF
	opErr  // d=errIdx: return errs[d]
	opStop // ctx.Stop()

	// moves
	opMovI // a=dst b=src
	opMovF
	opMovS
	opMovV
	opZeroV // a=dst b=kind: field.Zero(kind)

	// conversions between register classes (Value.Convert semantics)
	opI2F     // f[a] = float64(i[b])
	opF2I     // i[a] = int64(f[b])
	opTrunc32 // i[a] = int64(int32(i[b]))
	opTruncU8 // i[a] = int64(uint8(i[b]))
	opBoolI   // i[a] = (i[b] != 0)
	opBoolF   // i[a] = (f[b] != 0)
	opBoolV   // i[a] = v[b].Bool()
	opNotI    // i[a] = (i[b] == 0)
	opNotF    // i[a] = (f[b] == 0)
	opNotV    // i[a] = !v[b].Bool()
	opI2S     // s[a] = FormatInt(i[b])
	opF2S     // s[a] = FormatFloat(f[b], 'g', -1, 64)
	opB2S     // s[a] = "true"/"false" from i[b]
	opV2S     // s[a] = v[b].String()
	opBoxI    // v[a] = Value{kind c, i: i[b]} (payload already canonical)
	opBoxF    // v[a] = Value{kind c, f: f[b]}
	opBoxS    // v[a] = Value{kind c, s: s[b]}
	opConvV   // v[a] = v[b].Convert(kind c)
	opUnboxVI // i[a] = v[b].Int64()
	opUnboxVF // f[a] = v[b].Float64()

	// integer arithmetic (a=dst b,c=src; d=errIdx where noted)
	opAddI
	opAddKI // i[a] = i[b] + d (immediate)
	opSubI
	opMulI
	opDivI // d=errIdx: division by zero
	opModI // d=errIdx: modulo by zero
	opNegI // a=dst b=src

	// float arithmetic
	opAddF
	opSubF
	opMulF
	opDivF // d=errIdx: division by zero
	opNegF

	// strings
	opConcatS // s[a] = s[b] + s[c]

	// comparisons as values (i[a] = 0/1), same operand swap and float order
	// as the fused branches
	opEqI
	opNeI
	opLtI
	opLeI
	opEqF
	opNeF
	opLtF
	opLeF
	opEqS
	opNeS

	// boxed ops for operands whose kind is only known at run time
	opArithV // v[a] = arith(sites[d], v[b], v[c])
	opIncV   // v[a] = v[b] incremented by d (float/int by dynamic kind)
	opNegV   // v[a] = -v[b] by dynamic kind
	opAbsV
	opMinV // v[a] = min(v[b], v[c]): float if either is, else the winning operand
	opMaxV

	// math builtins
	opSqrtF // f[a] = sqrt(f[b]); d=errIdx: sqrt of negative value
	opFloorF
	opCosF
	opSinF
	opPowF // f[a] = pow(f[b], f[c])
	opAbsI
	opAbsF
	opMinI // i[a] = min(i[b], i[c]) payload order
	opMaxI
	opMinF // f[a] = math.Min(f[b], f[c])
	opMaxF

	// kernel locals
	opBind // a=local index: the local's register was assigned

	// arrays through the frame's views. The typed rank-1 and rank-2 forms
	// index the view's backing slice directly; any miss (first touch, out of
	// range, rank or class mismatch, write to an aliased backing) drops to
	// the boxed At/Put path, so panics and implicit grow are field.Array's.
	// The V forms take d contiguous int coordinate registers
	// starting at c and serve boxed arrays and ranks above two.
	opGetF1 // f[a] = arr(b)[i[c]]
	opGetF2 // f[a] = arr(b)[i[c]][i[d]]
	opGetI1
	opGetI2
	opGetV  // v[a] = arr(b)[i[c] ... i[c+d-1]]
	opPutF1 // arr(a)[i[c]] = f[b]
	opPutF2 // arr(a)[i[c]][i[d]] = f[b]
	opPutI1
	opPutI2
	opPutV
	opExtent // i[a] = arr(b).Extent(int(i[c]))

	// timers and clock
	opNow        // i[a] = ctx.Now().UnixMilli()
	opExpired    // i[a] = ctx.Expired(timers[b], i[c] ms); errors propagate
	opResetTimer // ctx.ResetTimer(timers[a])

	// cout: appends into the frame's byte buffer, flushed in one Printf
	opCoutClear
	opCoutI // append FormatInt(i[a])
	opCoutF // append FormatFloat(f[a], 'g', -1, 64)
	opCoutB // append "true"/"false" from i[a]
	opCoutS // append s[a]
	opCoutV // append v[a].String()
	opCoutFlush

	// opLane appears only in a laneProg's copy of the code (lanes.go), in
	// place of every instruction the lockstep driver executes itself: exec
	// returns at it.
	opLane
	// opLaneIdx, in a laneProg's code only: jeqi (b=0) or jnei (b=1) of i[a]
	// and the index column of span slot c, d=target, which exec decides
	// unless some lane's coordinate is i[a] (lanes.go, laneProg.byIndex).
	opLaneIdx

	numOpcodes
)

// operand is the role one of an instruction's four slots plays; the final
// pass of the lowering (constants, jump targets) and the disassembler are
// driven by it.
type operand uint8

const (
	xNone   operand = iota
	xI              // int register
	xF              // float register
	xS              // string register
	xV              // boxed register
	xImm            // immediate
	xTarget         // jump target
	xLocal          // kernel local index
	xKind           // field.Kind
	xErr            // index into errs
	xSite           // index into sites
	xTimer          // index into timerNames
	xBlock          // first of a run of int coordinate registers
	xCount          // length of that run
)

type opInfo struct {
	name string
	args [4]operand
}

var opTable = [numOpcodes]opInfo{
	opRet:  {"ret", [4]operand{}},
	opJmp:  {"jmp", [4]operand{xNone, xNone, xNone, xTarget}},
	opJzI:  {"jzi", [4]operand{xI, xNone, xNone, xTarget}},
	opJnzI: {"jnzi", [4]operand{xI, xNone, xNone, xTarget}},
	opJzF:  {"jzf", [4]operand{xF, xNone, xNone, xTarget}},
	opJnzF: {"jnzf", [4]operand{xF, xNone, xNone, xTarget}},
	opJzV:  {"jzv", [4]operand{xV, xNone, xNone, xTarget}},
	opJnzV: {"jnzv", [4]operand{xV, xNone, xNone, xTarget}},
	opJeqI: {"jeqi", [4]operand{xI, xI, xNone, xTarget}},
	opJneI: {"jnei", [4]operand{xI, xI, xNone, xTarget}},
	opJltI: {"jlti", [4]operand{xI, xI, xNone, xTarget}},
	opJleI: {"jlei", [4]operand{xI, xI, xNone, xTarget}},
	opJeqF: {"jeqf", [4]operand{xF, xF, xNone, xTarget}},
	opJneF: {"jnef", [4]operand{xF, xF, xNone, xTarget}},
	opJltF: {"jltf", [4]operand{xF, xF, xNone, xTarget}},
	opJleF: {"jlef", [4]operand{xF, xF, xNone, xTarget}},
	opErr:  {"err", [4]operand{xNone, xNone, xNone, xErr}},
	opStop: {"stop", [4]operand{}},

	opMovI:  {"movi", [4]operand{xI, xI}},
	opMovF:  {"movf", [4]operand{xF, xF}},
	opMovS:  {"movs", [4]operand{xS, xS}},
	opMovV:  {"movv", [4]operand{xV, xV}},
	opZeroV: {"zerov", [4]operand{xV, xKind}},

	opI2F:     {"i2f", [4]operand{xF, xI}},
	opF2I:     {"f2i", [4]operand{xI, xF}},
	opTrunc32: {"trunc32", [4]operand{xI, xI}},
	opTruncU8: {"truncu8", [4]operand{xI, xI}},
	opBoolI:   {"booli", [4]operand{xI, xI}},
	opBoolF:   {"boolf", [4]operand{xI, xF}},
	opBoolV:   {"boolv", [4]operand{xI, xV}},
	opNotI:    {"noti", [4]operand{xI, xI}},
	opNotF:    {"notf", [4]operand{xI, xF}},
	opNotV:    {"notv", [4]operand{xI, xV}},
	opI2S:     {"i2s", [4]operand{xS, xI}},
	opF2S:     {"f2s", [4]operand{xS, xF}},
	opB2S:     {"b2s", [4]operand{xS, xI}},
	opV2S:     {"v2s", [4]operand{xS, xV}},
	opBoxI:    {"boxi", [4]operand{xV, xI, xKind}},
	opBoxF:    {"boxf", [4]operand{xV, xF, xKind}},
	opBoxS:    {"boxs", [4]operand{xV, xS, xKind}},
	opConvV:   {"convv", [4]operand{xV, xV, xKind}},
	opUnboxVI: {"unboxvi", [4]operand{xI, xV}},
	opUnboxVF: {"unboxvf", [4]operand{xF, xV}},

	opAddI:  {"addi", [4]operand{xI, xI, xI}},
	opAddKI: {"addki", [4]operand{xI, xI, xNone, xImm}},
	opSubI:  {"subi", [4]operand{xI, xI, xI}},
	opMulI:  {"muli", [4]operand{xI, xI, xI}},
	opDivI:  {"divi", [4]operand{xI, xI, xI, xErr}},
	opModI:  {"modi", [4]operand{xI, xI, xI, xErr}},
	opNegI:  {"negi", [4]operand{xI, xI}},

	opAddF: {"addf", [4]operand{xF, xF, xF}},
	opSubF: {"subf", [4]operand{xF, xF, xF}},
	opMulF: {"mulf", [4]operand{xF, xF, xF}},
	opDivF: {"divf", [4]operand{xF, xF, xF, xErr}},
	opNegF: {"negf", [4]operand{xF, xF}},

	opConcatS: {"concats", [4]operand{xS, xS, xS}},

	opEqI: {"eqi", [4]operand{xI, xI, xI}},
	opNeI: {"nei", [4]operand{xI, xI, xI}},
	opLtI: {"lti", [4]operand{xI, xI, xI}},
	opLeI: {"lei", [4]operand{xI, xI, xI}},
	opEqF: {"eqf", [4]operand{xI, xF, xF}},
	opNeF: {"nef", [4]operand{xI, xF, xF}},
	opLtF: {"ltf", [4]operand{xI, xF, xF}},
	opLeF: {"lef", [4]operand{xI, xF, xF}},
	opEqS: {"eqs", [4]operand{xI, xS, xS}},
	opNeS: {"nes", [4]operand{xI, xS, xS}},

	opArithV: {"arithv", [4]operand{xV, xV, xV, xSite}},
	opIncV:   {"incv", [4]operand{xV, xV, xNone, xImm}},
	opNegV:   {"negv", [4]operand{xV, xV}},
	opAbsV:   {"absv", [4]operand{xV, xV}},
	opMinV:   {"minv", [4]operand{xV, xV, xV}},
	opMaxV:   {"maxv", [4]operand{xV, xV, xV}},

	opSqrtF:  {"sqrtf", [4]operand{xF, xF, xNone, xErr}},
	opFloorF: {"floorf", [4]operand{xF, xF}},
	opCosF:   {"cosf", [4]operand{xF, xF}},
	opSinF:   {"sinf", [4]operand{xF, xF}},
	opPowF:   {"powf", [4]operand{xF, xF, xF}},
	opAbsI:   {"absi", [4]operand{xI, xI}},
	opAbsF:   {"absf", [4]operand{xF, xF}},
	opMinI:   {"mini", [4]operand{xI, xI, xI}},
	opMaxI:   {"maxi", [4]operand{xI, xI, xI}},
	opMinF:   {"minf", [4]operand{xF, xF, xF}},
	opMaxF:   {"maxf", [4]operand{xF, xF, xF}},

	opBind: {"bind", [4]operand{xLocal}},

	opGetF1:  {"getf1", [4]operand{xF, xLocal, xI}},
	opGetF2:  {"getf2", [4]operand{xF, xLocal, xI, xI}},
	opGetI1:  {"geti1", [4]operand{xI, xLocal, xI}},
	opGetI2:  {"geti2", [4]operand{xI, xLocal, xI, xI}},
	opGetV:   {"getv", [4]operand{xV, xLocal, xBlock, xCount}},
	opPutF1:  {"putf1", [4]operand{xLocal, xF, xI}},
	opPutF2:  {"putf2", [4]operand{xLocal, xF, xI, xI}},
	opPutI1:  {"puti1", [4]operand{xLocal, xI, xI}},
	opPutI2:  {"puti2", [4]operand{xLocal, xI, xI, xI}},
	opPutV:   {"putv", [4]operand{xLocal, xV, xBlock, xCount}},
	opExtent: {"extent", [4]operand{xI, xLocal, xI}},

	opNow:        {"now", [4]operand{xI}},
	opExpired:    {"expired", [4]operand{xI, xTimer, xI}},
	opResetTimer: {"resettimer", [4]operand{xTimer}},

	opCoutClear: {"coutclear", [4]operand{}},
	opCoutI:     {"couti", [4]operand{xI}},
	opCoutF:     {"coutf", [4]operand{xF}},
	opCoutB:     {"coutb", [4]operand{xI}},
	opCoutS:     {"couts", [4]operand{xS}},
	opCoutV:     {"coutv", [4]operand{xV}},
	opCoutFlush: {"coutflush", [4]operand{}},

	opLane:    {"lane", [4]operand{}},
	opLaneIdx: {"laneidx", [4]operand{xI, xImm, xImm, xTarget}},
}

// instr is one bytecode instruction; opTable gives the role of each operand.
type instr struct {
	op      opcode
	a, b, c uint8
	d       int32
}

// rawInstr is an instruction as the lowering emits it: operands at full
// width, constants as complemented table indices, jumps as labels.
type rawInstr struct {
	op         opcode
	a, b, c, d int32
}

// maxRegs is the size of a register class's file, fixed by the operand width.
const maxRegs = 256

// boxSite records the operator and source position of a boxed arithmetic
// instruction, which arith() needs to report its errors.
type boxSite struct {
	op  string
	tok Token
}

// loadSource says where a prologue load takes its value from.
type loadSource uint8

const (
	fromLocal loadSource = iota // ctx.LocalValue(idx)
	fromAge                     // ctx.Age()
	fromCoord                   // ctx.Coord(idx)
)

// bcLoad is one prologue load: a scalar the body names, read from the Ctx
// into its register once per invocation.
type bcLoad struct {
	from loadSource
	idx  int32
	cl   regClass
	reg  int32
}

// bcStore is one epilogue write-back: the register of a scalar kernel local
// the body assigns somewhere, boxed with the local's declared kind when the
// frame's assigned mask has the local set.
type bcStore struct {
	li   int32
	cl   regClass
	kind field.Kind
	reg  int32
}

// bcProg is one kernel body lowered to bytecode, plus its constant tables and
// a pool of execution frames. A bcProg is immutable after lowering and safe
// for concurrent execution; each invocation checks a frame out of the pool,
// so steady-state body execution does not allocate.
type bcProg struct {
	kernel     string
	code       []instr
	ints       []int64
	floats     []float64
	strs       []string
	errs       []error // precomputed runtime errors (sites are static)
	sites      []boxSite
	timerNames []string

	loads  []bcLoad
	stores []bcStore
	// arrCl is the register class the body's typed array ops expect of each
	// kernel local's elements (clV: boxed access only).
	arrCl []regClass

	nI, nF, nS, nV int // registers below the constants, per class

	// lane is the plan for running a slice's instances in lockstep
	// (lanes.go); nil when the body cannot, and laneWhy then says why.
	lane    *laneProg
	laneWhy string

	frames sync.Pool
}

// constant interning; the tables are tiny, so linear scans beat maps. A
// constant operand is the complement of its table index until finish()
// rebases it above the class's registers.

func (p *bcProg) intConst(x int64) int32 {
	for i, v := range p.ints {
		if v == x {
			return ^int32(i)
		}
	}
	p.ints = append(p.ints, x)
	return ^int32(len(p.ints) - 1)
}

// floatConst interns by bit pattern: -0.0 and NaN payloads stay distinct.
func (p *bcProg) floatConst(x float64) int32 {
	bits := math.Float64bits(x)
	for i, v := range p.floats {
		if math.Float64bits(v) == bits {
			return ^int32(i)
		}
	}
	p.floats = append(p.floats, x)
	return ^int32(len(p.floats) - 1)
}

func (p *bcProg) strConst(x string) int32 {
	for i, v := range p.strs {
		if v == x {
			return ^int32(i)
		}
	}
	p.strs = append(p.strs, x)
	return ^int32(len(p.strs) - 1)
}

func (p *bcProg) errConst(err error) int32 {
	p.errs = append(p.errs, err)
	return int32(len(p.errs) - 1)
}

func (p *bcProg) siteConst(op string, tok Token) int32 {
	p.sites = append(p.sites, boxSite{op: op, tok: tok})
	return int32(len(p.sites) - 1)
}

func (p *bcProg) timerConst(name string) int32 {
	for i, v := range p.timerNames {
		if v == name {
			return int32(i)
		}
	}
	p.timerNames = append(p.timerNames, name)
	return int32(len(p.timerNames) - 1)
}

// finish is the lowering's last step: constant operands move above the
// registers of their class, label operands become instruction indices, and
// the instructions are packed. The caller has checked that every class fits
// its register file, so an operand that does not fit a byte is a lowering bug.
func (p *bcProg) finish(raw []rawInstr, labels []int32) {
	base := [...]int32{xI: int32(p.nI), xF: int32(p.nF), xS: int32(p.nS), xV: int32(p.nV)}
	p.code = make([]instr, len(raw))
	for pc, in := range raw {
		args := &opTable[in.op].args
		x := [4]int32{in.a, in.b, in.c, in.d}
		for i, role := range args {
			switch role {
			case xI, xF, xS, xV:
				if x[i] < 0 {
					x[i] = base[role] + ^x[i]
				}
			case xTarget:
				x[i] = labels[x[i]]
			}
			if i < 3 && (x[i] < 0 || x[i] > math.MaxUint8) {
				panic(fmt.Sprintf("operand %d of %s out of range", x[i], opTable[in.op].name))
			}
		}
		p.code[pc] = instr{op: in.op, a: uint8(x[0]), b: uint8(x[1]), c: uint8(x[2]), d: x[3]}
	}
}
