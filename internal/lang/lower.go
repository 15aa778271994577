package lang

// Lowering from the code-block AST to register bytecode (bytecode.go), in one
// pass over the AST plus bcProg.finish over the emitted code. The pass is
// also the checker: every compile-time diagnostic of a `%{ %}` body —
// undefined and read-only names, misuse of arrays and timers, builtin arity,
// redeclaration, the register limit — is raised here, by failf, at the
// position of the offending token, and there is no other executor a rejected
// or unrepresentable kernel could fall back to. The invariants the lowering
// maintains:
//
//   - Typed registers always hold canonical payloads for their static kind
//     (the same representation Value.Convert produces), so re-boxing with
//     field.IntValOf/FloatValOf/StrValOf is exact.
//   - Any value whose kind cannot be pinned at compile time — `any` variables
//     and locals, elements of `any[]` and string arrays, locals fetched from a
//     field of another kind — lives in a boxed V register, and all arithmetic
//     on it goes through opArithV and arith(), the one definition of
//     dynamic-kind semantics (the test oracle calls it too).
//   - A scalar never holds an array: core validation, which runs before the
//     lowering, rejects whole-field and slab fetches into rank-0 locals, and
//     no expression produces one, so elements of `any` fields and arrays are
//     scalars too and unboxing one into a typed register loses nothing.
//   - The age, the index coordinates and the scalar kernel locals get their
//     registers before the first statement; block variables are allocated
//     monotonically after them and never reclaimed on scope pop; temporaries
//     restart at the variable watermark at each statement.
//   - An expression's value is wanted somewhere (exprTo's dest): the last
//     instruction of the expression writes that register itself when it
//     produces exactly the wanted class and kind, and every read of the
//     expression precedes that write, so `x = f(x)` needs no temporary.
//   - A condition that is only tested (if, loop test, the left side of && and
//     ||) is lowered by cond() straight to jumps; loops are inverted, so an
//     iteration takes one jump, the fused compare-and-branch at the bottom.

import (
	"fmt"

	"repro/internal/field"
)

// regClass partitions values by the register file that holds them.
type regClass uint8

const (
	clI regClass = iota // int64 payloads: Uint8, Bool, Int32, Int64
	clF                 // float64 payloads: Float32, Float64
	clS                 // strings
	clV                 // boxed field.Value: Any or dynamically-kinded
)

func kindClass(k field.Kind) regClass {
	switch k {
	case field.Float32, field.Float64:
		return clF
	case field.String:
		return clS
	case field.Any, field.Invalid:
		return clV
	default:
		return clI
	}
}

// lval is a lowered value or variable: a register plus its static kind. For
// clV the kind is dynamic (field.Any stands in for "unknown"). A negative
// register is a constant (see bcProg.intConst).
type lval struct {
	cl   regClass
	kind field.Kind
	reg  int32
}

// varKind classifies an identifier.
type varKind uint8

const (
	vUnknown varKind = iota
	vSlot            // block-local variable
	vLocal           // kernel scalar local
	vArray           // kernel array local
	vAge             // kernel age variable
	vIndex           // kernel index variable
	vTimer           // global timer
	vEndl            // the endl stream manipulator
)

// lref is a resolved identifier.
type lref struct {
	kind varKind
	slot lval // the register of a vSlot, vLocal, vAge or vIndex
	li   int  // kernel local index for vLocal/vArray, position of a vIndex
	typ  field.Kind
}

// lowerFail carries a compile error through panic/recover.
type lowerFail struct{ err error }

// internalErrPrefix starts the error a crash inside the lowering is returned
// as. No input may take a process down, so lowerKernelBody recovers any
// panic; the fuzz targets fail on an error with this prefix, which is how a
// lowerer bug stays visible.
const internalErrPrefix = "lang: internal error lowering kernel"

type lowerer struct {
	k      *KernelDef
	timers map[string]bool
	p      *bcProg

	scopes  []map[string]lval
	localCl []regClass // effective class per kernel local

	// Registers of the Ctx scalars, allocated up front; the marks say which
	// of them are read somewhere (the prologue loads those) and which are
	// assigned somewhere (the epilogue may write those back).
	ageReg    int32
	ageUsed   bool
	idxReg    []int32
	idxUsed   []bool
	localReg  []int32
	localUsed []bool
	localSet  []bool

	varI, varF, varS, varV int32 // variable watermarks per class
	tI, tF, tS, tV         int32 // temporary tops per class

	code            []rawInstr
	labels          []int32 // label -> instruction index, -1 until placed
	breakTo, contTo int32   // labels break and continue jump to
}

// lowerKernelBody checks and lowers one validated kernel's code blocks to
// bytecode. The error is a positioned compile error, or carries
// internalErrPrefix when the lowering itself panicked.
func lowerKernelBody(k *KernelDef, timers map[string]bool, fields map[string]FieldDecl) (p *bcProg, err error) {
	defer func() {
		if r := recover(); r != nil {
			p = nil
			if lf, ok := r.(lowerFail); ok {
				err = lf.err
			} else {
				err = fmt.Errorf("%s %s: %v", internalErrPrefix, k.Name, r)
			}
		}
	}()
	lo := &lowerer{k: k, timers: timers, p: &bcProg{kernel: k.Name}}
	lo.classifyLocals(fields)
	lo.allocCtxRegs()
	lo.push()
	for _, blk := range k.Blocks {
		for _, s := range blk.Stmts {
			lo.resetTmps()
			lo.stmtDiscard(s)
		}
	}
	lo.pop()
	lo.emit(opRet, 0, 0, 0, 0)
	lo.finish()
	lo.p.planLanes(k)
	return lo.p, nil
}

// classifyLocals decides the register class used to access each kernel local.
// A local stays typed only when every value the runtime can install in it has
// the declared kind with a canonical payload; otherwise it is accessed boxed.
func (lo *lowerer) classifyLocals(fields map[string]FieldDecl) {
	lo.localCl = make([]regClass, len(lo.k.Locals))
	for li := range lo.k.Locals {
		l := &lo.k.Locals[li]
		cl := kindClass(l.Kind)
		if l.Rank > 0 {
			// Array locals: the class selects typed vs boxed element access.
			// String arrays must stay boxed (unset elements read as Invalid);
			// Any arrays already are (kindClass).
			if l.Kind == field.String {
				cl = clV
			}
		}
		for _, f := range lo.k.Fetches {
			if f.Local != l.Name {
				continue
			}
			// A field of another kind (`any` on either side) installs values
			// of that kind; a string field reports unset elements as Invalid
			// values, which only a boxed register preserves.
			if fd := fields[f.Ref.Field]; fd.Kind != l.Kind || fd.Kind == field.String {
				cl = clV
			}
		}
		lo.localCl[li] = cl
	}
}

// allocCtxRegs gives the age, every index coordinate and every scalar kernel
// local its register. They come first in their class, before any block
// variable, so a first reference in the middle of an expression cannot land
// on a live temporary.
func (lo *lowerer) allocCtxRegs() {
	if lo.k.AgeVar != "" {
		lo.ageReg = lo.varReg(clI)
	}
	lo.idxReg = make([]int32, len(lo.k.Indexes))
	lo.idxUsed = make([]bool, len(lo.k.Indexes))
	for pos := range lo.k.Indexes {
		lo.idxReg[pos] = lo.varReg(clI)
	}
	n := len(lo.k.Locals)
	lo.localReg = make([]int32, n)
	lo.localUsed = make([]bool, n)
	lo.localSet = make([]bool, n)
	for li := range lo.k.Locals {
		if lo.k.Locals[li].Rank == 0 {
			lo.localReg[li] = lo.varReg(lo.localCl[li])
		}
	}
}

// finish records the prologue loads and epilogue write-backs for the Ctx
// scalars the body turned out to name, and resolves constants and labels.
func (lo *lowerer) finish() {
	p := lo.p
	if lo.ageUsed {
		p.loads = append(p.loads, bcLoad{from: fromAge, cl: clI, reg: lo.ageReg})
	}
	for pos, used := range lo.idxUsed {
		if used {
			p.loads = append(p.loads, bcLoad{from: fromCoord, idx: int32(pos), cl: clI, reg: lo.idxReg[pos]})
		}
	}
	for li := range lo.k.Locals {
		if lo.localUsed[li] {
			p.loads = append(p.loads, bcLoad{from: fromLocal, idx: int32(li), cl: lo.localCl[li], reg: lo.localReg[li]})
		}
		if lo.localSet[li] {
			p.stores = append(p.stores, bcStore{li: int32(li), cl: lo.localCl[li], kind: lo.k.Locals[li].Kind, reg: lo.localReg[li]})
		}
	}
	p.arrCl = lo.localCl
	// An operand that names a register (variable, temporary or constant), a
	// kernel local or a timer is one byte: the executor's one limit.
	for _, c := range []struct {
		what string
		n    int
	}{
		{"int registers", p.nI + len(p.ints)}, {"float registers", p.nF + len(p.floats)},
		{"string registers", p.nS + len(p.strs)}, {"boxed registers", p.nV},
		{"locals", len(lo.k.Locals)}, {"timers", len(p.timerNames)},
	} {
		if c.n > maxRegs {
			lo.failf(lo.k.Tok, "kernel %s needs %d %s, the limit is %d", lo.k.Name, c.n, c.what, maxRegs)
		}
	}
	p.finish(lo.code, lo.labels)
}

// ---- infrastructure ----

func (lo *lowerer) failf(tok Token, format string, args ...any) {
	panic(lowerFail{err: errAt(tok, format, args...)})
}

func (lo *lowerer) push() { lo.scopes = append(lo.scopes, map[string]lval{}) }
func (lo *lowerer) pop()  { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) clsPtrs(cl regClass) (vp, tp *int32, np *int) {
	switch cl {
	case clI:
		return &lo.varI, &lo.tI, &lo.p.nI
	case clF:
		return &lo.varF, &lo.tF, &lo.p.nF
	case clS:
		return &lo.varS, &lo.tS, &lo.p.nS
	default:
		return &lo.varV, &lo.tV, &lo.p.nV
	}
}

// varReg allocates a variable register: monotonic, never reclaimed, so a
// variable's register outlives its scope.
// It is only called at a statement boundary, when no temporary is live.
func (lo *lowerer) varReg(cl regClass) int32 {
	vp, tp, np := lo.clsPtrs(cl)
	r := *vp
	(*vp)++
	if *tp < *vp {
		*tp = *vp
	}
	if int(*vp) > *np {
		*np = int(*vp)
	}
	return r
}

// tmp allocates a temporary above the variable watermark; resetTmps recycles
// all temporaries at each statement boundary.
func (lo *lowerer) tmp(cl regClass) int32 {
	_, tp, np := lo.clsPtrs(cl)
	r := *tp
	(*tp)++
	if int(*tp) > *np {
		*np = int(*tp)
	}
	return r
}

// tmpBlockI allocates n contiguous int temporaries (array coordinates).
func (lo *lowerer) tmpBlockI(n int) int32 {
	base := lo.tI
	lo.tI += int32(n)
	if int(lo.tI) > lo.p.nI {
		lo.p.nI = int(lo.tI)
	}
	return base
}

func (lo *lowerer) resetTmps() {
	lo.tI, lo.tF, lo.tS, lo.tV = lo.varI, lo.varF, lo.varS, lo.varV
}

// out picks the register an expression's last instruction writes: the wanted
// destination when the instruction produces exactly its class and kind (any
// float kind has the same payload), a temporary otherwise. Boxed
// destinations always convert, so they never match.
func (lo *lowerer) out(d *lval, cl regClass, kind field.Kind) int32 {
	if d != nil && d.cl == cl && (cl == clF || cl == clS || (cl == clI && d.kind == kind)) {
		return d.reg
	}
	return lo.tmp(cl)
}

func (lo *lowerer) emit(op opcode, a, b, c, d int32) {
	lo.code = append(lo.code, rawInstr{op: op, a: a, b: b, c: c, d: d})
}

// jump emits a jump or branch on registers a and b to the label target.
func (lo *lowerer) jump(op opcode, a, b, target int32) { lo.emit(op, a, b, 0, target) }

// newLabel makes a jump target; jumps carry the label until bcProg.finish.
func (lo *lowerer) newLabel() int32 {
	lo.labels = append(lo.labels, -1)
	return int32(len(lo.labels) - 1)
}

// place puts the label at the next instruction.
func (lo *lowerer) place(l int32) { lo.labels[l] = int32(len(lo.code)) }

func (lo *lowerer) emitMov(cl regClass, dst, src int32) {
	if dst == src {
		return
	}
	switch cl {
	case clI:
		lo.emit(opMovI, dst, src, 0, 0)
	case clF:
		lo.emit(opMovF, dst, src, 0, 0)
	case clS:
		lo.emit(opMovS, dst, src, 0, 0)
	default:
		lo.emit(opMovV, dst, src, 0, 0)
	}
}

func (lo *lowerer) intLit(x int64, kind field.Kind) lval {
	return lval{cl: clI, kind: kind, reg: lo.p.intConst(x)}
}

func (lo *lowerer) floatLit(x float64) lval {
	return lval{cl: clF, kind: field.Float64, reg: lo.p.floatConst(x)}
}

// constInt reports the value of an int-class constant.
func (lo *lowerer) constInt(v lval) (int64, bool) {
	if v.cl != clI || v.reg >= 0 {
		return 0, false
	}
	return lo.p.ints[^v.reg], true
}

// emitRuntimeErr lowers an expression that unconditionally errors when
// reached (these are runtime errors, not compile errors: `%` on floats, `-`
// on strings). Code after the opErr is unreachable; the dummy value keeps the
// lowering well-formed.
func (lo *lowerer) emitRuntimeErr(err error) lval {
	lo.emit(opErr, 0, 0, 0, lo.p.errConst(err))
	return lo.intLit(0, field.Int64)
}

// resolve classifies an identifier: block scopes innermost-first, then kernel
// locals, the age variable, index variables, timers, endl.
func (lo *lowerer) resolve(name string) lref {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if sl, ok := lo.scopes[i][name]; ok {
			return lref{kind: vSlot, slot: sl, typ: sl.kind}
		}
	}
	for li := range lo.k.Locals {
		l := &lo.k.Locals[li]
		if l.Name == name {
			if l.Rank > 0 {
				return lref{kind: vArray, li: li, typ: l.Kind}
			}
			// Typed registers carry the declared kind; a boxed local's kind
			// is whatever the runtime installed.
			cl, kind := lo.localCl[li], l.Kind
			if cl == clV {
				kind = field.Any
			}
			return lref{kind: vLocal, slot: lval{cl: cl, kind: kind, reg: lo.localReg[li]}, li: li, typ: l.Kind}
		}
	}
	if name == lo.k.AgeVar && name != "" {
		return lref{kind: vAge, slot: lval{cl: clI, kind: field.Int64, reg: lo.ageReg}}
	}
	for pos, iv := range lo.k.Indexes {
		if iv == name {
			return lref{kind: vIndex, slot: lval{cl: clI, kind: field.Int64, reg: lo.idxReg[pos]}, li: pos}
		}
	}
	if lo.timers[name] {
		return lref{kind: vTimer}
	}
	if name == "endl" {
		return lref{kind: vEndl}
	}
	return lref{kind: vUnknown}
}

// ---- statements ----

// stmtDiscard lowers a statement that is not inside the loop body it could
// break out of (top-level statements, for-loop init and post clauses): a break
// or continue in it that escapes every loop of its own ends the statement,
// and execution goes on after it.
func (lo *lowerer) stmtDiscard(s Stmt) {
	savedBreak, savedCont := lo.breakTo, lo.contTo
	end := lo.newLabel()
	lo.breakTo, lo.contTo = end, end
	lo.stmt(s)
	lo.place(end)
	lo.breakTo, lo.contTo = savedBreak, savedCont
}

func (lo *lowerer) stmt(s Stmt) {
	switch st := s.(type) {
	case DeclStmt:
		// The register exists before the initializer is lowered, the name
		// only after it, so `int x = x;` resolves the outer x.
		cl := kindClass(st.Kind)
		sl := lval{cl: cl, kind: st.Kind, reg: lo.varReg(cl)}
		if st.Init != nil {
			lo.assignTo(sl, st.Init)
		} else {
			lo.storeZero(sl)
		}
		top := lo.scopes[len(lo.scopes)-1]
		if _, dup := top[st.Name]; dup {
			lo.failf(st.Tok, "variable %q redeclared in the same scope", st.Name)
		}
		top[st.Name] = sl

	case AssignStmt:
		lo.assign(st)

	case IncStmt:
		lo.incStmt(st)

	case IfStmt:
		els := lo.newLabel()
		lo.cond(st.Cond, els, false)
		lo.blockStmt(st.Then)
		if st.Else != nil {
			end := lo.newLabel()
			lo.jump(opJmp, 0, 0, end)
			lo.place(els)
			lo.blockStmt(*st.Else)
			lo.place(end)
		} else {
			lo.place(els)
		}

	case WhileStmt:
		lo.loop(nil, st.Cond, nil, st.Body)

	case ForStmt:
		lo.push()
		lo.loop(st.Init, st.Cond, st.Post, st.Body)
		lo.pop()

	case BreakStmt:
		lo.jump(opJmp, 0, 0, lo.breakTo)

	case ContinueStmt:
		lo.jump(opJmp, 0, 0, lo.contTo)

	case StopStmt:
		lo.emit(opStop, 0, 0, 0, 0)

	case CoutStmt:
		lo.emit(opCoutClear, 0, 0, 0, 0)
		for _, a := range st.Args {
			v := lo.expr(a)
			switch v.cl {
			case clI:
				if v.kind == field.Bool {
					lo.emit(opCoutB, v.reg, 0, 0, 0)
				} else {
					lo.emit(opCoutI, v.reg, 0, 0, 0)
				}
			case clF:
				lo.emit(opCoutF, v.reg, 0, 0, 0)
			case clS:
				lo.emit(opCoutS, v.reg, 0, 0, 0)
			default:
				lo.emit(opCoutV, v.reg, 0, 0, 0)
			}
		}
		lo.emit(opCoutFlush, 0, 0, 0, 0)

	case ExprStmt:
		lo.expr(st.X)

	case Block:
		lo.blockStmt(st)

	default:
		panic(fmt.Sprintf("unhandled statement %T", s))
	}
}

func (lo *lowerer) blockStmt(b Block) {
	lo.push()
	for _, s := range b.Stmts {
		lo.resetTmps()
		lo.stmt(s)
	}
	lo.pop()
}

// loop lowers while (init and post nil) and for loops inverted: the test sits
// below the body and jumps back up while it holds, and entry jumps down to
// it, so the condition is lowered once and an iteration takes one jump.
//
//	      init
//	      jmp test
//	body: ...
//	cont: post
//	test: if cond -> body
//	end:
func (lo *lowerer) loop(init Stmt, cond Expr, post Stmt, body Block) {
	if init != nil {
		lo.resetTmps()
		lo.stmtDiscard(init)
	}
	top, cont, test, end := lo.newLabel(), lo.newLabel(), lo.newLabel(), lo.newLabel()
	if cond != nil {
		lo.jump(opJmp, 0, 0, test)
	}
	lo.place(top)
	savedBreak, savedCont := lo.breakTo, lo.contTo
	lo.breakTo, lo.contTo = end, cont
	lo.blockStmt(body)
	lo.breakTo, lo.contTo = savedBreak, savedCont
	lo.place(cont)
	if post != nil {
		lo.resetTmps()
		lo.stmtDiscard(post)
	}
	lo.place(test)
	if cond != nil {
		lo.resetTmps()
		lo.cond(cond, top, true)
	} else {
		lo.jump(opJmp, 0, 0, top)
	}
	lo.place(end)
}

// assign lowers `name op= expr`, including the timer form `t1 = now`.
func (lo *lowerer) assign(st AssignStmt) {
	ref := lo.resolve(st.Name)
	if ref.kind == vTimer {
		if st.Op != "=" {
			lo.failf(st.Tok, "timers only support plain assignment")
		}
		if id, ok := st.Val.(Ident); !ok || id.Name != "now" {
			lo.failf(st.Tok, "timers can only be assigned `now`")
		}
		lo.emit(opResetTimer, lo.p.timerConst(st.Name), 0, 0, 0)
		return
	}
	if st.Op == "=" {
		lo.assignTo(lo.target(st.Tok, st.Name, ref), st.Val)
		lo.assigned(ref)
		return
	}
	// Compound assignment: read the old value first, then evaluate the right
	// side, then combine.
	old := lo.readRef(st.Tok, st.Name, ref)
	if ref.kind != vSlot && ref.kind != vLocal {
		lo.failf(st.Tok, "cannot modify %q", st.Name)
	}
	dst := lo.target(st.Tok, st.Name, ref)
	rhs := lo.expr(st.Val)
	lo.store(dst, lo.arithLower(st.Tok, st.Op[:1], old, rhs, &dst))
	lo.assigned(ref)
}

func (lo *lowerer) incStmt(st IncStmt) {
	ref := lo.resolve(st.Name)
	old := lo.readRef(st.Tok, st.Name, ref)
	if ref.kind != vSlot && ref.kind != vLocal {
		lo.failf(st.Tok, "cannot modify %q", st.Name)
	}
	dst := lo.target(st.Tok, st.Name, ref)
	delta := int64(1)
	if st.Op == "--" {
		delta = -1
	}
	var nv lval
	switch old.cl {
	case clF:
		nv = lval{cl: clF, kind: field.Float64, reg: lo.out(&dst, clF, field.Float64)}
		lo.emit(opAddF, nv.reg, old.reg, lo.p.floatConst(float64(delta)), 0)
	case clI:
		nv = lval{cl: clI, kind: field.Int64, reg: lo.out(&dst, clI, field.Int64)}
		lo.emit(opAddKI, nv.reg, old.reg, 0, int32(delta))
	case clS:
		// String payloads read as integer 0, so the increment is the delta.
		nv = lo.intLit(delta, field.Int64)
	default:
		nv = lval{cl: clV, kind: field.Any, reg: lo.tmp(clV)}
		lo.emit(opIncV, nv.reg, old.reg, 0, int32(delta))
	}
	lo.store(dst, nv)
	lo.assigned(ref)
}

// target returns the register an assignment to the resolved variable writes,
// with the variable's declared kind (a boxed local reads as dynamic).
func (lo *lowerer) target(tok Token, name string, ref lref) lval {
	switch ref.kind {
	case vSlot, vLocal:
		return lval{cl: ref.slot.cl, kind: ref.typ, reg: ref.slot.reg}
	case vAge, vIndex:
		lo.failf(tok, "%q is read-only", name)
	case vArray:
		lo.failf(tok, "assign to array %q with put()", name)
	}
	lo.failf(tok, "undefined variable %q", name)
	panic("unreachable")
}

// assigned follows every write of a variable's register: a kernel local is
// marked so the epilogue writes it back and binds it.
func (lo *lowerer) assigned(ref lref) {
	if ref.kind == vLocal {
		lo.localSet[ref.li] = true
		lo.emit(opBind, int32(ref.li), 0, 0, 0)
	}
}

// assignTo lowers x into the variable register dst with Convert(dst.kind)
// semantics.
func (lo *lowerer) assignTo(dst lval, x Expr) {
	lo.store(dst, lo.exprTo(x, &dst))
}

// store puts v, converted to dst's kind, into the variable register dst; it
// emits nothing when v already landed there.
func (lo *lowerer) store(dst, v lval) {
	if dst.cl == clV {
		bv := lo.toBoxed(v)
		lo.emit(opConvV, dst.reg, bv.reg, int32(dst.kind), 0)
		return
	}
	cv := lo.convert(v, dst.kind, &dst)
	lo.emitMov(dst.cl, dst.reg, cv.reg)
}

func (lo *lowerer) storeZero(sl lval) {
	switch sl.cl {
	case clI:
		lo.emit(opMovI, sl.reg, lo.p.intConst(0), 0, 0)
	case clF:
		lo.emit(opMovF, sl.reg, lo.p.floatConst(0), 0, 0)
	case clS:
		lo.emit(opMovS, sl.reg, lo.p.strConst(""), 0, 0)
	default:
		lo.emit(opZeroV, sl.reg, int32(sl.kind), 0, 0)
	}
}

// readRef lowers a read of a resolved identifier. Variables, locals, the age
// and the coordinates are read in place: no statement can overwrite a
// register in the middle of an expression. A Ctx scalar that is read
// anywhere is loaded by the prologue.
func (lo *lowerer) readRef(tok Token, name string, ref lref) lval {
	switch ref.kind {
	case vSlot:
		return ref.slot
	case vLocal:
		lo.localUsed[ref.li] = true
		return ref.slot
	case vAge:
		lo.ageUsed = true
		return ref.slot
	case vIndex:
		lo.idxUsed[ref.li] = true
		return ref.slot
	case vEndl:
		return lval{cl: clS, kind: field.String, reg: lo.p.strConst("\n")}
	case vArray:
		lo.failf(tok, "array %q must be accessed with get()/put()/extent()", name)
	}
	lo.failf(tok, "undefined variable %q", name)
	panic("unreachable")
}

// ---- expressions ----

func (lo *lowerer) expr(x Expr) lval { return lo.exprTo(x, nil) }

// exprTo lowers x for its value. d, when non-nil, is where the caller wants
// it: only the expression's last instruction may write d's register (see
// out), operands are always lowered with no destination.
func (lo *lowerer) exprTo(x Expr, d *lval) lval {
	switch ex := x.(type) {
	case IntLit:
		return lo.intLit(ex.V, field.Int64)
	case FloatLit:
		return lo.floatLit(ex.V)
	case StrLit:
		return lval{cl: clS, kind: field.String, reg: lo.p.strConst(ex.V)}
	case Ident:
		return lo.readRef(ex.Tok, ex.Name, lo.resolve(ex.Name))
	case UnExpr:
		return lo.unary(ex, d)
	case BinExpr:
		if ex.Op == "&&" || ex.Op == "||" {
			return lo.shortCircuit(ex, d)
		}
		l := lo.expr(ex.L)
		r := lo.expr(ex.R)
		return lo.arithLower(ex.Tok, ex.Op, l, r, d)
	case CallExpr:
		return lo.call(ex, d)
	}
	panic(fmt.Sprintf("unhandled expression %T", x))
}

func (lo *lowerer) unary(ex UnExpr, d *lval) lval {
	v := lo.expr(ex.X)
	if ex.Op == "!" {
		if v.cl == clS {
			// Strings are always falsy (their integer payload is 0).
			return lo.intLit(1, field.Bool)
		}
		dst := lo.out(d, clI, field.Bool)
		switch v.cl {
		case clI:
			lo.emit(opNotI, dst, v.reg, 0, 0)
		case clF:
			lo.emit(opNotF, dst, v.reg, 0, 0)
		default:
			lo.emit(opNotV, dst, v.reg, 0, 0)
		}
		return lval{cl: clI, kind: field.Bool, reg: dst}
	}
	// Unary minus; a negated literal is just another constant.
	switch v.cl {
	case clF:
		if v.reg < 0 {
			return lo.floatLit(-lo.p.floats[^v.reg])
		}
		dst := lo.out(d, clF, field.Float64)
		lo.emit(opNegF, dst, v.reg, 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	case clI:
		if c, ok := lo.constInt(v); ok {
			return lo.intLit(-c, field.Int64)
		}
		dst := lo.out(d, clI, field.Int64)
		lo.emit(opNegI, dst, v.reg, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	case clS:
		return lo.intLit(0, field.Int64)
	default:
		dst := lo.tmp(clV)
		lo.emit(opNegV, dst, v.reg, 0, 0)
		return lval{cl: clV, kind: field.Any, reg: dst}
	}
}

// shortCircuit lowers && and || for their value; the result is always Bool.
func (lo *lowerer) shortCircuit(ex BinExpr, d *lval) lval {
	res := lval{cl: clI, kind: field.Bool, reg: lo.out(d, clI, field.Bool)}
	isOr := ex.Op == "||"
	short, end := lo.newLabel(), lo.newLabel()
	lo.cond(ex.L, short, isOr)
	r := lo.exprTo(ex.R, &res)
	if r.reg != res.reg {
		lo.boolInto(res.reg, r)
	}
	lo.jump(opJmp, 0, 0, end)
	lo.place(short)
	lo.emit(opMovI, res.reg, lo.p.intConst(b2i(isOr)), 0, 0)
	lo.place(end)
	return res
}

// cond lowers x in branch context: jump to target when the truth of x equals
// sense, fall through otherwise. Nothing is materialized for comparisons,
// !, && and ||.
func (lo *lowerer) cond(x Expr, target int32, sense bool) {
	switch ex := x.(type) {
	case UnExpr:
		if ex.Op == "!" {
			lo.cond(ex.X, target, !sense)
			return
		}
	case BinExpr:
		switch {
		case ex.Op == "&&" || ex.Op == "||":
			if (ex.Op == "||") == sense {
				// Either operand takes the jump on its own.
				lo.cond(ex.L, target, sense)
				lo.cond(ex.R, target, sense)
			} else {
				// The left operand alone can only rule the jump out.
				skip := lo.newLabel()
				lo.cond(ex.L, skip, !sense)
				lo.cond(ex.R, target, sense)
				lo.place(skip)
			}
			return
		case isCmpOp(ex.Op):
			l := lo.expr(ex.L)
			r := lo.expr(ex.R)
			if !lo.cmpBranch(ex.Op, l, r, target, sense) {
				lo.truthyJump(lo.arithLower(ex.Tok, ex.Op, l, r, nil), target, sense)
			}
			return
		}
	}
	lo.truthyJump(lo.expr(x), target, sense)
}

// cmpBranch emits the fused compare-and-branch for typed numeric operands
// and reports false for boxed and string comparisons, which go through the
// value form.
func (lo *lowerer) cmpBranch(op string, l, r lval, target int32, sense bool) bool {
	if l.cl == clV || r.cl == clV || l.kind == field.String || r.kind == field.String {
		return false
	}
	if !sense {
		op = negatedCmp(op)
	}
	ops := [4]opcode{opJeqI, opJneI, opJltI, opJleI}
	if l.kind.Float() || r.kind.Float() {
		l, r = lo.floatPayload(l, nil), lo.floatPayload(r, nil)
		ops = [4]opcode{opJeqF, opJneF, opJltF, opJleF}
	}
	k, l, r := cmpSelect(op, l, r)
	lo.jump(ops[k], l.reg, r.reg, target)
	return true
}

// cmpSelect maps a comparison onto the four the VM has — 0 ==, 1 !=, 2 <,
// 3 <= — swapping the operands of > and >=.
func cmpSelect(op string, l, r lval) (int, lval, lval) {
	switch op {
	case "==":
		return 0, l, r
	case "!=":
		return 1, l, r
	case "<":
		return 2, l, r
	case "<=":
		return 3, l, r
	case ">":
		return 2, r, l
	default:
		return 3, r, l
	}
}

// negatedCmp is the comparison that holds exactly when op does not — also
// under the float order, where NaN makes ==, <= and >= all true.
func negatedCmp(op string) string {
	switch op {
	case "==":
		return "!="
	case "!=":
		return "=="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	default:
		return "<"
	}
}

// truthyJump jumps to target when the truth value of v equals sense.
func (lo *lowerer) truthyJump(v lval, target int32, sense bool) {
	jz, jnz := opJzV, opJnzV
	switch v.cl {
	case clI:
		jz, jnz = opJzI, opJnzI
	case clF:
		jz, jnz = opJzF, opJnzF
	case clS:
		// Strings are always falsy.
		if !sense {
			lo.jump(opJmp, 0, 0, target)
		}
		return
	}
	if sense {
		lo.jump(jnz, v.reg, 0, target)
	} else {
		lo.jump(jz, v.reg, 0, target)
	}
}

// boolInto normalizes v to 0/1 in the int register dst.
func (lo *lowerer) boolInto(dst int32, v lval) {
	switch v.cl {
	case clI:
		if v.kind == field.Bool {
			lo.emitMov(clI, dst, v.reg)
		} else {
			lo.emit(opBoolI, dst, v.reg, 0, 0)
		}
	case clF:
		lo.emit(opBoolF, dst, v.reg, 0, 0)
	case clS:
		lo.emit(opMovI, dst, lo.p.intConst(0), 0, 0)
	default:
		lo.emit(opBoolV, dst, v.reg, 0, 0)
	}
}

// ---- arithmetic ----

func isCmpOp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// cmpValue emits a comparison for its 0/1 value, given the class's ==, !=,
// < and <= opcodes.
func (lo *lowerer) cmpValue(op string, ops [4]opcode, l, r lval, d *lval) lval {
	k, l, r := cmpSelect(op, l, r)
	dst := lo.out(d, clI, field.Bool)
	lo.emit(ops[k], dst, l.reg, r.reg, 0)
	return lval{cl: clI, kind: field.Bool, reg: dst}
}

// arithLower lowers a binary operator with arith()'s promotion rules: strings first (+, ==, != only), then float promotion, then
// int64. Any boxed operand routes through opArithV, which calls arith()
// itself at runtime.
func (lo *lowerer) arithLower(tok Token, op string, l, r lval, d *lval) lval {
	if l.cl == clV || r.cl == clV {
		lb := lo.toBoxed(l)
		rb := lo.toBoxed(r)
		dst := lo.tmp(clV)
		lo.emit(opArithV, dst, lb.reg, rb.reg, lo.p.siteConst(op, tok))
		return lval{cl: clV, kind: field.Any, reg: dst}
	}
	if l.kind == field.String || r.kind == field.String {
		switch op {
		case "+":
			ls := lo.toStr(l, nil)
			rs := lo.toStr(r, nil)
			dst := lo.out(d, clS, field.String)
			lo.emit(opConcatS, dst, ls.reg, rs.reg, 0)
			return lval{cl: clS, kind: field.String, reg: dst}
		case "==", "!=":
			return lo.cmpValue(op, [4]opcode{opEqS, opNeS}, lo.toStr(l, nil), lo.toStr(r, nil), d)
		default:
			return lo.emitRuntimeErr(errAt(tok, "operator %q not defined on strings", op))
		}
	}
	if l.kind.Float() || r.kind.Float() {
		la := lo.floatPayload(l, nil)
		ra := lo.floatPayload(r, nil)
		if isCmpOp(op) {
			return lo.cmpValue(op, [4]opcode{opEqF, opNeF, opLtF, opLeF}, la, ra, d)
		}
		var fop opcode
		var eidx int32
		switch op {
		case "+":
			fop = opAddF
		case "-":
			fop = opSubF
		case "*":
			fop = opMulF
		case "/":
			fop, eidx = opDivF, lo.p.errConst(errAt(tok, "division by zero"))
		case "%":
			return lo.emitRuntimeErr(errAt(tok, "%% is not defined on floats"))
		default:
			return lo.emitRuntimeErr(errAt(tok, "unknown operator %q", op))
		}
		dst := lo.out(d, clF, field.Float64)
		lo.emit(fop, dst, la.reg, ra.reg, eidx)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	}
	// Integer path: both operands are int-class, payloads already Int64().
	if isCmpOp(op) {
		return lo.cmpValue(op, [4]opcode{opEqI, opNeI, opLtI, opLeI}, l, r, d)
	}
	var iop opcode
	var eidx int32
	switch op {
	case "+", "-":
		// A literal operand that fits becomes the add-immediate.
		if c, ok := lo.constInt(r); ok {
			if op == "-" {
				c = -c
			}
			if c == int64(int32(c)) {
				return lo.addImm(l, c, d)
			}
		} else if c, ok := lo.constInt(l); ok && op == "+" && c == int64(int32(c)) {
			return lo.addImm(r, c, d)
		}
		iop = opAddI
		if op == "-" {
			iop = opSubI
		}
	case "*":
		iop = opMulI
	case "/":
		iop, eidx = opDivI, lo.p.errConst(errAt(tok, "division by zero"))
	case "%":
		iop, eidx = opModI, lo.p.errConst(errAt(tok, "modulo by zero"))
	default:
		return lo.emitRuntimeErr(errAt(tok, "unknown operator %q", op))
	}
	dst := lo.out(d, clI, field.Int64)
	lo.emit(iop, dst, l.reg, r.reg, eidx)
	return lval{cl: clI, kind: field.Int64, reg: dst}
}

func (lo *lowerer) addImm(v lval, c int64, d *lval) lval {
	dst := lo.out(d, clI, field.Int64)
	lo.emit(opAddKI, dst, v.reg, 0, int32(c))
	return lval{cl: clI, kind: field.Int64, reg: dst}
}

// ---- conversions ----

// convert produces v coerced to kind k (Value.Convert semantics) in k's
// register class. clV targets are handled by the callers via opConvV.
func (lo *lowerer) convert(v lval, k field.Kind, d *lval) lval {
	if v.cl != clV && v.kind == k {
		return v
	}
	switch k {
	case field.Bool:
		dst := lo.out(d, clI, field.Bool)
		lo.boolInto(dst, v)
		return lval{cl: clI, kind: field.Bool, reg: dst}
	case field.Int64:
		p := lo.intPayload(v, d)
		return lval{cl: clI, kind: k, reg: p.reg}
	case field.Int32:
		p := lo.intPayload(v, nil)
		dst := lo.out(d, clI, k)
		lo.emit(opTrunc32, dst, p.reg, 0, 0)
		return lval{cl: clI, kind: k, reg: dst}
	case field.Uint8:
		p := lo.intPayload(v, nil)
		dst := lo.out(d, clI, k)
		lo.emit(opTruncU8, dst, p.reg, 0, 0)
		return lval{cl: clI, kind: k, reg: dst}
	case field.Float32, field.Float64:
		p := lo.floatPayload(v, d)
		return lval{cl: clF, kind: k, reg: p.reg}
	case field.String:
		s := lo.toStr(v, d)
		return lval{cl: clS, kind: field.String, reg: s.reg}
	}
	panic(fmt.Sprintf("cannot convert to kind %v in registers", k))
}

// intPayload produces Value.Int64() of v in an int register.
func (lo *lowerer) intPayload(v lval, d *lval) lval {
	switch v.cl {
	case clI:
		return v
	case clF:
		if v.reg < 0 {
			return lo.intLit(int64(lo.p.floats[^v.reg]), field.Int64)
		}
		dst := lo.out(d, clI, field.Int64)
		lo.emit(opF2I, dst, v.reg, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	case clS:
		return lo.intLit(0, field.Int64)
	default:
		dst := lo.out(d, clI, field.Int64)
		lo.emit(opUnboxVI, dst, v.reg, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	}
}

// floatPayload produces Value.Float64() of v in a float register.
func (lo *lowerer) floatPayload(v lval, d *lval) lval {
	switch v.cl {
	case clF:
		return v
	case clI:
		if c, ok := lo.constInt(v); ok {
			return lo.floatLit(float64(c))
		}
		dst := lo.out(d, clF, field.Float64)
		lo.emit(opI2F, dst, v.reg, 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	case clS:
		return lo.floatLit(0)
	default:
		dst := lo.out(d, clF, field.Float64)
		lo.emit(opUnboxVF, dst, v.reg, 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	}
}

// toStr produces Value.String() of v in a string register.
func (lo *lowerer) toStr(v lval, d *lval) lval {
	if v.cl == clS {
		return v
	}
	dst := lo.out(d, clS, field.String)
	switch v.cl {
	case clI:
		if v.kind == field.Bool {
			lo.emit(opB2S, dst, v.reg, 0, 0)
		} else {
			lo.emit(opI2S, dst, v.reg, 0, 0)
		}
	case clF:
		lo.emit(opF2S, dst, v.reg, 0, 0)
	default:
		lo.emit(opV2S, dst, v.reg, 0, 0)
	}
	return lval{cl: clS, kind: field.String, reg: dst}
}

// toBoxed produces v as a boxed field.Value in a V register, preserving its
// static kind exactly (payloads are canonical, so no conversion is applied).
func (lo *lowerer) toBoxed(v lval) lval {
	if v.cl == clV {
		return v
	}
	dst := lo.tmp(clV)
	switch v.cl {
	case clI:
		lo.emit(opBoxI, dst, v.reg, int32(v.kind), 0)
	case clF:
		lo.emit(opBoxF, dst, v.reg, int32(v.kind), 0)
	default:
		lo.emit(opBoxS, dst, v.reg, int32(v.kind), 0)
	}
	return lval{cl: clV, kind: v.kind, reg: dst}
}

// ---- builtin calls ----

func (lo *lowerer) call(ex CallExpr, d *lval) lval {
	argIdent := func(i int) string {
		if i >= len(ex.Args) {
			lo.failf(ex.Tok, "%s: missing argument %d", ex.Name, i+1)
		}
		id, ok := ex.Args[i].(Ident)
		if !ok {
			lo.failf(ex.Tok, "%s: argument %d must be a name", ex.Name, i+1)
		}
		return id.Name
	}
	wantArgs := func(n int) {
		if len(ex.Args) != n {
			lo.failf(ex.Tok, "%s expects %d argument(s), got %d", ex.Name, n, len(ex.Args))
		}
	}
	arrayArg := func() lref {
		name := argIdent(0)
		ref := lo.resolve(name)
		if ref.kind != vArray {
			lo.failf(ex.Tok, "%s: %q is not an array local", ex.Name, name)
		}
		return ref
	}

	switch ex.Name {
	case "put": // put(arr, value, idx...)
		ref := arrayArg()
		if len(ex.Args) < 3 {
			lo.failf(ex.Tok, "put expects (array, value, index...)")
		}
		val := lo.expr(ex.Args[1])
		idx, n := lo.coords(ref, ex.Args[2:])
		li := int32(ref.li)
		switch {
		case n < 0:
			lo.emit(opPutV, li, lo.toBoxed(val).reg, idx[0], int32(len(ex.Args)-2))
		case lo.localCl[ref.li] == clF:
			lo.emit([...]opcode{opPutF1, opPutF2}[n-1], li, lo.floatPayload(val, nil).reg, idx[0], idx[1])
		default:
			// The register carries the payload and the store truncates to
			// the element width like slab.set, but Bool normalization needs
			// the truth value, not the integer payload.
			var pv lval
			if ref.typ == field.Bool {
				pv = lo.convert(val, field.Bool, nil)
			} else {
				pv = lo.intPayload(val, nil)
			}
			lo.emit([...]opcode{opPutI1, opPutI2}[n-1], li, pv.reg, idx[0], idx[1])
		}
		return val

	case "get": // get(arr, idx...)
		ref := arrayArg()
		if len(ex.Args) < 2 {
			lo.failf(ex.Tok, "get expects (array, index...)")
		}
		idx, n := lo.coords(ref, ex.Args[1:])
		li := int32(ref.li)
		cl := lo.localCl[ref.li]
		if n < 0 {
			bv := lval{cl: clV, kind: field.Any, reg: lo.tmp(clV)}
			lo.emit(opGetV, bv.reg, li, idx[0], int32(len(ex.Args)-1))
			// A typed array of rank three or more: the element has the
			// declared kind, so unboxing it is exact.
			switch cl {
			case clI:
				dst := lo.out(d, clI, ref.typ)
				lo.emit(opUnboxVI, dst, bv.reg, 0, 0)
				return lval{cl: clI, kind: ref.typ, reg: dst}
			case clF:
				dst := lo.out(d, clF, ref.typ)
				lo.emit(opUnboxVF, dst, bv.reg, 0, 0)
				return lval{cl: clF, kind: ref.typ, reg: dst}
			}
			return bv
		}
		if cl == clF {
			dst := lo.out(d, clF, ref.typ)
			lo.emit([...]opcode{opGetF1, opGetF2}[n-1], dst, li, idx[0], idx[1])
			return lval{cl: clF, kind: ref.typ, reg: dst}
		}
		dst := lo.out(d, clI, ref.typ)
		lo.emit([...]opcode{opGetI1, opGetI2}[n-1], dst, li, idx[0], idx[1])
		return lval{cl: clI, kind: ref.typ, reg: dst}

	case "extent": // extent(arr, dim)
		ref := arrayArg()
		wantArgs(2)
		p := lo.intPayload(lo.expr(ex.Args[1]), nil)
		dst := lo.out(d, clI, field.Int64)
		lo.emit(opExtent, dst, int32(ref.li), p.reg, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}

	case "sqrt", "floor", "cos", "sin":
		wantArgs(1)
		fa := lo.floatPayload(lo.expr(ex.Args[0]), nil)
		dst := lo.out(d, clF, field.Float64)
		switch ex.Name {
		case "sqrt":
			lo.emit(opSqrtF, dst, fa.reg, 0, lo.p.errConst(errAt(ex.Tok, "sqrt of negative value")))
		case "floor":
			lo.emit(opFloorF, dst, fa.reg, 0, 0)
		case "cos":
			lo.emit(opCosF, dst, fa.reg, 0, 0)
		default:
			lo.emit(opSinF, dst, fa.reg, 0, 0)
		}
		return lval{cl: clF, kind: field.Float64, reg: dst}

	case "abs":
		wantArgs(1)
		arg := lo.expr(ex.Args[0])
		switch arg.cl {
		case clV:
			dst := lo.tmp(clV)
			lo.emit(opAbsV, dst, arg.reg, 0, 0)
			return lval{cl: clV, kind: field.Any, reg: dst}
		case clF:
			dst := lo.out(d, clF, field.Float64)
			lo.emit(opAbsF, dst, arg.reg, 0, 0)
			return lval{cl: clF, kind: field.Float64, reg: dst}
		case clS:
			// abs(string): integer payload 0.
			return lo.intLit(0, field.Int64)
		default:
			dst := lo.out(d, clI, field.Int64)
			lo.emit(opAbsI, dst, arg.reg, 0, 0)
			return lval{cl: clI, kind: field.Int64, reg: dst}
		}

	case "min", "max":
		wantArgs(2)
		a := lo.expr(ex.Args[0])
		b := lo.expr(ex.Args[1])
		return lo.minMax(ex.Name, a, b, d)

	case "pow":
		wantArgs(2)
		fa := lo.floatPayload(lo.expr(ex.Args[0]), nil)
		fb := lo.floatPayload(lo.expr(ex.Args[1]), nil)
		dst := lo.out(d, clF, field.Float64)
		lo.emit(opPowF, dst, fa.reg, fb.reg, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}

	case "now":
		wantArgs(0)
		dst := lo.out(d, clI, field.Int64)
		lo.emit(opNow, dst, 0, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}

	case "expired": // expired(timer, ms)
		name := argIdent(0)
		if lo.resolve(name).kind != vTimer {
			lo.failf(ex.Tok, "expired: %q is not a declared timer", name)
		}
		wantArgs(2)
		p := lo.intPayload(lo.expr(ex.Args[1]), nil)
		dst := lo.out(d, clI, field.Bool)
		lo.emit(opExpired, dst, lo.p.timerConst(name), p.reg, 0)
		return lval{cl: clI, kind: field.Bool, reg: dst}

	case "reset": // reset(timer)
		name := argIdent(0)
		if lo.resolve(name).kind != vTimer {
			lo.failf(ex.Tok, "reset: %q is not a declared timer", name)
		}
		wantArgs(1)
		lo.emit(opResetTimer, lo.p.timerConst(name), 0, 0, 0)
		return lo.intLit(1, field.Bool)
	}
	lo.failf(ex.Tok, "unknown function %q", ex.Name)
	panic("unreachable")
}

// coords lowers the coordinates of a get or put. One or two coordinates of a
// typed array come back as their registers, for the ops that index the view
// directly (n is their count); anything else — a boxed array, three or more
// coordinates — is copied into a contiguous block for the V ops (n is -1 and
// idx[0] the block's first register).
func (lo *lowerer) coords(ref lref, args []Expr) (idx [2]int32, n int) {
	if len(args) <= 2 && lo.localCl[ref.li] != clV {
		for i, a := range args {
			idx[i] = lo.intPayload(lo.expr(a), nil).reg
		}
		return idx, len(args)
	}
	base := lo.tmpBlockI(len(args))
	for i, a := range args {
		p := lo.intPayload(lo.expr(a), nil)
		lo.emitMov(clI, base+int32(i), p.reg)
	}
	idx[0] = base
	return idx, -1
}

// minMax lowers min/max: float promotion if
// either side is floating, otherwise the raw winning operand. The raw-operand
// int path returns the operand itself (kind included), so mixed static kinds
// must go through the boxed helper.
func (lo *lowerer) minMax(name string, a, b lval, d *lval) lval {
	vop, iop, fop := opMinV, opMinI, opMinF
	if name == "max" {
		vop, iop, fop = opMaxV, opMaxI, opMaxF
	}
	switch {
	case a.cl == clV || b.cl == clV:
	case a.cl == clF || b.cl == clF:
		fa := lo.floatPayload(a, nil)
		fb := lo.floatPayload(b, nil)
		dst := lo.out(d, clF, field.Float64)
		lo.emit(fop, dst, fa.reg, fb.reg, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	case a.cl == clS && b.cl == clS:
		// Both payloads are 0, so the comparison never favors the first
		// operand: the result is always the second.
		return b
	case a.cl == clI && b.cl == clI && a.kind == b.kind:
		dst := lo.out(d, clI, a.kind)
		lo.emit(iop, dst, a.reg, b.reg, 0)
		return lval{cl: clI, kind: a.kind, reg: dst}
	}
	// Boxed operands, or mixed int/string kinds where the winning operand's
	// kind is data-dependent.
	ab := lo.toBoxed(a)
	bb := lo.toBoxed(b)
	dst := lo.tmp(clV)
	lo.emit(vop, dst, ab.reg, bb.reg, 0)
	return lval{cl: clV, kind: field.Any, reg: dst}
}
