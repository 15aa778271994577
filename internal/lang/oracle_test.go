package lang

// The test oracle: a direct tree-walking evaluator over the code-block AST,
// the reference the bytecode VM is differentially tested against. Every value
// is a boxed field.Value, names are looked up by string as they are met and
// kernel locals are read and written through the Ctx by name, so it shares
// nothing with the lowering but the AST and arith(). It checks nothing: it
// only ever runs programs the lowerer accepted.

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/field"
)

// oracleProgram compiles file and swaps every kernel body for the oracle's,
// which has no lockstep form.
func oracleProgram(name string, file *File) (*core.Program, error) {
	prog, err := CompileFile(name, file)
	if err != nil {
		return nil, err
	}
	for i := range file.Kernels {
		k := &file.Kernels[i]
		prog.Kernels[i].Body = func(ctx *core.Ctx) error { return oracleRun(k, ctx) }
		prog.Kernels[i].SliceBody = nil
	}
	return prog, nil
}

// oracleFail carries a runtime error from where it arises to oracleRun.
type oracleFail struct{ err error }

// oracle is one run of a kernel body. A block variable's value always has the
// kind it was declared with (Zero and Convert both yield it), so the scopes
// hold nothing else.
type oracle struct {
	k      *KernelDef
	ctx    *core.Ctx
	scopes []map[string]field.Value
}

func oracleRun(k *KernelDef, ctx *core.Ctx) (err error) {
	o := &oracle{k: k, ctx: ctx, scopes: []map[string]field.Value{{}}}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(oracleFail)
			if !ok {
				panic(r) // an out-of-range get, a negative put: the body's own panic
			}
			err = f.err
		}
	}()
	for _, blk := range k.Blocks {
		for _, s := range blk.Stmts {
			o.exec(s) // a break or continue outside any loop ends the statement
		}
	}
	return nil
}

// flow is what a statement hands its enclosing loop.
type flow uint8

const (
	flowNext flow = iota
	flowBreak
	flowContinue
)

// scopeOf finds the innermost scope that declares a block variable.
func (o *oracle) scopeOf(name string) map[string]field.Value {
	for i := len(o.scopes) - 1; i >= 0; i-- {
		if _, ok := o.scopes[i][name]; ok {
			return o.scopes[i]
		}
	}
	return nil
}

// read evaluates an identifier: block variables shadow kernel locals, which
// shadow the age variable, the index variables and endl.
func (o *oracle) read(name string) field.Value {
	if sc := o.scopeOf(name); sc != nil {
		return sc[name]
	}
	if o.ctx.Kernel().LocalIndex(name) >= 0 {
		return o.ctx.Get(name)
	}
	if name == o.k.AgeVar {
		return field.Int64Val(int64(o.ctx.Age()))
	}
	for _, iv := range o.k.Indexes {
		if iv == name {
			return field.Int64Val(int64(o.ctx.Index(name)))
		}
	}
	return field.StringVal("\n") // endl
}

// write assigns a block variable or scalar kernel local, coerced to its kind.
func (o *oracle) write(name string, v field.Value) {
	if sc := o.scopeOf(name); sc != nil {
		sc[name] = v.Convert(sc[name].Kind())
		return
	}
	kd := o.ctx.Kernel()
	o.ctx.Set(name, v.Convert(kd.Locals[kd.LocalIndex(name)].Kind))
}

func (o *oracle) block(b Block) flow {
	o.scopes = append(o.scopes, map[string]field.Value{})
	defer func() { o.scopes = o.scopes[:len(o.scopes)-1] }()
	for _, s := range b.Stmts {
		if f := o.exec(s); f != flowNext {
			return f
		}
	}
	return flowNext
}

func (o *oracle) loop(cond Expr, post Stmt, body Block) {
	for cond == nil || o.eval(cond).Bool() {
		if o.block(body) == flowBreak {
			return
		}
		if post != nil {
			o.exec(post)
		}
	}
}

func (o *oracle) exec(s Stmt) flow {
	switch st := s.(type) {
	case DeclStmt:
		v := field.Zero(st.Kind)
		if st.Init != nil {
			v = o.eval(st.Init).Convert(st.Kind)
		}
		o.scopes[len(o.scopes)-1][st.Name] = v
	case AssignStmt:
		switch {
		case o.scopeOf(st.Name) == nil && o.ctx.Kernel().LocalIndex(st.Name) < 0:
			o.ctx.ResetTimer(st.Name) // the only other assignable name is a timer: t = now
		case st.Op == "=":
			o.write(st.Name, o.eval(st.Val))
		default:
			old := o.read(st.Name)
			o.write(st.Name, o.arith(st.Tok, st.Op[:1], old, o.eval(st.Val)))
		}
	case IncStmt:
		delta := int64(1)
		if st.Op == "--" {
			delta = -1
		}
		if old := o.read(st.Name); old.Kind().Float() {
			o.write(st.Name, field.Float64Val(old.Float64()+float64(delta)))
		} else {
			o.write(st.Name, field.Int64Val(old.Int64()+delta))
		}
	case IfStmt:
		if o.eval(st.Cond).Bool() {
			return o.block(st.Then)
		} else if st.Else != nil {
			return o.block(*st.Else)
		}
	case WhileStmt:
		o.loop(st.Cond, nil, st.Body)
	case ForStmt:
		o.scopes = append(o.scopes, map[string]field.Value{})
		defer func() { o.scopes = o.scopes[:len(o.scopes)-1] }()
		if st.Init != nil {
			o.exec(st.Init)
		}
		o.loop(st.Cond, st.Post, st.Body)
	case BreakStmt:
		return flowBreak
	case ContinueStmt:
		return flowContinue
	case StopStmt:
		o.ctx.Stop()
	case CoutStmt:
		var line []byte
		for _, a := range st.Args {
			line = append(line, o.eval(a).String()...)
		}
		o.ctx.Printf("%s", line)
	case ExprStmt:
		o.eval(st.X)
	case Block:
		return o.block(st)
	}
	return flowNext
}

func (o *oracle) arith(tok Token, op string, l, r field.Value) field.Value {
	v, err := arith(tok, op, l, r)
	if err != nil {
		panic(oracleFail{err})
	}
	return v
}

func (o *oracle) eval(x Expr) field.Value {
	switch ex := x.(type) {
	case IntLit:
		return field.Int64Val(ex.V)
	case FloatLit:
		return field.Float64Val(ex.V)
	case StrLit:
		return field.StringVal(ex.V)
	case Ident:
		return o.read(ex.Name)
	case UnExpr:
		v := o.eval(ex.X)
		switch {
		case ex.Op == "!":
			return field.BoolVal(!v.Bool())
		case v.Kind().Float():
			return field.Float64Val(-v.Float64())
		}
		return field.Int64Val(-v.Int64())
	case BinExpr:
		switch ex.Op {
		case "&&":
			return field.BoolVal(o.eval(ex.L).Bool() && o.eval(ex.R).Bool())
		case "||":
			return field.BoolVal(o.eval(ex.L).Bool() || o.eval(ex.R).Bool())
		}
		l := o.eval(ex.L)
		return o.arith(ex.Tok, ex.Op, l, o.eval(ex.R))
	case CallExpr:
		return o.call(ex)
	}
	panic("oracle: unhandled expression")
}

// call evaluates a builtin. Arguments are evaluated left to right before the
// array or timer is touched.
func (o *oracle) call(ex CallExpr) field.Value {
	first := ""
	rest := ex.Args
	switch ex.Name {
	case "put", "get", "extent", "expired", "reset":
		first, rest = ex.Args[0].(Ident).Name, ex.Args[1:]
	}
	args := make([]field.Value, len(rest))
	for i, a := range rest {
		args[i] = o.eval(a)
	}
	coords := func(vs []field.Value) []int {
		idx := make([]int, len(vs))
		for i, v := range vs {
			idx[i] = int(v.Int64())
		}
		return idx
	}
	float := func(i int) float64 { return args[i].Float64() }
	floating := func() bool { return args[0].Kind().Float() || args[1].Kind().Float() }
	switch ex.Name {
	case "put":
		o.ctx.Array(first).Put(args[0], coords(args[1:])...)
		return args[0]
	case "get":
		return o.ctx.Array(first).At(coords(args)...)
	case "extent":
		return field.Int64Val(int64(o.ctx.Array(first).Extent(int(args[0].Int64()))))
	case "sqrt":
		if float(0) < 0 {
			panic(oracleFail{errAt(ex.Tok, "sqrt of negative value")})
		}
		return field.Float64Val(math.Sqrt(float(0)))
	case "floor":
		return field.Float64Val(math.Floor(float(0)))
	case "cos":
		return field.Float64Val(math.Cos(float(0)))
	case "sin":
		return field.Float64Val(math.Sin(float(0)))
	case "abs":
		if args[0].Kind().Float() {
			return field.Float64Val(math.Abs(float(0)))
		}
		return field.Int64Val(max(args[0].Int64(), -args[0].Int64()))
	case "pow":
		return field.Float64Val(math.Pow(float(0), float(1)))
	case "min":
		if floating() {
			return field.Float64Val(math.Min(float(0), float(1)))
		} else if args[0].Int64() < args[1].Int64() {
			return args[0]
		}
		return args[1]
	case "max":
		if floating() {
			return field.Float64Val(math.Max(float(0), float(1)))
		} else if args[0].Int64() > args[1].Int64() {
			return args[0]
		}
		return args[1]
	case "now":
		return field.Int64Val(o.ctx.Now().UnixMilli())
	case "expired":
		exp, err := o.ctx.Expired(first, time.Duration(args[0].Int64())*time.Millisecond)
		if err != nil {
			panic(oracleFail{err})
		}
		return field.BoolVal(exp)
	case "reset":
		o.ctx.ResetTimer(first)
		return field.BoolVal(true)
	}
	panic("oracle: unhandled builtin " + ex.Name)
}
