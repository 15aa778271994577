package lang

import (
	"repro/internal/core"
	"repro/internal/field"
)

// Compile parses kernel-language source and compiles it to a core.Program
// whose kernel bodies are the `%{ %}` blocks lowered to register bytecode
// (lower.go) and run by the VM (vm.go). The program name is used for
// diagnostics only.
func Compile(name, src string) (*core.Program, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileFile(name, file)
}

// CompileFile compiles a parsed file to a core.Program.
func CompileFile(name string, file *File) (*core.Program, error) {
	prog, _, err := compileFile(name, file)
	return prog, err
}

// compileFile is the one walk over a parsed file, shared by Compile and
// Disassemble: the declarations go onto a core.Builder, core validation
// checks them, and then every kernel's code blocks are lowered — so the
// lowering only ever sees fetches and stores whose fields, locals and ranks
// line up. It returns the program and, in kernel order, the bytecode behind
// each body.
func compileFile(name string, file *File) (*core.Program, []*bcProg, error) {
	b := core.NewBuilder(name)
	fields := map[string]FieldDecl{}
	for _, fd := range file.Fields {
		if _, dup := fields[fd.Name]; dup {
			return nil, nil, errAt(fd.Tok, "duplicate field %q", fd.Name)
		}
		fields[fd.Name] = fd
		b.Field(fd.Name, fd.Kind, fd.Rank, fd.Aged)
	}
	timers := map[string]bool{}
	for _, td := range file.Timers {
		timers[td.Name] = true
		b.Timer(td.Name)
	}
	for i := range file.Kernels {
		kd := &file.Kernels[i]
		kb := b.Kernel(kd.Name)
		if kd.AgeVar != "" {
			kb.Age(kd.AgeVar)
		}
		kb.Index(kd.Indexes...)
		for _, l := range kd.Locals {
			kb.Local(l.Name, l.Kind, l.Rank)
		}
		for _, f := range kd.Fetches {
			age, err := lowerAge(kd, f.Ref.Age)
			if err != nil {
				return nil, nil, err
			}
			if f.Ref.Whole {
				kb.FetchAll(f.Local, f.Ref.Field, age)
			} else {
				idx, err := lowerIndex(kd, f.Ref)
				if err != nil {
					return nil, nil, err
				}
				kb.Fetch(f.Local, f.Ref.Field, age, idx...)
			}
		}
		for _, s := range kd.Stores {
			age, err := lowerAge(kd, s.Ref.Age)
			if err != nil {
				return nil, nil, err
			}
			if s.Ref.Whole {
				kb.StoreAll(s.Ref.Field, age, s.Local)
			} else {
				idx, err := lowerIndex(kd, s.Ref)
				if err != nil {
					return nil, nil, err
				}
				kb.Store(s.Ref.Field, age, idx, s.Local)
			}
		}
	}
	prog, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	bodies := make([]*bcProg, len(file.Kernels))
	for i := range file.Kernels {
		bp, err := lowerKernelBody(&file.Kernels[i], timers, fields)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = bp
		prog.Kernels[i].Body = bp.body()
		if bp.lane != nil {
			prog.Kernels[i].SliceBody = bp.sliceBody()
			prog.Kernels[i].SliceMin = bp.lane.minLanes
		}
	}
	return prog, bodies, nil
}

func lowerAge(k *KernelDef, a AgeRef) (core.AgeExpr, error) {
	if a.Var == "" {
		return core.AgeAt(a.Offset), nil
	}
	if a.Var != k.AgeVar {
		return core.AgeExpr{}, errAt(a.Tok, "age expression uses %q but kernel %s declares age variable %q", a.Var, k.Name, k.AgeVar)
	}
	return core.AgeVar(a.Offset), nil
}

func lowerIndex(k *KernelDef, ref FieldRef) ([]core.IndexSpec, error) {
	out := make([]core.IndexSpec, len(ref.Index))
	for i, ir := range ref.Index {
		if ir.All {
			out[i] = core.All()
			continue
		}
		if ir.Var == "" {
			out[i] = core.Lit(ir.Lit)
			continue
		}
		found := false
		for _, iv := range k.Indexes {
			if iv == ir.Var {
				found = true
				break
			}
		}
		if !found {
			return nil, errAt(ir.Tok, "index %q is not an index variable of kernel %s", ir.Var, k.Name)
		}
		out[i] = core.IdxOff(ir.Var, ir.Off)
	}
	return out, nil
}

// ---- boxed arithmetic ----

// arith applies a binary operator with C-like promotion: float64 if either
// side is floating, int64 otherwise.
func arith(tok Token, op string, l, r field.Value) (field.Value, error) {
	isCmp := isCmpOp(op)
	if l.Kind() == field.String || r.Kind() == field.String {
		if op == "+" {
			return field.StringVal(l.String() + r.String()), nil
		}
		if op == "==" {
			return field.BoolVal(l.String() == r.String()), nil
		}
		if op == "!=" {
			return field.BoolVal(l.String() != r.String()), nil
		}
		return field.Value{}, errAt(tok, "operator %q not defined on strings", op)
	}
	if l.Kind().Float() || r.Kind().Float() {
		a, b := l.Float64(), r.Float64()
		if isCmp {
			return cmpResult(op, compareFloat(a, b)), nil
		}
		switch op {
		case "+":
			return field.Float64Val(a + b), nil
		case "-":
			return field.Float64Val(a - b), nil
		case "*":
			return field.Float64Val(a * b), nil
		case "/":
			if b == 0 {
				return field.Value{}, errAt(tok, "division by zero")
			}
			return field.Float64Val(a / b), nil
		case "%":
			return field.Value{}, errAt(tok, "%% is not defined on floats")
		}
	}
	a, b := l.Int64(), r.Int64()
	if isCmp {
		return cmpResult(op, compareInt(a, b)), nil
	}
	switch op {
	case "+":
		return field.Int64Val(a + b), nil
	case "-":
		return field.Int64Val(a - b), nil
	case "*":
		return field.Int64Val(a * b), nil
	case "/":
		if b == 0 {
			return field.Value{}, errAt(tok, "division by zero")
		}
		return field.Int64Val(a / b), nil
	case "%":
		if b == 0 {
			return field.Value{}, errAt(tok, "modulo by zero")
		}
		return field.Int64Val(a % b), nil
	}
	return field.Value{}, errAt(tok, "unknown operator %q", op)
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpResult(op string, c int) field.Value {
	var b bool
	switch op {
	case "==":
		b = c == 0
	case "!=":
		b = c != 0
	case "<":
		b = c < 0
	case "<=":
		b = c <= 0
	case ">":
		b = c > 0
	case ">=":
		b = c >= 0
	}
	return field.BoolVal(b)
}
