// Package core defines the P2G program model: field and kernel declarations,
// fetch and store statements over aged multi-dimensional fields, and the
// execution context handed to kernel bodies.
//
// A Program is a declarative description of a dataflow computation. Kernels
// never run in the order they are declared; the runtime's dependency analyzer
// derives all parallelism — data parallelism from the index variables of
// element fetches, task parallelism from the field-mediated producer/consumer
// relationships — exactly as the paper's low-level scheduler does.
//
// Programs are built either through the Builder in this package (the "native
// Go" front-end, analogous to the paper's compiled C++ kernels) or compiled
// from kernel-language source by package lang.
package core

import (
	"fmt"

	"repro/internal/field"
)

// FieldDecl declares a global field: its name, element kind, rank
// (dimensionality) and whether it is aged. Aged fields carry an extra
// generation dimension that lets cyclic programs keep write-once semantics.
type FieldDecl struct {
	Name string
	Kind field.Kind
	Rank int
	Aged bool
}

// AgeExpr is an age coordinate in a fetch or store statement: either the
// kernel's age variable plus a constant offset (`a`, `a+1`) or an absolute
// age (`0`).
type AgeExpr struct {
	// HasVar indicates the expression references the kernel's age variable.
	HasVar bool
	// Offset is added to the age variable, or is the absolute age if
	// HasVar is false.
	Offset int
}

// AgeVar returns the age expression `a+off` over the kernel's age variable.
func AgeVar(off int) AgeExpr { return AgeExpr{HasVar: true, Offset: off} }

// AgeAt returns the absolute age expression `age`.
func AgeAt(age int) AgeExpr { return AgeExpr{Offset: age} }

// Eval resolves the expression for a kernel instance running at age a.
func (e AgeExpr) Eval(a int) int {
	if e.HasVar {
		return a + e.Offset
	}
	return e.Offset
}

// String renders the expression in kernel-language syntax.
func (e AgeExpr) String() string {
	if !e.HasVar {
		return fmt.Sprintf("%d", e.Offset)
	}
	switch {
	case e.Offset == 0:
		return "a"
	case e.Offset > 0:
		return fmt.Sprintf("a+%d", e.Offset)
	default:
		return fmt.Sprintf("a-%d", -e.Offset)
	}
}

// IndexKind discriminates the forms an index coordinate can take.
type IndexKind uint8

// Index coordinate forms.
const (
	// IndexVarKind binds the coordinate to one of the kernel's index
	// variables; the kernel is instantiated once per value in range.
	IndexVarKind IndexKind = iota
	// IndexLitKind pins the coordinate to a constant.
	IndexLitKind
	// IndexAllKind spans the whole dimension: the fetch delivers a slab
	// (e.g. one macroblock row per instance). Slab fetches are satisfied
	// when the generation completes, like whole-field fetches, and are
	// only legal in fetch statements.
	IndexAllKind
)

// IndexSpec is one coordinate of an element fetch or store. Var coordinates
// may carry a constant offset (`x+1`), which is how wavefront dependencies —
// the paper's H.264 intra-prediction motivation in §III — are expressed:
// a kernel at (x, y) fetching pred(a)[x][y+1 - 1] etc.
type IndexSpec struct {
	Kind IndexKind
	Var  string
	Lit  int
	Off  int // constant offset added to Var coordinates
}

// Idx returns an index coordinate bound to index variable name.
func Idx(name string) IndexSpec { return IndexSpec{Kind: IndexVarKind, Var: name} }

// IdxOff returns an index coordinate bound to an index variable plus a
// constant offset (`x+1`).
func IdxOff(name string, off int) IndexSpec {
	return IndexSpec{Kind: IndexVarKind, Var: name, Off: off}
}

// Lit returns a constant index coordinate.
func Lit(v int) IndexSpec { return IndexSpec{Kind: IndexLitKind, Lit: v} }

// All returns a slab coordinate spanning the whole dimension.
func All() IndexSpec { return IndexSpec{Kind: IndexAllKind} }

// String renders the coordinate in kernel-language syntax.
func (s IndexSpec) String() string {
	switch s.Kind {
	case IndexVarKind:
		switch {
		case s.Off > 0:
			return fmt.Sprintf("%s+%d", s.Var, s.Off)
		case s.Off < 0:
			return fmt.Sprintf("%s-%d", s.Var, -s.Off)
		default:
			return s.Var
		}
	case IndexAllKind:
		return ""
	default:
		return fmt.Sprintf("%d", s.Lit)
	}
}

// Eval resolves the coordinate given the instance's index-variable bindings.
func (s IndexSpec) Eval(index map[string]int) int {
	if s.Kind == IndexLitKind {
		return s.Lit
	}
	return index[s.Var] + s.Off
}

// FetchStmt declares that a kernel reads from a field before its body runs.
// A nil Index fetches the whole field generation into an array local (gated
// on the generation being complete); otherwise each coordinate selects a
// single element (gated on that element being written).
type FetchStmt struct {
	Local string
	Field string
	Age   AgeExpr
	Index []IndexSpec
}

// Whole reports whether the statement fetches the entire field generation.
func (f FetchStmt) Whole() bool { return f.Index == nil }

// Slab reports whether the statement fetches a sub-slab (at least one All
// coordinate). Like whole-field fetches, slabs are gated on generation
// completeness.
func (f FetchStmt) Slab() bool {
	for _, s := range f.Index {
		if s.Kind == IndexAllKind {
			return true
		}
	}
	return false
}

// SlabRank counts the All coordinates — the rank of the local array a slab
// fetch delivers.
func (f FetchStmt) SlabRank() int {
	n := 0
	for _, s := range f.Index {
		if s.Kind == IndexAllKind {
			n++
		}
	}
	return n
}

// String renders the statement in kernel-language syntax.
func (f FetchStmt) String() string {
	s := fmt.Sprintf("fetch %s = %s(%s)", f.Local, f.Field, f.Age)
	for _, ix := range f.Index {
		s += "[" + ix.String() + "]"
	}
	return s + ";"
}

// StoreStmt declares that a kernel writes a local to a field after its body
// runs. A nil Index stores an array local as the entire generation; otherwise
// the coordinates select a single element. The store fires only if the local
// was bound during the instance (this is how alternate code paths and
// end-of-stream conditions suppress output).
type StoreStmt struct {
	Field string
	Age   AgeExpr
	Index []IndexSpec
	Local string
}

// Whole reports whether the statement stores the entire field generation.
func (s StoreStmt) Whole() bool { return s.Index == nil }

// Slab reports whether the statement stores a sub-slab (at least one All
// coordinate): the local array covers the free dimensions, fixed coordinates
// pin the rest. Slab stores complete in one bulk write, like whole-field
// stores of the covered region.
func (s StoreStmt) Slab() bool {
	for _, ix := range s.Index {
		if ix.Kind == IndexAllKind {
			return true
		}
	}
	return false
}

// SlabRank counts the All coordinates — the rank of the local array a slab
// store consumes.
func (s StoreStmt) SlabRank() int {
	n := 0
	for _, ix := range s.Index {
		if ix.Kind == IndexAllKind {
			n++
		}
	}
	return n
}

// String renders the statement in kernel-language syntax.
func (s StoreStmt) String() string {
	str := fmt.Sprintf("store %s(%s)", s.Field, s.Age)
	for _, ix := range s.Index {
		str += "[" + ix.String() + "]"
	}
	return str + " = " + s.Local + ";"
}

// LocalDecl declares a kernel-scope local: a scalar (Rank 0) or a local array
// of the given rank.
type LocalDecl struct {
	Name string
	Kind field.Kind
	Rank int
}

// KernelDecl declares a kernel: its parameters (age and index variables),
// locals, fetch and store statements, and the body that transforms fetched
// locals into stored locals.
type KernelDecl struct {
	Name string
	// AgeVar is the kernel's age parameter name, or "" for a run-once
	// kernel (like `init` in the paper's examples).
	AgeVar string
	// IndexVars are the kernel's index parameters, in declaration order.
	// Each must be bound to a field dimension by at least one element
	// fetch, which defines its range.
	IndexVars []string
	Locals    []LocalDecl
	Fetches   []FetchStmt
	Stores    []StoreStmt
	// Body transforms fetched locals into stored locals. A nil body is a
	// pure data-movement kernel.
	Body func(*Ctx) error
	// SliceBody, when set, is a second form of the same body that runs the
	// instances in lanes [0, n) of the context's columns (see Ctx.Lanes) in
	// one call, in whatever order and interleaving it likes. It may decline
	// by returning false, having changed no column; the caller then runs
	// Body on each instance, which also defines what a failing instance
	// leaves behind — so a slice body declines rather than fails. Array
	// locals are one per context, not per lane, so in a kernel with a slice
	// body every array local is a whole fetch, and every scalar local is a
	// number fetched from a field of its own kind (the runtime refuses any
	// other). Kernels written in Go leave it nil; the kernel language sets
	// it for bodies it can execute in lockstep.
	SliceBody func(ctx *Ctx, n int) bool
	// SliceMin is the fewest instances for which one SliceBody call is
	// expected to be faster than that many Body calls; the runtime runs
	// shorter slices through Body, and every slice through SliceBody when it
	// is zero.
	SliceMin int
}

// Source reports whether the kernel is a source: it has an age variable but
// no fetches, so it self-schedules sequentially by age until it stops
// producing (the paper's read/splitYUV kernel).
func (k *KernelDecl) Source() bool { return k.AgeVar != "" && len(k.Fetches) == 0 }

// RunOnce reports whether the kernel has no age variable and therefore runs
// exactly once (the paper's init kernels).
func (k *KernelDecl) RunOnce() bool { return k.AgeVar == "" }

// Local returns the declaration of the named local, or nil.
func (k *KernelDecl) Local(name string) *LocalDecl {
	for i := range k.Locals {
		if k.Locals[i].Name == name {
			return &k.Locals[i]
		}
	}
	return nil
}

// LocalIndex returns the position of the named local in Locals, or -1.
func (k *KernelDecl) LocalIndex(name string) int {
	for i := range k.Locals {
		if k.Locals[i].Name == name {
			return i
		}
	}
	return -1
}

// Program is a complete P2G program: fields, kernels and global timers.
type Program struct {
	Name    string
	Fields  []*FieldDecl
	Kernels []*KernelDecl
	Timers  []string
}

// Field returns the named field declaration, or nil.
func (p *Program) Field(name string) *FieldDecl {
	for _, f := range p.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Kernel returns the named kernel declaration, or nil.
func (p *Program) Kernel(name string) *KernelDecl {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Producers returns the kernels that store to the named field, with the age
// expressions they store at.
func (p *Program) Producers(fieldName string) []ProducerEdge {
	var out []ProducerEdge
	for _, k := range p.Kernels {
		for i := range k.Stores {
			if k.Stores[i].Field == fieldName {
				out = append(out, ProducerEdge{Kernel: k, Store: &k.Stores[i]})
			}
		}
	}
	return out
}

// Consumers returns the kernels that fetch from the named field, with the
// fetch statements involved.
func (p *Program) Consumers(fieldName string) []ConsumerEdge {
	var out []ConsumerEdge
	for _, k := range p.Kernels {
		for i := range k.Fetches {
			if k.Fetches[i].Field == fieldName {
				out = append(out, ConsumerEdge{Kernel: k, Fetch: &k.Fetches[i]})
			}
		}
	}
	return out
}

// ProducerEdge links a kernel to one of its store statements.
type ProducerEdge struct {
	Kernel *KernelDecl
	Store  *StoreStmt
}

// ConsumerEdge links a kernel to one of its fetch statements.
type ConsumerEdge struct {
	Kernel *KernelDecl
	Fetch  *FetchStmt
}
