package core

import (
	"fmt"

	"repro/internal/field"
)

// Validate checks the structural correctness of a program. It verifies that
// names resolve, ranks and kinds line up, every index variable has a range
// (is bound by an element fetch), and age expressions cannot reference the
// future. The runtime assumes a validated program.
func (p *Program) Validate() error {
	fields := make(map[string]*FieldDecl, len(p.Fields))
	for _, f := range p.Fields {
		if f.Name == "" {
			return fmt.Errorf("p2g: field with empty name")
		}
		if _, dup := fields[f.Name]; dup {
			return fmt.Errorf("p2g: duplicate field %q", f.Name)
		}
		if f.Rank < 1 {
			return fmt.Errorf("p2g: field %q: rank must be >= 1, got %d", f.Name, f.Rank)
		}
		if f.Kind == field.Invalid {
			return fmt.Errorf("p2g: field %q: invalid element kind", f.Name)
		}
		fields[f.Name] = f
	}

	timers := make(map[string]bool, len(p.Timers))
	for _, t := range p.Timers {
		if t == "" {
			return fmt.Errorf("p2g: timer with empty name")
		}
		if timers[t] {
			return fmt.Errorf("p2g: duplicate timer %q", t)
		}
		timers[t] = true
	}

	kernels := make(map[string]bool, len(p.Kernels))
	for _, k := range p.Kernels {
		if k.Name == "" {
			return fmt.Errorf("p2g: kernel with empty name")
		}
		if kernels[k.Name] {
			return fmt.Errorf("p2g: duplicate kernel %q", k.Name)
		}
		kernels[k.Name] = true
		if err := p.validateKernel(k, fields); err != nil {
			return err
		}
	}
	if len(p.Kernels) == 0 {
		return fmt.Errorf("p2g: program %q has no kernels", p.Name)
	}
	return nil
}

func (p *Program) validateKernel(k *KernelDecl, fields map[string]*FieldDecl) error {
	errf := func(format string, args ...any) error {
		return fmt.Errorf("p2g: kernel %q: %s", k.Name, fmt.Sprintf(format, args...))
	}

	names := map[string]string{} // name -> what it is
	declare := func(name, what string) error {
		if name == "" {
			return errf("%s with empty name", what)
		}
		if prev, dup := names[name]; dup {
			return errf("%s %q collides with %s of the same name", what, name, prev)
		}
		names[name] = what
		return nil
	}
	if k.AgeVar != "" {
		if err := declare(k.AgeVar, "age variable"); err != nil {
			return err
		}
	}
	for _, iv := range k.IndexVars {
		if err := declare(iv, "index variable"); err != nil {
			return err
		}
	}
	locals := map[string]*LocalDecl{}
	for i := range k.Locals {
		l := &k.Locals[i]
		if err := declare(l.Name, "local"); err != nil {
			return err
		}
		if l.Rank < 0 {
			return errf("local %q: negative rank", l.Name)
		}
		if l.Kind == field.Invalid {
			return errf("local %q: invalid kind", l.Name)
		}
		locals[l.Name] = l
	}

	indexVarSet := map[string]bool{}
	for _, iv := range k.IndexVars {
		indexVarSet[iv] = false // false until bound by a fetch
	}

	checkAge := func(stmt fmt.Stringer, age AgeExpr, f *FieldDecl, isFetch bool) error {
		if age.HasVar && k.AgeVar == "" {
			return errf("%s references age variable but kernel has none", stmt)
		}
		if !f.Aged {
			if age.HasVar || age.Offset != 0 {
				return errf("%s: non-aged field %q must be accessed at age 0", stmt, f.Name)
			}
			return nil
		}
		if age.HasVar && isFetch && age.Offset > 0 {
			return errf("%s: fetching a future age (offset %+d) can never be satisfied", stmt, age.Offset)
		}
		if age.HasVar && !isFetch && age.Offset < 0 {
			return errf("%s: storing to a past age (offset %+d) violates write-once ordering", stmt, age.Offset)
		}
		if !age.HasVar && age.Offset < 0 {
			return errf("%s: negative absolute age %d", stmt, age.Offset)
		}
		return nil
	}

	checkIndex := func(stmt fmt.Stringer, idx []IndexSpec, f *FieldDecl, binds bool) error {
		if idx == nil {
			return nil // whole-field access
		}
		if len(idx) != f.Rank {
			return errf("%s: %d index coordinates for rank-%d field %q", stmt, len(idx), f.Rank, f.Name)
		}
		for _, ix := range idx {
			switch ix.Kind {
			case IndexVarKind:
				if _, ok := indexVarSet[ix.Var]; !ok {
					return errf("%s: unknown index variable %q", stmt, ix.Var)
				}
				if binds && ix.Off == 0 {
					indexVarSet[ix.Var] = true
				}
			case IndexLitKind:
				if ix.Lit < 0 {
					return errf("%s: negative index literal %d", stmt, ix.Lit)
				}
			case IndexAllKind:
				// Legal in both fetches (slab fetch, gated on generation
				// completeness) and stores (bulk slab store).
			default:
				return errf("%s: invalid index spec", stmt)
			}
		}
		return nil
	}

	compatible := func(a, b field.Kind) bool {
		return a == b || a == field.Any || b == field.Any
	}

	for i := range k.Fetches {
		fs := &k.Fetches[i]
		f, ok := fields[fs.Field]
		if !ok {
			return errf("%s: unknown field %q", fs, fs.Field)
		}
		l, ok := locals[fs.Local]
		if !ok {
			return errf("%s: unknown local %q", fs, fs.Local)
		}
		if err := checkAge(fs, fs.Age, f, true); err != nil {
			return err
		}
		if err := checkIndex(fs, fs.Index, f, true); err != nil {
			return err
		}
		switch {
		case fs.Whole():
			if l.Rank != f.Rank {
				return errf("%s: whole-field fetch into rank-%d local (field rank %d)", fs, l.Rank, f.Rank)
			}
		case fs.Slab():
			if l.Rank != fs.SlabRank() {
				return errf("%s: slab fetch of rank %d into rank-%d local", fs, fs.SlabRank(), l.Rank)
			}
		default:
			if l.Rank != 0 {
				return errf("%s: element fetch into array local %q", fs, l.Name)
			}
		}
		if !compatible(l.Kind, f.Kind) {
			return errf("%s: local kind %s incompatible with field kind %s", fs, l.Kind, f.Kind)
		}
	}

	for i := range k.Stores {
		ss := &k.Stores[i]
		f, ok := fields[ss.Field]
		if !ok {
			return errf("%s: unknown field %q", ss, ss.Field)
		}
		l, ok := locals[ss.Local]
		if !ok {
			return errf("%s: unknown local %q", ss, ss.Local)
		}
		if err := checkAge(ss, ss.Age, f, false); err != nil {
			return err
		}
		if err := checkIndex(ss, ss.Index, f, false); err != nil {
			return err
		}
		switch {
		case ss.Whole():
			if l.Rank != f.Rank {
				return errf("%s: whole-field store from rank-%d local (field rank %d)", ss, l.Rank, f.Rank)
			}
		case ss.Slab():
			if l.Rank != ss.SlabRank() {
				return errf("%s: slab store of rank %d from rank-%d local", ss, ss.SlabRank(), l.Rank)
			}
		default:
			if l.Rank != 0 {
				return errf("%s: element store from array local %q", ss, l.Name)
			}
		}
		if !compatible(l.Kind, f.Kind) {
			return errf("%s: local kind %s incompatible with field kind %s", ss, l.Kind, f.Kind)
		}
	}

	for iv, bound := range indexVarSet {
		if !bound {
			return errf("index variable %q is not bound by any offset-free element fetch, so its range is undefined", iv)
		}
	}

	if k.AgeVar != "" && len(k.Fetches) > 0 {
		// Without an age-variable fetch there is nothing to drive the
		// creation of per-age instances: the kernel would have an
		// unbounded instance set for every absolute-age store event.
		anyAged := false
		for i := range k.Fetches {
			if k.Fetches[i].Age.HasVar {
				anyAged = true
				break
			}
		}
		if !anyAged {
			return errf("aged kernel must have at least one fetch that uses its age variable")
		}
	}

	if k.RunOnce() {
		for i := range k.Fetches {
			if k.Fetches[i].Age.HasVar {
				return errf("run-once kernel uses age variable in fetch")
			}
		}
		for i := range k.Stores {
			if k.Stores[i].Age.HasVar {
				return errf("run-once kernel uses age variable in store")
			}
		}
	}
	return nil
}
