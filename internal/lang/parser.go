package lang

import (
	"strconv"

	"repro/internal/field"
)

// typeKind resolves a type name usable in declarations; "int" and "float"
// are aliases for the widest kinds, as in the paper's C-like blocks.
func typeKind(name string) field.Kind {
	switch name {
	case "int":
		return field.Int64
	case "float", "double":
		return field.Float64
	}
	return field.KindByName(name)
}

type parser struct {
	toks []Token
	pos  int
}

// Parse lexes and parses one kernel-language source file.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.file()
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) peek() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.cur().Kind == TPunct && p.cur().Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) (Token, error) {
	t := p.cur()
	if (t.Kind == TPunct || t.Kind == TIdent) && t.Text == text {
		p.pos++
		return t, nil
	}
	return t, errAt(t, "expected %q, found %s", text, t)
}

func (p *parser) ident() (Token, error) {
	t := p.cur()
	if t.Kind != TIdent {
		return t, errAt(t, "expected identifier, found %s", t)
	}
	p.pos++
	return t, nil
}

func (p *parser) file() (*File, error) {
	f := &File{}
	for p.cur().Kind != TEOF {
		t := p.cur()
		switch {
		case t.Kind == TIdent && t.Text == "timer":
			p.next()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
			f.Timers = append(f.Timers, TimerDecl{Tok: t, Name: name.Text})
		case t.Kind == TIdent && typeKind(t.Text) != field.Invalid:
			fd, err := p.fieldDecl()
			if err != nil {
				return nil, err
			}
			f.Fields = append(f.Fields, fd)
		case t.Kind == TIdent && p.peek().Kind == TPunct && p.peek().Text == ":":
			k, err := p.kernel()
			if err != nil {
				return nil, err
			}
			f.Kernels = append(f.Kernels, k)
		default:
			return nil, errAt(t, "expected field declaration, timer or kernel, found %s", t)
		}
	}
	return f, nil
}

// fieldDecl parses `int32[] name age;` — rank is the number of [] pairs.
func (p *parser) fieldDecl() (FieldDecl, error) {
	t := p.next() // type name
	kind := typeKind(t.Text)
	rank := 0
	for p.accept("[") {
		if _, err := p.expect("]"); err != nil {
			return FieldDecl{}, err
		}
		rank++
	}
	if rank == 0 {
		return FieldDecl{}, errAt(t, "field declarations need at least one [] dimension")
	}
	name, err := p.ident()
	if err != nil {
		return FieldDecl{}, err
	}
	aged := false
	if p.cur().Kind == TIdent && p.cur().Text == "age" {
		p.next()
		aged = true
	}
	if _, err := p.expect(";"); err != nil {
		return FieldDecl{}, err
	}
	return FieldDecl{Tok: t, Kind: kind, Rank: rank, Name: name.Text, Aged: aged}, nil
}

// kernel parses `name:` followed by kernel statements until the next
// top-level declaration.
func (p *parser) kernel() (KernelDef, error) {
	nameTok := p.next() // ident
	p.next()            // colon
	k := KernelDef{Tok: nameTok, Name: nameTok.Text}
	for {
		t := p.cur()
		if t.Kind == TEOF {
			return k, nil
		}
		if t.Kind == TBlockStart {
			blk, err := p.codeBlock()
			if err != nil {
				return k, err
			}
			k.Blocks = append(k.Blocks, blk)
			continue
		}
		if t.Kind != TIdent {
			return k, errAt(t, "unexpected %s in kernel %s", t, k.Name)
		}
		switch t.Text {
		case "age":
			p.next()
			v, err := p.ident()
			if err != nil {
				return k, err
			}
			if k.AgeVar != "" {
				return k, errAt(t, "kernel %s declares a second age variable", k.Name)
			}
			k.AgeVar = v.Text
			if _, err := p.expect(";"); err != nil {
				return k, err
			}
		case "index":
			p.next()
			for {
				v, err := p.ident()
				if err != nil {
					return k, err
				}
				k.Indexes = append(k.Indexes, v.Text)
				if !p.accept(",") {
					break
				}
			}
			if _, err := p.expect(";"); err != nil {
				return k, err
			}
		case "local":
			p.next()
			tt := p.cur()
			kind := typeKind(tt.Text)
			if tt.Kind != TIdent || kind == field.Invalid {
				return k, errAt(tt, "expected type after local, found %s", tt)
			}
			p.next()
			rank := 0
			for p.accept("[") {
				if _, err := p.expect("]"); err != nil {
					return k, err
				}
				rank++
			}
			v, err := p.ident()
			if err != nil {
				return k, err
			}
			if _, err := p.expect(";"); err != nil {
				return k, err
			}
			k.Locals = append(k.Locals, LocalDecl{Tok: tt, Kind: kind, Rank: rank, Name: v.Text})
		case "fetch":
			p.next()
			local, err := p.ident()
			if err != nil {
				return k, err
			}
			if _, err := p.expect("="); err != nil {
				return k, err
			}
			ref, err := p.fieldRef()
			if err != nil {
				return k, err
			}
			if _, err := p.expect(";"); err != nil {
				return k, err
			}
			k.Fetches = append(k.Fetches, FetchDecl{Tok: t, Local: local.Text, Ref: ref})
		case "store":
			p.next()
			ref, err := p.fieldRef()
			if err != nil {
				return k, err
			}
			if _, err := p.expect("="); err != nil {
				return k, err
			}
			local, err := p.ident()
			if err != nil {
				return k, err
			}
			if _, err := p.expect(";"); err != nil {
				return k, err
			}
			k.Stores = append(k.Stores, StoreDecl{Tok: t, Ref: ref, Local: local.Text})
		default:
			// Next kernel (`ident :`) or top-level declaration ends this one.
			if p.peek().Kind == TPunct && p.peek().Text == ":" {
				return k, nil
			}
			if typeKind(t.Text) != field.Invalid || t.Text == "timer" {
				return k, nil
			}
			return k, errAt(t, "unexpected %s in kernel %s", t, k.Name)
		}
	}
}

// fieldRef parses `name(age)[i][j]`.
func (p *parser) fieldRef() (FieldRef, error) {
	name, err := p.ident()
	if err != nil {
		return FieldRef{}, err
	}
	ref := FieldRef{Tok: name, Field: name.Text}
	if _, err := p.expect("("); err != nil {
		return ref, err
	}
	age, err := p.ageRef()
	if err != nil {
		return ref, err
	}
	ref.Age = age
	if _, err := p.expect(")"); err != nil {
		return ref, err
	}
	for p.accept("[") {
		t := p.cur()
		var ir IndexRef
		switch {
		case t.Kind == TPunct && t.Text == "]":
			ir = IndexRef{Tok: t, All: true} // slab: spans the dimension
		case t.Kind == TIdent:
			ir = IndexRef{Tok: t, Var: t.Text}
			p.next()
			if p.cur().Kind == TPunct && (p.cur().Text == "+" || p.cur().Text == "-") {
				neg := p.next().Text == "-"
				ot := p.cur()
				if ot.Kind != TInt {
					return ref, errAt(ot, "expected integer index offset, found %s", ot)
				}
				p.next()
				v, _ := strconv.Atoi(ot.Text)
				if neg {
					v = -v
				}
				ir.Off = v
			}
		case t.Kind == TInt:
			v, _ := strconv.Atoi(t.Text)
			ir = IndexRef{Tok: t, Lit: v}
			p.next()
		default:
			return ref, errAt(t, "expected index variable, literal or ] for a slab, found %s", t)
		}
		ref.Index = append(ref.Index, ir)
		if _, err := p.expect("]"); err != nil {
			return ref, err
		}
	}
	ref.Whole = len(ref.Index) == 0
	return ref, nil
}

// ageRef parses `a`, `a+1`, `a-1` or `0`.
func (p *parser) ageRef() (AgeRef, error) {
	t := p.cur()
	switch t.Kind {
	case TInt:
		p.next()
		v, _ := strconv.Atoi(t.Text)
		return AgeRef{Tok: t, Offset: v}, nil
	case TIdent:
		p.next()
		ref := AgeRef{Tok: t, Var: t.Text}
		if p.accept("+") || func() bool {
			if p.cur().Kind == TPunct && p.cur().Text == "-" {
				p.next()
				ref.Offset = -1
				return true
			}
			return false
		}() {
			ot := p.cur()
			if ot.Kind != TInt {
				return ref, errAt(ot, "expected integer age offset, found %s", ot)
			}
			p.next()
			v, _ := strconv.Atoi(ot.Text)
			if ref.Offset < 0 {
				ref.Offset = -v
			} else {
				ref.Offset = v
			}
		}
		return ref, nil
	default:
		return AgeRef{}, errAt(t, "expected age expression, found %s", t)
	}
}
