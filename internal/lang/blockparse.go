package lang

import (
	"strconv"

	"repro/internal/field"
)

// codeBlock parses `%{ stmts %}`.
func (p *parser) codeBlock() (Block, error) {
	start := p.next() // %{
	blk := Block{Tok: start}
	for {
		t := p.cur()
		if t.Kind == TBlockEnd {
			p.next()
			return blk, nil
		}
		if t.Kind == TEOF {
			return blk, errAt(start, "unterminated %%{ block")
		}
		s, err := p.stmt()
		if err != nil {
			return blk, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
}

// bracedBlock parses `{ stmts }` or a single statement (C-style bodies).
func (p *parser) bracedBlock() (Block, error) {
	if p.cur().Kind == TPunct && p.cur().Text == "{" {
		start := p.next()
		blk := Block{Tok: start}
		for {
			t := p.cur()
			if t.Kind == TPunct && t.Text == "}" {
				p.next()
				return blk, nil
			}
			if t.Kind == TEOF || t.Kind == TBlockEnd {
				return blk, errAt(start, "unterminated { block")
			}
			s, err := p.stmt()
			if err != nil {
				return blk, err
			}
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	s, err := p.stmt()
	if err != nil {
		return Block{}, err
	}
	return Block{Tok: p.cur(), Stmts: []Stmt{s}}, nil
}

// stmt parses one code-block statement.
func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	if t.Kind == TPunct && t.Text == "{" {
		return p.bracedBlock()
	}
	if t.Kind != TIdent && !(t.Kind == TPunct && (t.Text == "++" || t.Text == "--")) {
		return nil, errAt(t, "expected statement, found %s", t)
	}
	switch t.Text {
	case "if":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.bracedBlock()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Tok: t, Cond: cond, Then: then}
		if p.cur().Kind == TIdent && p.cur().Text == "else" {
			p.next()
			els, err := p.bracedBlock()
			if err != nil {
				return nil, err
			}
			st.Else = &els
		}
		return *st, nil
	case "while":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.bracedBlock()
		if err != nil {
			return nil, err
		}
		return WhileStmt{Tok: t, Cond: cond, Body: body}, nil
	case "for":
		return p.forStmt()
	case "break":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return BreakStmt{Tok: t}, nil
	case "continue":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return ContinueStmt{Tok: t}, nil
	case "stop":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return StopStmt{Tok: t}, nil
	case "cout":
		p.next()
		st := CoutStmt{Tok: t}
		for p.accept("<<") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, e)
		}
		if len(st.Args) == 0 {
			return nil, errAt(t, "cout needs at least one << argument")
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return st, nil
	}
	s, err := p.simpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return s, nil
}

// simpleStmt parses declarations, assignments, increments and expression
// statements — the statement forms legal in for-clauses (no trailing ';').
func (p *parser) simpleStmt() (Stmt, error) {
	t := p.cur()
	// Prefix increment: ++i / --i.
	if t.Kind == TPunct && (t.Text == "++" || t.Text == "--") {
		p.next()
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		return IncStmt{Tok: t, Name: v.Text, Op: t.Text}, nil
	}
	if t.Kind != TIdent {
		return nil, errAt(t, "expected statement, found %s", t)
	}
	// Declaration: `int i = 0` / `float x`.
	if k := typeKind(t.Text); k != field.Invalid && p.peek().Kind == TIdent {
		p.next()
		name, _ := p.ident()
		d := DeclStmt{Tok: t, Kind: k, Name: name.Text}
		if p.accept("=") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		return d, nil
	}
	// Assignment, increment or expression statement.
	if p.peek().Kind == TPunct {
		switch op := p.peek().Text; op {
		case "=", "+=", "-=", "*=", "/=", "%=":
			name := p.next()
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return AssignStmt{Tok: name, Name: name.Text, Op: op, Val: e}, nil
		case "++", "--":
			name := p.next()
			opTok := p.next()
			return IncStmt{Tok: name, Name: name.Text, Op: opTok.Text}, nil
		}
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return ExprStmt{Tok: t, X: e}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	st := ForStmt{Tok: t}
	if !p.accept(";") {
		init, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		st.Init = init
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !(p.cur().Kind == TPunct && p.cur().Text == ")") {
		post, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		// The post clause runs after the body but sits before it in the
		// source: a name declared there has no scope both orders agree on.
		if d, ok := post.(DeclStmt); ok {
			return nil, errAt(d.Tok, "declaration of %q in a for-loop post clause", d.Name)
		}
		st.Post = post
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.bracedBlock()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// Operator precedence, lowest to highest.
var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TPunct {
			return lhs, nil
		}
		prec, ok := precedence[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = BinExpr{Tok: t, Op: t.Text, L: lhs, R: rhs}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if t.Kind == TPunct && (t.Text == "-" || t.Text == "!") {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return UnExpr{Tok: t, Op: t.Text, X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t, "bad integer literal %q", t.Text)
		}
		return IntLit{Tok: t, V: v}, nil
	case TFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t, "bad float literal %q", t.Text)
		}
		return FloatLit{Tok: t, V: v}, nil
	case TString:
		p.next()
		return StrLit{Tok: t, V: t.Text}, nil
	case TIdent:
		p.next()
		if p.accept("(") {
			call := CallExpr{Tok: t, Name: t.Text}
			if !p.accept(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(")") {
						break
					}
					if _, err := p.expect(","); err != nil {
						return nil, err
					}
				}
			}
			return call, nil
		}
		return Ident{Tok: t, Name: t.Text}, nil
	case TPunct:
		if t.Text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errAt(t, "expected expression, found %s", t)
}
