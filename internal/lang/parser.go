package lang

import (
	"fmt"
	"strconv"
)

// Parse parses a complete program. It pulls tokens from the lexer one at a
// time rather than materialising the token slice. Lexical errors keep the
// precedence Tokenize gives them: whenever the source does not lex, Parse
// returns the lexer's error, even if a parse error comes first. The
// parse-stage fault-injection site fires in the pipeline runner's entry
// wrapper, not here, so Parse stays a pure function of its input.
func Parse(src string) (*Program, error) {
	p := &parser{lx: NewLexer(src)}
	p.advance()
	prog, err := p.parseProgram()
	for err != nil && p.lexErr == nil && !p.at(TokEOF) {
		p.advance() // drain: a later lexical error takes precedence
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.at(TokEOF) {
		switch {
		case p.at(TokGlobal):
			g, err := p.parseGlobal()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, g)
		case p.at(TokFunc):
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, p.errf("expected 'func' or 'global', found %s", p.cur().Kind)
		}
	}
	seen := make(map[string]Pos)
	for _, f := range prog.Funcs {
		if prev, dup := seen[f.Name]; dup {
			return nil, fmt.Errorf("%s: function %q redeclared (previous at %s)", f.Pos, f.Name, prev)
		}
		seen[f.Name] = f.Pos
	}
	return prog, nil
}

// parser is a recursive-descent parser with one token of lookahead.
type parser struct {
	lx  *Lexer
	tok Token // the lookahead token
	// lexErr is the lexer's error, once it has one; the lookahead is then
	// an EOF token, which ends every parse loop.
	lexErr error
}

func (p *parser) cur() Token        { return p.tok }
func (p *parser) at(k TokKind) bool { return p.tok.Kind == k }

// advance pulls the next lookahead token from the lexer.
func (p *parser) advance() {
	t, err := p.lx.Next()
	if err != nil {
		p.lexErr = err
		t = Token{Kind: TokEOF, Pos: p.tok.Pos}
	}
	p.tok = t
}

func (p *parser) next() Token {
	t := p.tok
	if t.Kind != TokEOF {
		p.advance()
	}
	return t
}

func (p *parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %s, found %s %q", k, p.cur().Kind, p.cur().Text)
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseGlobal() (*GlobalDecl, error) {
	kw, _ := p.expect(TokGlobal)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &GlobalDecl{Name: name.Text, Pos: kw.Pos}, nil
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	kw, _ := p.expect(TokFunc)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(TokRParen) {
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		params = append(params, id.Text)
		if p.at(TokComma) {
			p.next()
		} else {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name.Text, Params: params, Body: body, Pos: kw.Pos}, nil
}

func (p *parser) parseBlock() (*Block, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	blk := &Block{Pos: lb.Pos}
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.next() // }
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokStar:
		return p.parseStore()
	case TokFree:
		kw := p.next()
		v, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		return &FreeStmt{Var: v, Pos: kw.Pos}, p.semi()
	case TokPrint:
		kw := p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokStar); err != nil {
			return nil, err
		}
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &PrintStmt{Var: id.Text, Pos: kw.Pos}, p.semi()
	case TokSink:
		kw := p.next()
		v, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		return &SinkStmt{Var: v, Pos: kw.Pos}, p.semi()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFork:
		return p.parseFork()
	case TokJoin:
		kw := p.next()
		v, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		return &JoinStmt{Thread: v, Pos: kw.Pos}, p.semi()
	case TokLock:
		kw := p.next()
		v, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		return &LockStmt{Mutex: v, Pos: kw.Pos}, p.semi()
	case TokUnlock:
		kw := p.next()
		v, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		return &UnlockStmt{Mutex: v, Pos: kw.Pos}, p.semi()
	case TokWait:
		kw := p.next()
		v, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		return &WaitStmt{Cond: v, Pos: kw.Pos}, p.semi()
	case TokNotify:
		kw := p.next()
		v, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		return &NotifyStmt{Cond: v, Pos: kw.Pos}, p.semi()
	case TokReturn:
		kw := p.next()
		if p.at(TokSemi) {
			p.next()
			return &ReturnStmt{Pos: kw.Pos}, nil
		}
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: id.Text, HasVal: true, Pos: kw.Pos}, p.semi()
	case TokIdent:
		return p.parseAssignOrCall()
	}
	return nil, p.errf("unexpected %s %q at statement start", p.cur().Kind, p.cur().Text)
}

func (p *parser) semi() error {
	_, err := p.expect(TokSemi)
	return err
}

func (p *parser) parenIdent() (string, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return "", err
	}
	id, err := p.expect(TokIdent)
	if err != nil {
		return "", err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return "", err
	}
	return id.Text, nil
}

func (p *parser) parseStore() (Stmt, error) {
	star := p.next() // *
	ptr, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	val, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	return &StoreStmt{Ptr: ptr.Text, Val: val.Text, Pos: star.Pos}, p.semi()
}

func (p *parser) parseIf() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: kw.Pos}
	if p.at(TokElse) {
		p.next()
		if p.at(TokIf) {
			inner, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = &Block{Stmts: []Stmt{inner}, Pos: inner.Position()}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: kw.Pos}, nil
}

func (p *parser) parseFork() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	tid, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	callee, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	st := &ForkStmt{Thread: tid.Text, Callee: callee.Text, Pos: kw.Pos}
	for p.at(TokComma) {
		p.next()
		arg, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		st.Args = append(st.Args, arg.Text)
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return st, p.semi()
}

func (p *parser) parseAssignOrCall() (Stmt, error) {
	id := p.next()
	if p.at(TokLParen) {
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &CallStmt{Callee: id.Text, Args: args, Pos: id.Pos}, p.semi()
	}
	if p.at(TokDot) {
		// Field store: "p.f = v;".
		p.next()
		field, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		val, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		return &StoreStmt{Ptr: id.Text, Field: field.Text, Val: val.Text, Pos: id.Pos}, p.semi()
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: id.Text, RHS: rhs, Pos: id.Pos}, p.semi()
}

func (p *parser) parseArgs() ([]string, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var args []string
	for !p.at(TokRParen) {
		a, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		args = append(args, a.Text)
		if p.at(TokComma) {
			p.next()
		} else {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) parseExpr() (Expr, error) {
	switch p.cur().Kind {
	case TokStar:
		star := p.next()
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		return &LoadExpr{Ptr: id.Text, Pos: star.Pos}, nil
	case TokAmp:
		amp := p.next()
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		return &AddrExpr{Name: id.Text, Pos: amp.Pos}, nil
	case TokMalloc:
		kw := p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &MallocExpr{Pos: kw.Pos}, nil
	case TokNull:
		kw := p.next()
		return &NullExpr{Pos: kw.Pos}, nil
	case TokTaint:
		kw := p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &TaintExpr{Pos: kw.Pos}, nil
	case TokNumber:
		t := p.next()
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: bad number %q", t.Pos, t.Text)
		}
		return &NumExpr{Value: v, Pos: t.Pos}, nil
	case TokIdent:
		id := p.next()
		if p.at(TokLParen) {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Callee: id.Text, Args: args, Pos: id.Pos}, nil
		}
		if p.at(TokDot) {
			// Field load: "p.f".
			p.next()
			field, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			return &LoadExpr{Ptr: id.Text, Field: field.Text, Pos: id.Pos}, nil
		}
		left := Expr(&VarExpr{Name: id.Text, Pos: id.Pos})
		if op, ok := binOpText(p.cur().Kind); ok {
			p.next()
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: op, L: left, R: right, Pos: id.Pos}, nil
		}
		return left, nil
	}
	return nil, p.errf("unexpected %s %q in expression", p.cur().Kind, p.cur().Text)
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case TokIdent:
		id := p.next()
		return &VarExpr{Name: id.Text, Pos: id.Pos}, nil
	case TokNumber:
		t := p.next()
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: bad number %q", t.Pos, t.Text)
		}
		return &NumExpr{Value: v, Pos: t.Pos}, nil
	}
	return nil, p.errf("expected identifier or number, found %s", p.cur().Kind)
}

func binOpText(k TokKind) (string, bool) {
	switch k {
	case TokPlus:
		return "+", true
	case TokMinus:
		return "-", true
	case TokEq:
		return "==", true
	case TokNeq:
		return "!=", true
	case TokLt:
		return "<", true
	case TokGt:
		return ">", true
	case TokLe:
		return "<=", true
	case TokGe:
		return ">=", true
	}
	return "", false
}

// parseCond parses a condition with precedence ! > && > ||.
func (p *parser) parseCond() (Cond, error) { return p.parseCondOr() }

func (p *parser) parseCondOr() (Cond, error) {
	l, err := p.parseCondAnd()
	if err != nil {
		return nil, err
	}
	for p.at(TokOrOr) {
		p.next()
		r, err := p.parseCondAnd()
		if err != nil {
			return nil, err
		}
		l = &CondOr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseCondAnd() (Cond, error) {
	l, err := p.parseCondUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokAndAnd) {
		p.next()
		r, err := p.parseCondUnary()
		if err != nil {
			return nil, err
		}
		l = &CondAnd{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseCondUnary() (Cond, error) {
	switch p.cur().Kind {
	case TokNot:
		p.next()
		c, err := p.parseCondUnary()
		if err != nil {
			return nil, err
		}
		if n, ok := c.(*CondNot); ok {
			return n.C, nil // !!c
		}
		return &CondNot{C: c}, nil
	case TokLParen:
		p.next()
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return c, nil
	case TokTrue:
		p.next()
		return &CondTrue{}, nil
	case TokFalse:
		p.next()
		return &CondFalse{}, nil
	case TokIdent:
		id := p.next()
		if op, ok := binOpText(p.cur().Kind); ok && isCmp(op) {
			p.next()
			rhs, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &CondAtom{Txt: id.Text + op + rhs.Text()}, nil
		}
		return &CondAtom{Txt: id.Text}, nil
	}
	return nil, p.errf("unexpected %s in condition", p.cur().Kind)
}

func isCmp(op string) bool {
	switch op {
	case "==", "!=", "<", ">", "<=", ">=":
		return true
	}
	return false
}
