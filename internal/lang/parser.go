package lang

import "fmt"

// Parser is a recursive-descent parser for MiniHack.
type Parser struct {
	file string
	toks []Token
	pos  int
}

// Parse lexes and parses a whole source file.
func Parse(file, src string) (*File, error) {
	toks, err := LexAll(file, src)
	if err != nil {
		return nil, err
	}
	p := &Parser{file: file, toks: toks}
	return p.parseFile()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, p.errf("expected %s, found %s", k, p.describe(p.cur()))
}

func (p *Parser) describe(t Token) string {
	switch t.Kind {
	case TokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case TokInt, TokFloat, TokString:
		return t.Kind.String()
	default:
		return t.Kind.String()
	}
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return &Error{File: p.file, Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for !p.at(TokEOF) {
		switch p.cur().Kind {
		case TokFun:
			fn, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
		case TokClass:
			c, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			f.Classes = append(f.Classes, c)
		default:
			return nil, p.errf("expected 'fun' or 'class' at top level, found %s",
				p.describe(p.cur()))
		}
	}
	return f, nil
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	kw, err := p.expect(TokFun)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var params []string
	seen := map[string]bool{}
	for !p.at(TokRParen) {
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if seen[id.Text] {
			return nil, &Error{File: p.file, Pos: id.Pos,
				Msg: fmt.Sprintf("duplicate parameter %q", id.Text)}
		}
		seen[id.Text] = true
		params = append(params, id.Text)
		if !p.accept(TokComma) {
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

func (p *Parser) parseClass() (*ClassDecl, error) {
	kw, err := p.expect(TokClass)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	c := &ClassDecl{Name: name.Text, Pos: kw.Pos}
	if p.accept(TokExtends) {
		parent, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		c.Parent = parent.Text
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for !p.at(TokRBrace) {
		switch p.cur().Kind {
		case TokProp:
			p.next()
			id, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			pd := PropDecl{Name: id.Text, Pos: id.Pos}
			if p.accept(TokAssign) {
				def, err := p.parseLiteral()
				if err != nil {
					return nil, err
				}
				pd.Default = def
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			c.Props = append(c.Props, pd)
		case TokFun:
			m, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			c.Methods = append(c.Methods, m)
		default:
			return nil, p.errf("expected 'prop' or 'fun' in class body, found %s",
				p.describe(p.cur()))
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return c, nil
}

// parseLiteral parses a constant literal (property defaults).
func (p *Parser) parseLiteral() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		return &IntLit{Val: t.Int, Pos: t.Pos}, nil
	case TokFloat:
		p.next()
		return &FloatLit{Val: t.Flt, Pos: t.Pos}, nil
	case TokString:
		p.next()
		return &StrLit{Val: t.Text, Pos: t.Pos}, nil
	case TokTrue, TokFalse:
		p.next()
		return &BoolLit{Val: t.Kind == TokTrue, Pos: t.Pos}, nil
	case TokNull:
		p.next()
		return &NullLit{Pos: t.Pos}, nil
	case TokMinus:
		p.next()
		inner, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		switch l := inner.(type) {
		case *IntLit:
			return &IntLit{Val: -l.Val, Pos: t.Pos}, nil
		case *FloatLit:
			return &FloatLit{Val: -l.Val, Pos: t.Pos}, nil
		}
		return nil, p.errf("bad negative literal")
	default:
		return nil, p.errf("expected literal, found %s", p.describe(t))
	}
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.next() // '}'
	return stmts, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokForeach:
		return p.parseForeach()
	case TokReturn:
		t := p.next()
		if p.accept(TokSemi) {
			return &ReturnStmt{Pos: t.Pos}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: e, Pos: t.Pos}, nil
	case TokBreak:
		t := p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: t.Pos}, nil
	case TokContinue:
		t := p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: t.Pos}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseSimpleStmt parses an assignment or expression statement, without
// the trailing semicolon (for-loop headers reuse it).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.cur().Kind {
	case TokAssign:
		op = ""
	case TokPlusEq:
		op = "+"
	case TokMinusEq:
		op = "-"
	case TokStarEq:
		op = "*"
	case TokSlashEq:
		op = "/"
	case TokDotEq:
		op = "."
	default:
		return &ExprStmt{X: e}, nil
	}
	t := p.next()
	switch e.(type) {
	case *Ident, *Index, *Prop:
	default:
		return nil, &Error{File: p.file, Pos: t.Pos, Msg: "invalid assignment target"}
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: e, Op: op, RHS: rhs, Pos: t.Pos}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	p.next() // 'if'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
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
	stmt := &IfStmt{Cond: cond, Then: then}
	if p.accept(TokElse) {
		if p.at(TokIf) {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			stmt.Else = []Stmt{elseIf}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			stmt.Else = els
		}
	}
	return stmt, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	p.next() // 'while'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
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
	return &WhileStmt{Cond: cond, Body: body}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	p.next() // 'for'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &ForStmt{}
	if !p.at(TokSemi) {
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		f.Init = init
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokSemi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokRParen) {
		step, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		f.Step = step
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseForeach() (Stmt, error) {
	p.next() // 'foreach'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	seq, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAs); err != nil {
		return nil, err
	}
	first, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	fe := &ForeachStmt{Seq: seq, Val: first.Text}
	if p.accept(TokFatArrow) {
		val, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		fe.Key = first.Text
		fe.Val = val.Text
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fe.Body = body
	return fe, nil
}

// Binary operator precedence, loosest first. Mirrors PHP closely.
var binaryPrec = map[TokKind]int{
	TokOrOr:   1,
	TokAndAnd: 2,
	TokPipe:   3,
	TokCaret:  4,
	TokAmp:    5,
	TokEq:     6, TokNeq: 6, TokSame: 6, TokNSame: 6,
	TokLt: 7, TokLte: 7, TokGt: 7, TokGte: 7,
	TokShl: 8, TokShr: 8,
	TokPlus: 9, TokMinus: 9, TokDot: 9,
	TokStar: 10, TokSlash: 10, TokPercent: 10,
}

var binaryOpText = map[TokKind]string{
	TokOrOr: "||", TokAndAnd: "&&", TokPipe: "|", TokCaret: "^",
	TokAmp: "&", TokEq: "==", TokNeq: "!=", TokSame: "===",
	TokNSame: "!==", TokLt: "<", TokLte: "<=", TokGt: ">", TokGte: ">=",
	TokShl: "<<", TokShr: ">>", TokPlus: "+", TokMinus: "-",
	TokDot: ".", TokStar: "*", TokSlash: "/", TokPercent: "%",
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binaryPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(prec + 1) // left-associative
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: binaryOpText[opTok.Kind], L: lhs, R: rhs, Pos: opTok.Pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus:
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x, Pos: t.Pos}, nil
	case TokNot:
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", X: x, Pos: t.Pos}, nil
	default:
		return p.parsePostfix()
	}
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case TokLBracket:
			t := p.next()
			key, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			e = &Index{Base: e, Key: key, Pos: t.Pos}
		case TokArrow:
			t := p.next()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if p.at(TokLParen) {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				e = &MethodCall{Recv: e, Name: name.Text, Args: args, Pos: t.Pos}
			} else {
				e = &Prop{Base: e, Name: name.Text, Pos: t.Pos}
			}
		default:
			return e, nil
		}
	}
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.at(TokRParen) {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt, TokFloat, TokString, TokTrue, TokFalse, TokNull:
		// Not TokMinus: in an expression '-' is the unary operator,
		// which parseUnary handles.
		return p.parseLiteral()
	case TokThis:
		p.next()
		return &ThisExpr{Pos: t.Pos}, nil
	case TokNew:
		p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		var args []Expr
		if p.at(TokLParen) {
			args, err = p.parseArgs()
			if err != nil {
				return nil, err
			}
		}
		return &New{Class: name.Text, Args: args, Pos: t.Pos}, nil
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{Name: t.Text, Args: args, Pos: t.Pos}, nil
		}
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokLBracket:
		return p.parseArrayLit()
	default:
		return nil, p.errf("expected expression, found %s", p.describe(t))
	}
}

func (p *Parser) parseArrayLit() (Expr, error) {
	t, err := p.expect(TokLBracket)
	if err != nil {
		return nil, err
	}
	lit := &ArrayLit{Pos: t.Pos}
	for !p.at(TokRBracket) {
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		entry := ArrayEntry{Val: first}
		if p.accept(TokFatArrow) {
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			entry.Key = first
			entry.Val = val
		}
		lit.Entries = append(lit.Entries, entry)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	// Keyed and unkeyed entries must not mix ambiguously after a keyed
	// entry... actually PHP allows mixing; we allow it too.
	return lit, nil
}
