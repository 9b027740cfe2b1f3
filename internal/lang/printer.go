package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// PrintFile renders a parsed file back to MiniHack source. The output
// is canonical rather than faithful to the original layout: one
// statement per line, uniform two-space indentation, and fully
// parenthesized binary expressions and unary bases of postfix
// operators (so no precedence table is needed and the result re-parses
// to the same AST; FuzzLangRoundTrip checks it). The
// continuous-deployment source mutator (internal/release) edits ASTs
// and uses this printer to produce the next revision's sources.
func PrintFile(f *File) string {
	var b strings.Builder
	p := printer{b: &b}
	for _, c := range f.Classes {
		p.class(c)
	}
	for _, fn := range f.Funcs {
		p.fun(fn)
	}
	return b.String()
}

type printer struct {
	b      *strings.Builder
	indent int
}

func (p *printer) line(format string, args ...interface{}) {
	p.b.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *printer) class(c *ClassDecl) {
	if c.Parent != "" {
		p.line("class %s extends %s {", c.Name, c.Parent)
	} else {
		p.line("class %s {", c.Name)
	}
	p.indent++
	for _, pd := range c.Props {
		if pd.Default != nil {
			p.line("prop %s = %s;", pd.Name, exprString(pd.Default))
		} else {
			p.line("prop %s;", pd.Name)
		}
	}
	for _, m := range c.Methods {
		p.fun(m)
	}
	p.indent--
	p.line("}")
}

func (p *printer) fun(fn *FuncDecl) {
	p.line("fun %s(%s) {", fn.Name, strings.Join(fn.Params, ", "))
	p.indent++
	p.stmts(fn.Body)
	p.indent--
	p.line("}")
}

func (p *printer) stmts(ss []Stmt) {
	for _, s := range ss {
		p.stmt(s)
	}
}

func (p *printer) stmt(s Stmt) {
	switch st := s.(type) {
	case *ExprStmt:
		p.line("%s;", exprString(st.X))
	case *AssignStmt:
		p.line("%s;", assignString(st))
	case *IfStmt:
		p.line("if (%s) {", exprString(st.Cond))
		p.indent++
		p.stmts(st.Then)
		p.indent--
		if len(st.Else) > 0 {
			p.line("} else {")
			p.indent++
			p.stmts(st.Else)
			p.indent--
		}
		p.line("}")
	case *WhileStmt:
		p.line("while (%s) {", exprString(st.Cond))
		p.indent++
		p.stmts(st.Body)
		p.indent--
		p.line("}")
	case *ForStmt:
		init, step := "", ""
		if st.Init != nil {
			init = simpleString(st.Init)
		}
		cond := ""
		if st.Cond != nil {
			cond = exprString(st.Cond)
		}
		if st.Step != nil {
			step = simpleString(st.Step)
		}
		p.line("for (%s; %s; %s) {", init, cond, step)
		p.indent++
		p.stmts(st.Body)
		p.indent--
		p.line("}")
	case *ForeachStmt:
		if st.Key != "" {
			p.line("foreach (%s as %s => %s) {", exprString(st.Seq), st.Key, st.Val)
		} else {
			p.line("foreach (%s as %s) {", exprString(st.Seq), st.Val)
		}
		p.indent++
		p.stmts(st.Body)
		p.indent--
		p.line("}")
	case *ReturnStmt:
		if st.Value != nil {
			p.line("return %s;", exprString(st.Value))
		} else {
			p.line("return;")
		}
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

// simpleString renders an assignment or expression statement without
// the trailing semicolon (for-loop headers).
func simpleString(s Stmt) string {
	switch st := s.(type) {
	case *ExprStmt:
		return exprString(st.X)
	case *AssignStmt:
		return assignString(st)
	default:
		panic(fmt.Sprintf("lang: %T is not a simple statement", s))
	}
}

func assignString(st *AssignStmt) string {
	return fmt.Sprintf("%s %s= %s", exprString(st.LHS), st.Op, exprString(st.RHS))
}

func exprString(e Expr) string {
	switch x := e.(type) {
	case *IntLit:
		return strconv.FormatInt(x.Val, 10)
	case *FloatLit:
		s := strconv.FormatFloat(x.Val, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep the token lexing as a float
		}
		return s
	case *StrLit:
		return quoteStr(x.Val)
	case *BoolLit:
		if x.Val {
			return "true"
		}
		return "false"
	case *NullLit:
		return "null"
	case *Ident:
		return x.Name
	case *ThisExpr:
		return "this"
	case *ArrayLit:
		parts := make([]string, len(x.Entries))
		for i, ent := range x.Entries {
			if ent.Key != nil {
				parts[i] = exprString(ent.Key) + " => " + exprString(ent.Val)
			} else {
				parts[i] = exprString(ent.Val)
			}
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Unary:
		return x.Op + "(" + exprString(x.X) + ")"
	case *Binary:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case *Call:
		return x.Name + argsString(x.Args)
	case *MethodCall:
		return postfixBase(x.Recv) + "->" + x.Name + argsString(x.Args)
	case *New:
		return "new " + x.Class + argsString(x.Args)
	case *Index:
		return postfixBase(x.Base) + "[" + exprString(x.Key) + "]"
	case *Prop:
		return postfixBase(x.Base) + "->" + x.Name
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// postfixBase renders the base of an index, property access or method
// call. A unary base needs its own parentheses: -(a)[0] re-parses as
// -(a[0]).
func postfixBase(e Expr) string {
	if _, ok := e.(*Unary); ok {
		return "(" + exprString(e) + ")"
	}
	return exprString(e)
}

func argsString(args []Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = exprString(a)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func quoteStr(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
