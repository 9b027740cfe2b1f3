package release

import (
	"fmt"
	"sort"
	"strings"

	"jumpstart/internal/lang"
	"jumpstart/internal/netsim"
)

// MutationStats reports what one revision changed relative to its
// predecessor, broken down by mutation kind. The split matters for the
// remapper's expected outcome: constant tweaks keep the CFG (fuzzy
// remappable), statement inserts change it (profile drops), renames
// keep the body (exact remappable via fingerprint), removals drop, and
// property reorders change only class layout (everything exact).
type MutationStats struct {
	ConstTweaks   int // IntLit constants bumped inside existing bodies
	StmtInserts   int // statements inserted into existing bodies
	FuncsAdded    int // brand-new free functions
	FuncsRemoved  int // uncalled helpers deleted
	FuncsRenamed  int // helpers renamed (all call sites updated)
	PropReorders  int // classes whose property order was rotated
	TouchedHelper int // distinct existing functions whose body changed
}

// mutator applies one revision's worth of churn to a parsed site.
// Files are visited in unit order and functions in declaration order,
// so a given (seed, revision) pair always produces the same edit.
type mutator struct {
	r     *netsim.Stream
	files []*lang.File
	rev   int

	// free maps free-function name -> its declaration; built once so
	// rename/remove can check call-site constraints cheaply.
	free map[string]*lang.FuncDecl
	// calls counts call sites per callee name across the whole site.
	calls map[string]int

	stats   MutationStats
	renames map[string]string // old name -> new name, applied at the end
}

// helperName reports whether a free function is fair game for
// body-identity-changing mutations. Endpoints (ep*) are the traffic
// entry points — traffic looks them up by name, so they are never
// renamed or removed — and nf* functions were added by a previous
// revision's churn.
func mutableHelper(name string) bool {
	return strings.HasPrefix(name, "h") || strings.HasPrefix(name, "nf")
}

func newMutator(files []*lang.File, r *netsim.Stream, rev int) *mutator {
	m := &mutator{
		r:       r,
		files:   files,
		rev:     rev,
		free:    map[string]*lang.FuncDecl{},
		calls:   map[string]int{},
		renames: map[string]string{},
	}
	for _, f := range files {
		for _, fn := range f.Funcs {
			m.free[fn.Name] = fn
			countCalls(fn.Body, m.calls)
		}
		for _, c := range f.Classes {
			for _, meth := range c.Methods {
				countCalls(meth.Body, m.calls)
			}
		}
	}
	return m
}

// apply runs the configured amount of churn. rate is the fraction of
// helper functions whose body is edited; the structural mutations
// (add/remove/rename/reorder) each fire a rate-scaled number of times.
func (m *mutator) apply(rate float64) {
	helpers := m.helperList()
	nEdit := int(rate*float64(len(helpers)) + 0.5)
	if nEdit < 1 {
		nEdit = 1
	}
	// Structural churn scales down from the edit volume: pushes change
	// many constants and a handful of signatures.
	nStruct := nEdit / 4
	if nStruct < 1 {
		nStruct = 1
	}

	for i := 0; i < nEdit; i++ {
		name := helpers[m.r.Intn(len(helpers))]
		// Three out of four body edits are constant tweaks (CFG
		// preserved → fuzzy-remappable); the rest insert a statement
		// (CFG changed → the profile must drop).
		if m.r.Intn(4) == 0 {
			m.insertStmt(m.free[name])
		} else {
			m.tweakConst(m.free[name])
		}
	}
	for i := 0; i < nStruct; i++ {
		m.renameFunc(helpers, i)
	}
	for i := 0; i < nStruct; i++ {
		m.addFunc(i)
	}
	m.removeUncalled(nStruct)
	m.reorderProps(nStruct)
	m.applyRenames()
}

// helperList returns mutable helper names in a deterministic order.
func (m *mutator) helperList() []string {
	names := make([]string, 0, len(m.free))
	for name := range m.free {
		if mutableHelper(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// tweakConst bumps one integer literal in the function body, modelling
// the classic "edit a constant, recompile" push. The opcode skeleton —
// and with it the CFG — is unchanged.
func (m *mutator) tweakConst(fn *lang.FuncDecl) {
	if fn == nil {
		return
	}
	lits := collectIntLits(fn.Body)
	if len(lits) == 0 {
		return
	}
	lit := lits[m.r.Intn(len(lits))]
	// Keep small loop bounds and modulus bases positive and nonzero so
	// the mutated site still terminates and never divides by zero.
	lit.Val += int64(1 + m.r.Intn(7))
	m.stats.ConstTweaks++
	m.stats.TouchedHelper++
}

// insertStmt prepends a cheap arithmetic statement to the body,
// changing the block structure (profiles collected against the old
// body are no longer meaningful and must drop).
func (m *mutator) insertStmt(fn *lang.FuncDecl) {
	if fn == nil || len(fn.Params) == 0 {
		return
	}
	p := fn.Params[0]
	// "if (p % K == 0) { p = p + C; }" adds a branch — a genuinely new CFG.
	k := int64(2 + m.r.Intn(11))
	c := int64(1 + m.r.Intn(9))
	stmt := &lang.IfStmt{
		Cond: &lang.Binary{Op: "==",
			L: &lang.Binary{Op: "%", L: &lang.Ident{Name: p}, R: &lang.IntLit{Val: k}},
			R: &lang.IntLit{Val: 0}},
		Then: []lang.Stmt{&lang.AssignStmt{
			LHS: &lang.Ident{Name: p}, Op: "+",
			RHS: &lang.IntLit{Val: c}}},
	}
	fn.Body = append([]lang.Stmt{stmt}, fn.Body...)
	m.stats.StmtInserts++
	m.stats.TouchedHelper++
}

// renameFunc renames one helper, leaving its body bit-identical, and
// records the rename for call-site rewriting. The remapper must
// recover these via the body fingerprint.
func (m *mutator) renameFunc(helpers []string, i int) {
	if len(helpers) == 0 {
		return
	}
	name := helpers[(m.r.Intn(len(helpers))+i)%len(helpers)]
	if _, already := m.renames[name]; already {
		return
	}
	newName := fmt.Sprintf("%s_r%d", name, m.rev)
	if _, exists := m.free[newName]; exists {
		return
	}
	m.renames[name] = newName
	m.stats.FuncsRenamed++
}

// addFunc appends a new free function to a random unit. It is not
// called by anything yet — mirroring how new code lands dark before
// traffic reaches it — so it adds bytecode without disturbing profiles.
func (m *mutator) addFunc(i int) {
	f := m.files[m.r.Intn(len(m.files))]
	name := fmt.Sprintf("nf%d_%d", m.rev, i)
	if _, exists := m.free[name]; exists {
		return
	}
	loop := int64(3 + m.r.Intn(9))
	c := int64(2 + m.r.Intn(7))
	fn := &lang.FuncDecl{
		Name:   name,
		Params: []string{"a"},
		Body: []lang.Stmt{
			&lang.AssignStmt{LHS: &lang.Ident{Name: "t"}, RHS: &lang.IntLit{Val: 0}},
			&lang.ForStmt{
				Init: &lang.AssignStmt{LHS: &lang.Ident{Name: "i"}, RHS: &lang.IntLit{Val: 0}},
				Cond: &lang.Binary{Op: "<", L: &lang.Ident{Name: "i"}, R: &lang.IntLit{Val: loop}},
				Step: &lang.AssignStmt{LHS: &lang.Ident{Name: "i"}, Op: "+", RHS: &lang.IntLit{Val: 1}},
				Body: []lang.Stmt{&lang.AssignStmt{
					LHS: &lang.Ident{Name: "t"}, Op: "+",
					RHS: &lang.Binary{Op: "%",
						L: &lang.Binary{Op: "+", L: &lang.Ident{Name: "a"},
							R: &lang.Binary{Op: "*", L: &lang.Ident{Name: "i"}, R: &lang.IntLit{Val: c}}},
						R: &lang.IntLit{Val: 97}}}},
			},
			&lang.ReturnStmt{Value: &lang.Ident{Name: "t"}},
		},
	}
	f.Funcs = append(f.Funcs, fn)
	m.free[name] = fn
	m.stats.FuncsAdded++
}

// removeUncalled deletes up to n helpers that no remaining code calls —
// dead code cleanup. Their profiles have nowhere to go and must drop.
func (m *mutator) removeUncalled(n int) {
	removed := 0
	for _, f := range m.files {
		if removed >= n {
			break
		}
		kept := f.Funcs[:0]
		for _, fn := range f.Funcs {
			if removed < n && mutableHelper(fn.Name) && m.calls[fn.Name] == 0 {
				if _, renamed := m.renames[fn.Name]; !renamed {
					delete(m.free, fn.Name)
					removed++
					m.stats.FuncsRemoved++
					continue
				}
			}
			kept = append(kept, fn)
		}
		f.Funcs = kept
	}
}

// reorderProps rotates the declared property order of up to n classes.
// Declared order is observable in MiniHack, so this is a real layout
// change — but method bytecode is untouched, so every profile should
// remap exactly.
func (m *mutator) reorderProps(n int) {
	done := 0
	for _, f := range m.files {
		for _, c := range f.Classes {
			if done >= n {
				return
			}
			if len(c.Props) < 2 {
				continue
			}
			rot := 1 + m.r.Intn(len(c.Props)-1)
			c.Props = append(c.Props[rot:], c.Props[:rot]...)
			done++
			m.stats.PropReorders++
		}
	}
}

// applyRenames rewrites the declaration and every call site of each
// renamed function, across all files.
func (m *mutator) applyRenames() {
	if len(m.renames) == 0 {
		return
	}
	for _, f := range m.files {
		for _, fn := range f.Funcs {
			if to, ok := m.renames[fn.Name]; ok {
				fn.Name = to
			}
			renameCalls(fn.Body, m.renames)
		}
		for _, c := range f.Classes {
			for _, meth := range c.Methods {
				renameCalls(meth.Body, m.renames)
			}
		}
	}
}

// --- AST walking helpers ---

func countCalls(body []lang.Stmt, out map[string]int) {
	walkStmts(body, func(e lang.Expr) {
		if call, ok := e.(*lang.Call); ok {
			out[call.Name]++
		}
	})
}

func collectIntLits(body []lang.Stmt) []*lang.IntLit {
	var lits []*lang.IntLit
	walkStmts(body, func(e lang.Expr) {
		if l, ok := e.(*lang.IntLit); ok {
			lits = append(lits, l)
		}
	})
	return lits
}

func renameCalls(body []lang.Stmt, renames map[string]string) {
	walkStmts(body, func(e lang.Expr) {
		if call, ok := e.(*lang.Call); ok {
			if to, ok := renames[call.Name]; ok {
				call.Name = to
			}
		}
	})
}

// walkStmts visits every expression in the statement list, depth-first
// and in source order.
func walkStmts(ss []lang.Stmt, visit func(lang.Expr)) {
	for _, s := range ss {
		walkStmt(s, visit)
	}
}

func walkStmt(s lang.Stmt, visit func(lang.Expr)) {
	switch st := s.(type) {
	case *lang.ExprStmt:
		walkExpr(st.X, visit)
	case *lang.AssignStmt:
		walkExpr(st.LHS, visit)
		walkExpr(st.RHS, visit)
	case *lang.IfStmt:
		walkExpr(st.Cond, visit)
		walkStmts(st.Then, visit)
		walkStmts(st.Else, visit)
	case *lang.WhileStmt:
		walkExpr(st.Cond, visit)
		walkStmts(st.Body, visit)
	case *lang.ForStmt:
		if st.Init != nil {
			walkStmt(st.Init, visit)
		}
		if st.Cond != nil {
			walkExpr(st.Cond, visit)
		}
		if st.Step != nil {
			walkStmt(st.Step, visit)
		}
		walkStmts(st.Body, visit)
	case *lang.ForeachStmt:
		walkExpr(st.Seq, visit)
		walkStmts(st.Body, visit)
	case *lang.ReturnStmt:
		if st.Value != nil {
			walkExpr(st.Value, visit)
		}
	case *lang.BreakStmt, *lang.ContinueStmt:
	}
}

func walkExpr(e lang.Expr, visit func(lang.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *lang.ArrayLit:
		for _, ent := range x.Entries {
			walkExpr(ent.Key, visit)
			walkExpr(ent.Val, visit)
		}
	case *lang.Unary:
		walkExpr(x.X, visit)
	case *lang.Binary:
		walkExpr(x.L, visit)
		walkExpr(x.R, visit)
	case *lang.Call:
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
	case *lang.MethodCall:
		walkExpr(x.Recv, visit)
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
	case *lang.New:
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
	case *lang.Index:
		walkExpr(x.Base, visit)
		walkExpr(x.Key, visit)
	case *lang.Prop:
		walkExpr(x.Base, visit)
	}
}
