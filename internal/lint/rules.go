package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// fileChecker runs every rule over one file.
type fileChecker struct {
	pkg      *Package
	mod      *module // cross-package facts; nil under single-package Check
	file     *ast.File
	imports  map[string]string // identifier -> import path
	opts     *Options
	findings []Finding
}

func (fc *fileChecker) report(rule string, pos token.Pos, format string, args ...interface{}) {
	if fc.opts.disabled(rule) {
		return
	}
	fc.findings = append(fc.findings, Finding{
		Rule: rule,
		Pos:  fc.pkg.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

func (fc *fileChecker) check() []Finding {
	ast.Inspect(fc.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fc.checkCall(n)
			fc.checkReadonlyCall(n)
		case *ast.GoStmt:
			fc.checkGo(n)
		case *ast.RangeStmt:
			fc.checkRange(n)
		case *ast.AssignStmt:
			fc.checkFloatClock(n)
			fc.checkReadonlyAssign(n)
		case *ast.IncDecStmt:
			fc.checkReadonlyIncDec(n)
		}
		return true
	})
	fc.checkSyncNames()
	return fc.findings
}

// pkgSelector resolves a call target of the form pkgname.Func to its
// import path and function name. It prefers type information (which
// sees through shadowing) and falls back to the file's import table.
func (fc *fileChecker) pkgSelector(fun ast.Expr) (path, name string, ok bool) {
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	if fc.pkg.Info != nil {
		if obj := fc.pkg.Info.Uses[id]; obj != nil {
			pn, isPkg := obj.(*types.PkgName)
			if !isPkg {
				return "", "", false // shadowed by a local binding
			}
			return pn.Imported().Path(), sel.Sel.Name, true
		}
	}
	if p, found := fc.imports[id.Name]; found {
		return p, sel.Sel.Name, true
	}
	return "", "", false
}

// --- rule: wallclock ---------------------------------------------------

// wallclockFuncs are the time-package functions that read or schedule
// against the host's wall clock. time.Duration arithmetic and constants
// are fine — only the clock sources are banned.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true,
}

func (fc *fileChecker) checkCall(call *ast.CallExpr) {
	path, name, ok := fc.pkgSelector(call.Fun)
	if !ok {
		return
	}
	if path == "time" && wallclockFuncs[name] {
		fc.report(RuleWallclock, call.Pos(),
			"time.%s reads the wall clock; simulated state must use virtual time (annotate //simlint:allow wallclock if this feeds only host-side reporting)", name)
	}
	if path == "math/rand" || path == "math/rand/v2" {
		fc.checkRand(call, name)
	}
}

// --- rule: rand --------------------------------------------------------

// randSeeded are the math/rand entry points that take an explicit seed;
// each seed argument must be a compile-time constant or derived from a
// processor ID.
var randSeeded = map[string]bool{
	"NewSource": true, "Seed": true, // math/rand
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// randGlobalOK are the rand-package names that neither seed nor draw
// from the global source (constructors over explicit sources, types).
var randGlobalOK = map[string]bool{
	"New": true, "NewZipf": true,
}

func (fc *fileChecker) checkRand(call *ast.CallExpr, name string) {
	if randSeeded[name] {
		for _, arg := range call.Args {
			if fc.isConst(arg) || containsIDCall(arg) {
				continue
			}
			fc.report(RuleRand, arg.Pos(),
				"rand.%s seed is neither a compile-time constant nor derived from a processor ID; runs will not be reproducible", name)
		}
		return
	}
	if randGlobalOK[name] {
		return
	}
	// Everything else on the package itself (Intn, Float64, Perm,
	// Shuffle, N, ...) draws from the globally, nondeterministically
	// seeded source.
	fc.report(RuleRand, call.Pos(),
		"rand.%s draws from the global source, which is randomly seeded; construct rand.New(rand.NewSource(const)) instead", name)
}

func (fc *fileChecker) isConst(e ast.Expr) bool {
	if fc.pkg.Info == nil {
		return false
	}
	tv, ok := fc.pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// containsIDCall reports whether the expression contains a niladic .ID()
// method call — the sanctioned way to derive per-processor seeds
// (p.ID(), pe.ID()).
func containsIDCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if ok && sel.Sel.Name == "ID" && len(call.Args) == 0 {
			found = true
			return false
		}
		return true
	})
	return found
}

// --- rule: goroutine ---------------------------------------------------

func (fc *fileChecker) checkGo(g *ast.GoStmt) {
	fc.report(RuleGoroutine, g.Pos(),
		"go statement breaks the one-processor-at-a-time execution discipline (the engine runs processors as coroutines)")
}

// --- rule: maprange ----------------------------------------------------

// commutativeOps are compound-assignment operators that are order-
// independent over integers (associative and commutative, including
// modular wraparound).
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true, token.OR_ASSIGN: true, token.XOR_ASSIGN: true,
}

func (fc *fileChecker) checkRange(r *ast.RangeStmt) {
	if !fc.isMapType(r.X) {
		return
	}
	keyName := ""
	if id, ok := r.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fc.checkRangeAssign(r, n, keyName)
		case *ast.IncDecStmt:
			if fc.declaredOutside(rootIdent(n.X), r) && !fc.isIntegerExpr(n.X) {
				fc.report(RuleMapRange, n.Pos(),
					"non-integer update of outer state inside range over map is iteration-order dependent")
			}
		}
		return true
	})
}

func (fc *fileChecker) checkRangeAssign(r *ast.RangeStmt, a *ast.AssignStmt, keyName string) {
	for i, lhs := range a.Lhs {
		root := rootIdent(lhs)
		if root == nil || !fc.declaredOutside(root, r) {
			continue
		}
		// Writes keyed by the range key land in per-key slots and are
		// order-independent (including appends into lru[k]-style slots).
		if keyName != "" && lvalueKeyedBy(lhs, keyName) {
			continue
		}
		// Appends into outer slices depend on map iteration order.
		if i < len(a.Rhs) && isAppendTo(a.Rhs[i]) {
			fc.report(RuleMapRange, a.Pos(),
				"append to %q inside range over map records iteration order; collect and sort, or annotate //simlint:allow maprange after sorting", root.Name)
			continue
		}
		switch {
		case a.Tok == token.ASSIGN || a.Tok == token.DEFINE:
			fc.report(RuleMapRange, a.Pos(),
				"assignment to outer %q inside range over map keeps whichever iteration came last", root.Name)
		case commutativeOps[a.Tok] && fc.isIntegerExpr(lhs):
			// Integer accumulation is commutative: allowed.
		default:
			fc.report(RuleMapRange, a.Pos(),
				"%s on outer %q inside range over map is iteration-order dependent", a.Tok, root.Name)
		}
	}
}

// lvalueKeyedBy reports whether any index along the lvalue chain
// mentions the range key, e.g. out[k], lru[k].tail, grid[k][0].
func lvalueKeyedBy(e ast.Expr, keyName string) bool {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			if mentionsIdent(v.Index, keyName) {
				return true
			}
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return false
		}
	}
}

func isAppendTo(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// rootIdent returns the leftmost identifier of an lvalue chain
// (x, x.f, x[i].g, (*x).f, ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether id's declaration lies outside the
// range statement. Unresolvable identifiers are treated as outer state
// (conservative).
func (fc *fileChecker) declaredOutside(id *ast.Ident, r *ast.RangeStmt) bool {
	if id == nil {
		return false
	}
	if fc.pkg.Info == nil {
		return true
	}
	obj := fc.pkg.Info.ObjectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < r.Pos() || obj.Pos() > r.End()
}

func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}

func (fc *fileChecker) isMapType(e ast.Expr) bool {
	t := fc.typeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func (fc *fileChecker) typeOf(e ast.Expr) types.Type {
	if fc.pkg.Info == nil {
		return nil
	}
	t := fc.pkg.Info.TypeOf(e)
	if t == nil || t == types.Typ[types.Invalid] {
		return nil
	}
	return t
}

func (fc *fileChecker) isIntegerExpr(e ast.Expr) bool {
	return isIntegerType(fc.typeOf(e))
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// --- rule: floatclock --------------------------------------------------

// checkFloatClock flags floating-point values accumulating into integer
// (Clock/counter) storage: `c.Time += Clock(f)` or
// `c.Time = c.Time + int64(f)`. A one-shot conversion (analytic model
// output assigned once) is fine; accumulation compounds rounding error
// and makes virtual time depend on float evaluation order.
func (fc *fileChecker) checkFloatClock(a *ast.AssignStmt) {
	compound := a.Tok == token.ADD_ASSIGN || a.Tok == token.SUB_ASSIGN ||
		a.Tok == token.MUL_ASSIGN || a.Tok == token.QUO_ASSIGN
	for i, lhs := range a.Lhs {
		if i >= len(a.Rhs) && len(a.Rhs) != 1 {
			break
		}
		rhs := a.Rhs[0]
		if len(a.Rhs) == len(a.Lhs) {
			rhs = a.Rhs[i]
		}
		if !fc.isIntegerExpr(lhs) {
			continue
		}
		conv := fc.findFloatToIntConv(rhs)
		if conv == nil {
			continue
		}
		if compound {
			fc.report(RuleFloatClock, conv.Pos(),
				"float value accumulates into integer %s via %s; compute in integer cycles or apply the conversion once outside the loop",
				exprString(lhs), a.Tok)
			continue
		}
		if a.Tok == token.ASSIGN && mentionsExpr(rhs, exprString(lhs)) {
			fc.report(RuleFloatClock, conv.Pos(),
				"self-referencing assignment accumulates a float into integer %s; compute in integer cycles", exprString(lhs))
		}
	}
}

// findFloatToIntConv returns the first conversion of a float-typed
// expression to an integer type inside e, or nil.
func (fc *fileChecker) findFloatToIntConv(e ast.Expr) ast.Expr {
	var conv ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		if conv != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || fc.pkg.Info == nil {
			return true
		}
		tv, ok := fc.pkg.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		if isIntegerType(tv.Type) && isFloatType(fc.typeOf(call.Args[0])) {
			conv = call
			return false
		}
		return true
	})
	return conv
}

func exprString(e ast.Expr) string { return types.ExprString(e) }

// mentionsExpr reports whether e contains a sub-expression that renders
// identically to target — the self-reference test of floatclock.
func mentionsExpr(e ast.Expr, target string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		sub, ok := n.(ast.Expr)
		if ok && exprString(sub) == target {
			found = true
			return false
		}
		return true
	})
	return found
}
