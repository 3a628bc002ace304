package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/snicvet/internal/lint"
)

// Fact computation: derive the per-function fact set of one compilation
// unit (see lint/facts.go) from its syntax, its type information, and
// the already-computed facts of its dependencies, then propagate
// bottom-up over the intra-package call graph to a fixpoint.
//
// Suppressions participate: a root (the time.Now call, the allocation,
// the map-range collect) or a propagating call that is covered by a
// //snicvet:ignore directive for the matching analyzer contributes no
// fact. That is what makes one justified suppression at the source
// silence the transitive reports at every call site above it.

// The analyzer name whose suppressions clear each fact kind.
const (
	factWallclock = "wallclock"
	factSeedrand  = "seedrand"
	factMapOrder  = "detflow"
	factHotpath   = "hotpath"
)

// funcInfo is the per-function working state during fact computation.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	fact lint.FuncFact
	// calls are the statically-resolved callees in source order.
	calls []callSite
}

type callSite struct {
	fn  *types.Func
	pos token.Pos
}

// ComputeFacts derives the unit's fact set. db supplies imported facts
// (may be nil); suppressions are parsed from the unit's files so root
// suppressions clear facts exactly as they clear reports.
func ComputeFacts(u *lint.Unit, db *lint.FactDB) *lint.PackageFacts {
	pf := lint.NewPackageFacts(u.Pkg.Path())
	sups := lint.ParseSuppressions(u.Fset, u.Files)
	suppressed := func(analyzer string, pos token.Pos) bool {
		return sups.Suppressed(analyzer, u.Fset.Position(pos))
	}

	// Collect the package's functions in source order (determinism: the
	// first discovered provenance chain wins and must not depend on map
	// iteration).
	var funcs []*funcInfo
	byObj := make(map[*types.Func]*funcInfo)
	for _, file := range u.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := u.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{obj: fn, decl: fd}
			funcs = append(funcs, fi)
			byObj[fn] = fi
		}
	}

	for _, fi := range funcs {
		scanRoots(u, fi, suppressed)
	}

	// Seed from imported facts at cross-package call sites, then close
	// over same-package calls to a fixpoint. Function literals are
	// attributed to their enclosing declaration: a closure's behaviour
	// is conservatively its creator's.
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			for _, cs := range fi.calls {
				var callee lint.FuncFact
				if local, ok := byObj[cs.fn]; ok {
					callee = local.fact
				} else if f, ok := db.Lookup(cs.fn); ok {
					callee = f
				} else {
					continue
				}
				changed = propagate(&fi.fact, callee, cs, suppressed) || changed
			}
		}
	}

	for _, fi := range funcs {
		if !fi.fact.Empty() {
			pf.Funcs[lint.FuncKey(fi.obj)] = fi.fact
		}
	}
	return pf
}

// propagate folds a callee's facts into the caller at one call site,
// honoring suppressions per fact kind. Reports whether anything changed.
func propagate(dst *lint.FuncFact, callee lint.FuncFact, cs callSite, suppressed func(string, token.Pos) bool) bool {
	changed := false
	via := func(calleeVia string) string {
		name := lint.FuncDisplay(cs.fn)
		if calleeVia == "" {
			return name
		}
		return name + " → " + calleeVia
	}
	if callee.ReadsWallClock && !dst.ReadsWallClock && !suppressed(factWallclock, cs.pos) {
		dst.ReadsWallClock = true
		dst.WallClockVia = via(callee.WallClockVia)
		changed = true
	}
	if callee.UsesUnseededRand && !dst.UsesUnseededRand && !suppressed(factSeedrand, cs.pos) {
		dst.UsesUnseededRand = true
		dst.RandVia = via(callee.RandVia)
		changed = true
	}
	if callee.MapOrderEscapes && !dst.MapOrderEscapes && !suppressed(factMapOrder, cs.pos) {
		dst.MapOrderEscapes = true
		dst.MapOrderVia = via(callee.MapOrderVia)
		changed = true
	}
	if callee.Allocates && !dst.Allocates && !suppressed(factHotpath, cs.pos) {
		dst.Allocates = true
		dst.AllocatesVia = via(callee.AllocatesVia)
		changed = true
	}
	return changed
}

// scanRoots walks one function declaration (including nested literals)
// recording direct fact roots and the statically-known call sites for
// the propagation pass.
func scanRoots(u *lint.Unit, fi *funcInfo, suppressed func(string, token.Pos) bool) {
	returned := returnedObjects(u, fi.decl)
	sorted := sortedObjects(u.TypesInfo, fi.decl.Body)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fn, ok := u.TypesInfo.Uses[n.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallclockFuncs[fn.Name()] && !fi.fact.ReadsWallClock && !suppressed(factWallclock, n.Pos()) {
					fi.fact.ReadsWallClock = true
					fi.fact.WallClockVia = "time." + fn.Name()
				}
			case "math/rand", "math/rand/v2":
				if !fi.fact.UsesUnseededRand && !suppressed(factSeedrand, n.Pos()) {
					fi.fact.UsesUnseededRand = true
					fi.fact.RandVia = fn.Pkg().Path() + "." + fn.Name()
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(u.TypesInfo, n); fn != nil {
				fi.calls = append(fi.calls, callSite{fn: fn, pos: n.Pos()})
			}
			if desc := allocDesc(u.TypesInfo, n); desc != "" &&
				!fi.fact.Allocates && !suppressed(factHotpath, n.Pos()) {
				fi.fact.Allocates = true
				fi.fact.AllocatesVia = desc
			}
		case *ast.CompositeLit:
			if !fi.fact.Allocates && compositeAllocates(u.TypesInfo, n) && !suppressed(factHotpath, n.Pos()) {
				fi.fact.Allocates = true
				fi.fact.AllocatesVia = "composite literal"
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit &&
					!fi.fact.Allocates && !suppressed(factHotpath, n.Pos()) {
					fi.fact.Allocates = true
					fi.fact.AllocatesVia = "&composite literal"
				}
			}
		case *ast.FuncLit:
			if !fi.fact.Allocates && !suppressed(factHotpath, n.Pos()) {
				fi.fact.Allocates = true
				fi.fact.AllocatesVia = "closure"
			}
			return true // closures are attributed to the enclosing decl
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(u.TypesInfo.TypeOf(n)) &&
				!fi.fact.Allocates && !suppressed(factHotpath, n.Pos()) {
				fi.fact.Allocates = true
				fi.fact.AllocatesVia = "string concatenation"
			}
		case *ast.GoStmt:
			if !fi.fact.Allocates && !suppressed(factHotpath, n.Pos()) {
				fi.fact.Allocates = true
				fi.fact.AllocatesVia = "go statement"
			}
		case *ast.RangeStmt:
			scanMapRangeEscape(u, fi, n, returned, sorted, suppressed)
		}
		return true
	})
}

// scanMapRangeEscape sets the MapOrderEscapes fact when a map range
// collects into a value the function returns without sorting it: the
// caller receives map-ordered data.
func scanMapRangeEscape(u *lint.Unit, fi *funcInfo, rs *ast.RangeStmt, returned, sorted map[types.Object]bool, suppressed func(string, token.Pos) bool) {
	if fi.fact.MapOrderEscapes || !rangesOverMap(u.TypesInfo, rs) {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		target := appendTarget(n)
		if target == nil {
			return true
		}
		obj := u.TypesInfo.ObjectOf(target)
		if obj == nil || !returned[obj] || sorted[obj] || suppressed(factMapOrder, n.Pos()) {
			return true
		}
		fi.fact.MapOrderEscapes = true
		fi.fact.MapOrderVia = "map range collected into returned " + target.Name
		return false
	})
}

// returnedObjects collects the objects the function returns: named
// results plus identifiers appearing in return statements.
func returnedObjects(u *lint.Unit, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := u.TypesInfo.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // a literal's returns are not the decl's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := u.TypesInfo.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// calleeFunc resolves a call's static callee through TypesInfo,
// unwrapping the selector or identifier form. Returns nil for dynamic
// calls, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// allocDesc classifies a call expression that always (or usually)
// allocates: make/new/append builtins, the fmt family, and a deny-list
// of standard-library helpers that build new strings or slices. It
// returns a short description, or "" when the call is not a known
// allocator.
func allocDesc(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make", "new", "append":
			if obj := info.Uses[id]; obj == nil || obj.Parent() == types.Universe {
				return id.Name
			}
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if allocStdCall(fn) {
		return lint.FuncDisplay(fn)
	}
	return ""
}

// allocStdCall reports whether a standard-library function is a known
// allocator worth tracking as an Allocates root: formatting, string
// building, sorting scaffolds, and pool refills.
func allocStdCall(fn *types.Func) bool {
	pkg := fn.Pkg().Path()
	name := fn.Name()
	switch pkg {
	case "fmt":
		return true
	case "errors":
		return name == "New"
	case "strings":
		switch name {
		case "Join", "Repeat", "Split", "SplitN", "Fields", "Replace",
			"ReplaceAll", "ToUpper", "ToLower", "Map", "TrimFunc", "Clone":
			return true
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote", "AppendQuote":
			return true
		}
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return true
		}
	case "sync":
		// (*Pool).Get may run the New hook — an allocation on pool miss.
		return name == "Get"
	}
	return false
}

// compositeAllocates reports whether a bare composite literal allocates
// a backing store: slice and map literals do, plain struct values do
// not (escape via & is handled separately).
func compositeAllocates(info *types.Info, lit *ast.CompositeLit) bool {
	t := info.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// ReproPackage reports whether a package path belongs to this module —
// the only packages facts are computed and loaded for.
func ReproPackage(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}
