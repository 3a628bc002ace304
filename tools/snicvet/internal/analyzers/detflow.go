package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/snicvet/internal/lint"
)

// Detflow is the determinism taint analyzer: a per-function dataflow
// pass from nondeterminism sources to output-order-sensitive sinks.
//
// Sources: map range variables, sync.Map iteration callbacks, wall
// clock reads, math/rand draws — directly or through any call whose
// propagated fact (ReadsWallClock / UsesUnseededRand / MapOrderEscapes)
// says it launders one of them.
//
// Sinks: io.Writer writes, the fmt/log emit families, calls into the
// telemetry (internal/obs) and report layers and testing helpers,
// memoization-key construction in internal/core, and stores to exported
// fields of Measurement/Result types (the structs exporters serialize).
//
// Four rules fire:
//   - value taint: a tainted value reaches a sink argument or an
//     exported result field;
//   - order taint: a sink is called inside a map (or sync.Map)
//     iteration body, so the sink's own call order is nondeterministic
//     regardless of its arguments;
//   - collect order: an append inside map iteration to a slice declared
//     outside the loop;
//   - map-ordered call: a cross-package call whose propagated
//     MapOrderEscapes fact says it returns map-ordered data.
//
// The analysis is intra-procedural and flow-insensitive by design: an
// object passed to sort/slices anywhere in the function counts as
// sanitized, which is the canonical collect-keys-then-sort idiom. A
// sanitized slice is never reported as a collect, and a map-ordered
// call is not reported when its result lands in sanitized variables or
// goes straight into a sort call.
var Detflow = &lint.Analyzer{
	Name: "detflow",
	Doc: "track nondeterminism taint (map order, wall clock, unseeded rand) " +
		"from sources to output sinks: writers, telemetry, memo keys, result fields",
	Run: runDetflow,
}

// emitFuncs lists package-level functions that write directly to a
// stream; an emission with tainted data or inside map iteration makes
// output bytes nondeterministic.
var emitFuncs = map[string]map[string]bool{
	"fmt": {
		"Print": true, "Printf": true, "Println": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true,
	},
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
}

// sinkPkgs are packages whose functions and methods record or emit in
// call order.
var sinkPkgs = map[string]bool{
	"repro/internal/obs":    true,
	"repro/internal/report": true,
	"testing":               true,
}

// memoKeyFuncs are internal/core's memoization-key constructors: a
// tainted fragment in a memo key makes cache identity nondeterministic,
// which silently breaks replay dedup across runs.
var memoKeyFuncs = map[string]bool{
	"cacheKey": true, "runKey": true, "replayKey": true, "serverKey": true,
	"pipelineKey": true, "offloadKey": true, "traceFingerprint": true,
}

// memoKeyPkg is where the memo-key constructors live.
const memoKeyPkg = "repro/internal/core"

// ioWriterIface is a structural io.Writer, built by hand so the
// analyzer needs no dependency on the io package's export data.
var ioWriterIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", errType)),
		false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

// writerMethods are the io.Writer-family method names treated as sinks
// when the receiver implements io.Writer.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runDetflow(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			newTaintState(pass, fd).run()
		}
	}
	return nil
}

// region is one lexical range whose statement order depends on map
// iteration.
type region struct {
	from, to token.Pos
	desc     string
}

// taintState is the per-function analysis state.
type taintState struct {
	pass *lint.Pass
	fd   *ast.FuncDecl
	// tainted maps an object to a short description of its taint source.
	tainted map[types.Object]string
	// sanitized holds objects sorted anywhere in the function; they never
	// acquire taint, so values derived from them stay clean too.
	sanitized map[types.Object]bool
	regions   []region
	// mapRanges are the function's range statements over maps.
	mapRanges []*ast.RangeStmt
}

func newTaintState(pass *lint.Pass, fd *ast.FuncDecl) *taintState {
	return &taintState{
		pass: pass, fd: fd,
		tainted: make(map[types.Object]string),
		// Sanitized objects are collected before seeding: sanitization
		// is flow-insensitive, so a sorted slice must stay clean through
		// the whole fixpoint — clearing it afterwards would leave stale
		// taint on everything derived from it in between.
		sanitized: sortedObjects(pass.TypesInfo, fd.Body),
	}
}

func (ts *taintState) run() {
	ts.collectSources()
	ts.propagate()
	ts.checkSinks()
	ts.checkCollects()
	ts.checkMapOrderedCalls()
}

// collectSources seeds taint from map ranges and sync.Map iteration and
// records their bodies as order regions.
func (ts *taintState) collectSources() {
	info := ts.pass.TypesInfo
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if !rangesOverMap(info, n) {
				return true
			}
			ts.mapRanges = append(ts.mapRanges, n)
			ts.regions = append(ts.regions, region{from: n.Body.Pos(), to: n.Body.End(), desc: "map iteration order"})
			ts.taintIdent(n.Key, "map iteration order")
			ts.taintIdent(n.Value, "map iteration order")
		case *ast.CallExpr:
			// sync.Map.Range(func(k, v any) bool { ... })
			fn := calleeFunc(info, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Range" {
				return true
			}
			if len(n.Args) != 1 {
				return true
			}
			lit, ok := ast.Unparen(n.Args[0]).(*ast.FuncLit)
			if !ok {
				return true
			}
			ts.regions = append(ts.regions, region{from: lit.Body.Pos(), to: lit.Body.End(), desc: "sync.Map iteration order"})
			for _, field := range lit.Type.Params.List {
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						ts.tainted[obj] = "sync.Map iteration order"
					}
				}
			}
		}
		return true
	})
}

func (ts *taintState) taintIdent(e ast.Expr, desc string) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	ts.taintObj(ts.pass.TypesInfo.ObjectOf(id), desc)
}

// propagate runs assignments to a fixpoint: a variable assigned from a
// tainted expression becomes tainted.
func (ts *taintState) propagate() {
	info := ts.pass.TypesInfo
	for round := 0; round < 16; round++ {
		changed := false
		ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if desc := ts.exprTaint(rhs); desc != "" {
							changed = ts.taintLHS(n.Lhs[i], desc) || changed
						}
					}
				} else if len(n.Rhs) == 1 {
					if desc := ts.exprTaint(n.Rhs[0]); desc != "" {
						for _, lhs := range n.Lhs {
							changed = ts.taintLHS(lhs, desc) || changed
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					desc := ts.exprTaint(v)
					if desc == "" {
						continue
					}
					if len(n.Values) == len(n.Names) {
						changed = ts.taintObj(info.Defs[n.Names[i]], desc) || changed
					} else {
						for _, name := range n.Names {
							changed = ts.taintObj(info.Defs[name], desc) || changed
						}
					}
				}
			case *ast.RangeStmt:
				// Ranging over a tainted collection taints its elements
				// (the slice came out of a map walk, say).
				if desc := ts.exprTaint(n.X); desc != "" {
					if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
						changed = ts.taintObj(info.ObjectOf(id), desc) || changed
					}
					if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
						changed = ts.taintObj(info.ObjectOf(id), desc) || changed
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

func (ts *taintState) taintLHS(lhs ast.Expr, desc string) bool {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
		return ts.taintObj(ts.pass.TypesInfo.ObjectOf(id), desc)
	}
	return false
}

func (ts *taintState) taintObj(obj types.Object, desc string) bool {
	if obj == nil || ts.sanitized[obj] {
		return false
	}
	if _, ok := ts.tainted[obj]; ok {
		return false
	}
	ts.tainted[obj] = desc
	return true
}

// exprTaint returns the taint description carried by an expression, or
// "". Unknown calls launder taint (their results are considered clean);
// value-preserving standard helpers and operators pass it through.
func (ts *taintState) exprTaint(e ast.Expr) string {
	info := ts.pass.TypesInfo
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return ts.tainted[obj]
		}
	case *ast.ParenExpr:
		return ts.exprTaint(e.X)
	case *ast.StarExpr:
		return ts.exprTaint(e.X)
	case *ast.UnaryExpr:
		return ts.exprTaint(e.X)
	case *ast.BinaryExpr:
		if d := ts.exprTaint(e.X); d != "" {
			return d
		}
		return ts.exprTaint(e.Y)
	case *ast.IndexExpr:
		return ts.exprTaint(e.X)
	case *ast.SliceExpr:
		return ts.exprTaint(e.X)
	case *ast.SelectorExpr:
		return ts.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return ts.exprTaint(e.X)
	case *ast.KeyValueExpr:
		return ts.exprTaint(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if d := ts.exprTaint(el); d != "" {
				return d
			}
		}
	case *ast.CallExpr:
		return ts.callTaint(e)
	}
	return ""
}

// callTaint classifies a call's result taint: direct sources (wall
// clock, math/rand), fact-tainted callees, and transparent helpers
// that pass argument taint through.
func (ts *taintState) callTaint(call *ast.CallExpr) string {
	info := ts.pass.TypesInfo
	// Builtins and conversions pass taint through.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj == nil || obj.Parent() == types.Universe || isTypeName(obj) {
			return ts.argsTaint(call)
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		// Dynamic call or conversion through a selector type.
		if isConversion(info, call) {
			return ts.argsTaint(call)
		}
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallclockFuncs[fn.Name()] {
			return "wall-clock time"
		}
	case "math/rand", "math/rand/v2":
		return "unseeded randomness"
	}
	if f, ok := ts.pass.Facts.Lookup(fn); ok {
		switch {
		case f.MapOrderEscapes:
			return "map iteration order via " + lint.FuncDisplay(fn)
		case f.ReadsWallClock:
			return "wall-clock time via " + lint.FuncDisplay(fn)
		case f.UsesUnseededRand:
			return "unseeded randomness via " + lint.FuncDisplay(fn)
		}
	}
	if transparentCall(fn) {
		return ts.argsTaint(call)
	}
	return ""
}

func (ts *taintState) argsTaint(call *ast.CallExpr) string {
	for _, arg := range call.Args {
		if d := ts.exprTaint(arg); d != "" {
			return d
		}
	}
	return ""
}

// transparentCall lists standard helpers whose results are pure
// functions of their inputs, so taint flows through them.
func transparentCall(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Sprint", "Sprintf", "Sprintln", "Errorf":
			return true
		}
	case "strings", "strconv", "bytes":
		return true
	}
	return false
}

func isTypeName(obj types.Object) bool {
	_, ok := obj.(*types.TypeName)
	return ok
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// sortedObjects returns the objects passed (possibly nested in a
// conversion such as sort.Sort(byName(s))) to a sort or slices call
// anywhere in body: the collect-then-sort idiom makes their order
// canonical. Both detflow and the MapOrderEscapes fact read it.
func sortedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	sorted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						sorted[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return sorted
}

// isSortCall reports whether call is a function or method of the sort
// or slices package.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "sort" || p == "slices"
}

// rangesOverMap reports whether rs iterates a map.
func rangesOverMap(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// appendTarget returns the identifier n appends to, when n is a call of
// the append builtin whose first argument is a plain identifier.
func appendTarget(n ast.Node) *ast.Ident {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil
	}
	target, _ := call.Args[0].(*ast.Ident)
	return target
}

// inRegion returns the description of the order region containing pos,
// or "".
func (ts *taintState) inRegion(pos token.Pos) string {
	for _, r := range ts.regions {
		if pos >= r.from && pos <= r.to {
			return r.desc
		}
	}
	return ""
}

// checkSinks walks the function reporting taint that reaches a sink and
// sinks called inside iteration regions.
func (ts *taintState) checkSinks() {
	info := ts.pass.TypesInfo
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			kind := ts.sinkKind(n)
			if kind == "" {
				return true
			}
			if desc := ts.inRegion(n.Pos()); desc != "" && kind != "memo key" {
				ts.pass.Reportf(n.Pos(),
					"%s inside map iteration emits in nondeterministic order (%s); sort the keys before emitting",
					kind, desc)
				return true
			}
			for _, arg := range n.Args {
				if desc := ts.exprTaint(arg); desc != "" {
					ts.pass.Reportf(n.Pos(),
						"determinism taint (%s) reaches %s; sort or derive the value deterministically before the sink",
						desc, kind)
					return true
				}
			}
		case *ast.AssignStmt:
			// Stores into exported fields of Measurement/Result types:
			// these structs are what exporters serialize.
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !sel.Sel.IsExported() {
					continue
				}
				tname := resultTypeName(info, sel.X)
				if tname == "" {
					continue
				}
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				if desc := ts.exprTaint(rhs); desc != "" {
					ts.pass.Reportf(n.Pos(),
						"determinism taint (%s) stored into exported field %s.%s; results must be deterministic functions of the config",
						desc, tname, sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// checkCollects reports appends inside map iteration to a slice declared
// outside the loop that the function never sorts: the slice's order is
// the map's.
func (ts *taintState) checkCollects() {
	info := ts.pass.TypesInfo
	for _, rs := range ts.mapRanges {
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.RangeStmt); ok && rangesOverMap(info, inner) {
				return false // a nested map range checks its own body
			}
			target := appendTarget(n)
			if target == nil {
				return true
			}
			obj := info.ObjectOf(target)
			if obj == nil || ts.sanitized[obj] || (obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()) {
				return true
			}
			ts.pass.Reportf(n.Pos(),
				"append to %s inside map iteration has nondeterministic order; sort the keys (or %s) before use",
				target.Name, target.Name)
			return true
		})
	}
}

// checkMapOrderedCalls reports cross-package calls whose propagated
// MapOrderEscapes fact is set, unless the result is sorted: assigned to
// variables the function sorts, or passed straight into a sort call.
func (ts *taintState) checkMapOrderedCalls() {
	info := ts.pass.TypesInfo
	sortedCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && !ts.sanitized[info.ObjectOf(id)] {
					return true
				}
			}
			sortedCalls[call] = true
		case *ast.CallExpr:
			// sort.Strings(pkg.Keys(m)): the nested call is sorted in
			// place before any use.
			if isSortCall(info, n) {
				for _, arg := range n.Args {
					if c, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
						sortedCalls[c] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sortedCalls[call] {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == ts.pass.Pkg.Path() {
			return true
		}
		if f, ok := ts.pass.Facts.Lookup(fn); ok && f.MapOrderEscapes {
			ts.pass.Reportf(call.Pos(),
				"call to %s returns map-ordered data (%s); sort the result before it reaches output or state",
				lint.FuncDisplay(fn), f.MapOrderVia)
		}
		return true
	})
}

// sinkKind classifies a call as a sink, returning a short description
// or "".
func (ts *taintState) sinkKind(call *ast.CallExpr) string {
	info := ts.pass.TypesInfo
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkg := fn.Pkg().Path()
	if names, ok := emitFuncs[pkg]; ok && names[fn.Name()] {
		return pkg + "." + fn.Name()
	}
	if sinkPkgs[pkg] {
		return "call to " + lint.FuncDisplay(fn)
	}
	if pkg == memoKeyPkg && memoKeyFuncs[fn.Name()] {
		return "memo key"
	}
	if recv := recvType(fn); recv != nil && writerMethods[fn.Name()] && types.Implements(recv, ioWriterIface) {
		return "write to " + types.TypeString(recv, types.RelativeTo(ts.pass.Pkg))
	}
	return ""
}

// recvType returns the receiver type of a method, or nil for plain functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// resultTypeName returns the named type of e (through pointers) when
// its name marks an exported result struct: Measurement/Result suffixes.
func resultTypeName(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	name := named.Obj().Name()
	if strings.HasSuffix(name, "Result") || strings.HasSuffix(name, "Measurement") {
		return name
	}
	return ""
}
