package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/snicvet/internal/lint"
)

// HotpathMarker is the annotation that puts a function under the
// allocation-free contract.
const HotpathMarker = "//snicvet:hotpath"

// Hotpath enforces an allocation-free contract on functions annotated
// //snicvet:hotpath: the per-event paths of the simulator (engine
// scheduling, station dispatch, observer callbacks, flow-table
// inserts). One allocation per event caps throughput at allocator
// speed and turns the events/s benchmarks into GC benchmarks; the
// contract is verified statically here and dynamically by the
// zero-alloc tests in internal/sim.
//
// Flagged inside an annotated function body:
//   - slice/map composite literals and &T{...} (heap escape)
//   - make / new / append builtins
//   - function literals (closure allocation)
//   - string concatenation and fmt/strings/strconv/sort helpers
//   - go statements
//   - interface conversions boxing non-pointer values
//   - calls to any function whose propagated Allocates fact is set
//
// Setup paths (constructors, Report, golden-file export) are free to
// allocate — the contract applies only where the annotation is.
var Hotpath = &lint.Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //snicvet:hotpath must not allocate: no " +
		"composite literals, closures, append, boxing, or calls to allocating helpers",
	Run: runHotpath,
}

func runHotpath(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotpathAnnotated(fd) {
				continue
			}
			checkHotpathBody(pass, fd)
		}
	}
	return nil
}

// hotpathAnnotated reports whether the declaration's doc comment
// carries the //snicvet:hotpath marker.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), HotpathMarker) {
			return true
		}
	}
	return false
}

func checkHotpathBody(pass *lint.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if compositeAllocates(info, n) {
				pass.Reportf(n.Pos(),
					"hot path allocates: %s literal needs a backing store; reuse a pooled buffer",
					typeKind(info, n))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					pass.Reportf(n.Pos(),
						"hot path allocates: &composite literal escapes to the heap; reuse a pooled object")
				}
			}
		case *ast.CallExpr:
			checkHotpathCall(pass, fd, n)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"hot path allocates: function literal captures its environment on the heap; use a method value on a pooled struct")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				pass.Reportf(n.Pos(),
					"hot path allocates: string concatenation builds a new string each event")
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"hot path allocates: go statement spawns a goroutine per event; the simulator is single-threaded by design")
		}
		checkBoxing(pass, n)
		return true
	})
}

// checkHotpathCall flags builtin allocators, known-allocating standard
// library helpers, and calls whose propagated Allocates fact is set.
func checkHotpathCall(pass *lint.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo
	if desc := allocDesc(info, call); desc != "" {
		pass.Reportf(call.Pos(), "hot path allocates: %s", desc)
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Same-package callees have no published facts yet; recompute would
	// be circular. Annotate them too and the direct checks cover them.
	if fn.Pkg().Path() == pass.Pkg.Path() {
		return
	}
	if f, ok := pass.Facts.Lookup(fn); ok && f.Allocates {
		pass.Reportf(call.Pos(),
			"hot path allocates: call to %s allocates (%s); inline an allocation-free variant or pool the result",
			lint.FuncDisplay(fn), f.AllocatesVia)
	}
}

// checkBoxing flags implicit interface conversions of non-pointer
// values: assigning a struct or scalar to an interface boxes it on the
// heap. Pointer and interface operands convert without allocating.
func checkBoxing(pass *lint.Pass, n ast.Node) {
	info := pass.TypesInfo
	check := func(e ast.Expr, target types.Type) {
		if e == nil || target == nil {
			return
		}
		if _, isIface := target.Underlying().(*types.Interface); !isIface {
			return
		}
		// Constants box to compiler-built static interface data (rodata),
		// not a runtime allocation — panic("message") is the common case.
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			return
		}
		src := info.TypeOf(e)
		if src == nil || boxingFree(src) {
			return
		}
		pass.Reportf(e.Pos(),
			"hot path allocates: %s boxed into %s; pass a pointer or a pre-boxed value",
			types.TypeString(src, nil), types.TypeString(target, nil))
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		sig, ok := info.TypeOf(n.Fun).(*types.Signature)
		if !ok { // conversion or builtin — no boxing through params
			return
		}
		params := sig.Params()
		for i, arg := range n.Args {
			var target types.Type
			if sig.Variadic() && i >= params.Len()-1 {
				if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok && !n.Ellipsis.IsValid() {
					target = slice.Elem()
				}
			} else if i < params.Len() {
				target = params.At(i).Type()
			}
			check(arg, target)
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i := range n.Rhs {
			check(n.Rhs[i], info.TypeOf(n.Lhs[i]))
		}
	}
}

// boxingFree reports whether converting a value of type t to an
// interface allocates nothing: pointers, interfaces, channels, maps,
// funcs and unsafe pointers share a word-sized representation.
func boxingFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map,
		*types.Signature, *types.Slice:
		// Slices are three words but their backing store is shared; the
		// header itself still allocates when boxed — but slice-to-any is
		// overwhelmingly a fmt call, caught separately. Treat headers of
		// reference kinds as out of scope to keep the signal clean.
		return true
	case *types.Basic:
		// Untyped constants box to a compiler-interned value.
		b := t.Underlying().(*types.Basic)
		return b.Info()&types.IsUntyped != 0
	}
	return false
}

// typeKind names the composite literal kind for diagnostics.
func typeKind(info *types.Info, lit *ast.CompositeLit) string {
	t := info.TypeOf(lit)
	if t == nil {
		return "composite"
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
