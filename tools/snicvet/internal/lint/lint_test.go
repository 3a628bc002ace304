package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestParseSuppressionsMalformed(t *testing.T) {
	fset, f := parse(t, `package p

//snicvet:ignore wallclock
var a int

//snicvet:ignore
var b int

//snicvet:ignore floateq has a reason
var c int
`)
	s := ParseSuppressions(fset, []*ast.File{f})
	if len(s.malformed) != 2 {
		t.Fatalf("got %d malformed directives, want 2 (missing reasons)", len(s.malformed))
	}
	for _, m := range s.malformed {
		if !strings.Contains(m.Message, "malformed") {
			t.Errorf("malformed finding message %q should say so", m.Message)
		}
	}
	// The malformed directives must not suppress anything.
	if s.Suppressed("wallclock", token.Position{Filename: "fix.go", Line: 4}) {
		t.Error("reason-less directive must not suppress")
	}
	if !s.Suppressed("floateq", token.Position{Filename: "fix.go", Line: 10}) {
		t.Error("well-formed directive on the line above must suppress")
	}
}

func TestSuppressedScope(t *testing.T) {
	fset, f := parse(t, `package p

var a = 1 //snicvet:ignore floateq,unitcheck trailing directive with a reason

//snicvet:ignore all every analyzer silenced here
var b = 2
`)
	s := ParseSuppressions(fset, []*ast.File{f})
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }

	if !s.Suppressed("floateq", at(3)) || !s.Suppressed("unitcheck", at(3)) {
		t.Error("listed analyzers should be suppressed on the directive line")
	}
	if s.Suppressed("wallclock", at(3)) {
		t.Error("unlisted analyzer should not be suppressed")
	}
	if !s.Suppressed("floateq", at(4)) {
		t.Error("directive should also cover the next line")
	}
	if !s.Suppressed("anything", at(6)) {
		t.Error(`"all" should suppress every analyzer on the following line`)
	}
	if s.Suppressed("floateq", at(7)) {
		t.Error("directive must not leak two lines down")
	}
	if s.Suppressed("floateq", token.Position{Filename: "other.go", Line: 3}) {
		t.Error("directives are scoped to their file")
	}
}

// TestSuppressedStatementExtent: a directive attaches to the whole
// statement below it, so findings inside a multi-line composite
// literal or wrapped call arguments are covered — but a directive above
// a statement with a body (for/if) must not blanket the body.
func TestSuppressedStatementExtent(t *testing.T) {
	fset, f := parse(t, `package p

func f() []int {
	//snicvet:ignore hotpath multi-line literal, covered in full
	xs := []int{
		1,
		2,
	}
	g( //snicvet:ignore hotpath wrapped args, covered in full
		1,
		2,
	)
	//snicvet:ignore detflow directive above a loop
	for range xs {
		g(1, 2)
	}
	return xs
}

func g(a, b int) {}
`)
	s := ParseSuppressions(fset, []*ast.File{f})
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }

	for line := 5; line <= 8; line++ {
		if !s.Suppressed("hotpath", at(line)) {
			t.Errorf("line %d of the composite literal statement should be suppressed", line)
		}
	}
	for line := 9; line <= 12; line++ {
		if !s.Suppressed("hotpath", at(line)) {
			t.Errorf("line %d of the wrapped call should be suppressed", line)
		}
	}
	if s.Suppressed("hotpath", at(14)) {
		t.Error("suppression must end with its statement")
	}
	if !s.Suppressed("detflow", at(14)) {
		t.Error("directive above the for statement covers its first line")
	}
	if s.Suppressed("detflow", at(15)) {
		t.Error("directive above a block statement must not blanket its body")
	}
}

// TestFactsRoundTrip: facts survive the vetx wire format, encoding is
// deterministic, and changing a fact changes the bytes (which is what
// lets the go build cache invalidate importers).
func TestFactsRoundTrip(t *testing.T) {
	p := NewPackageFacts("repro/internal/leaf")
	p.Funcs["Stamp"] = FuncFact{ReadsWallClock: true, WallClockVia: "time.Now"}
	p.Funcs["(*T).Grow"] = FuncFact{Allocates: true, AllocatesVia: "append"}
	p.Funcs["Clean"] = FuncFact{} // empty: must be dropped from the wire form

	enc1, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc1) != string(enc2) {
		t.Fatal("encoding is not deterministic")
	}

	got, err := DecodeFacts(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Path != p.Path {
		t.Fatalf("decode lost the package path: %+v", got)
	}
	if f := got.Funcs["Stamp"]; !f.ReadsWallClock || f.WallClockVia != "time.Now" {
		t.Fatalf("Stamp fact did not round-trip: %+v", f)
	}
	if f := got.Funcs["(*T).Grow"]; !f.Allocates {
		t.Fatalf("method fact did not round-trip: %+v", f)
	}
	if _, ok := got.Funcs["Clean"]; ok {
		t.Fatal("empty fact entries must not reach the wire format")
	}

	// Changing a leaf fact must change the encoded bytes.
	p2 := NewPackageFacts("repro/internal/leaf")
	p2.Funcs["Stamp"] = FuncFact{ReadsWallClock: true, WallClockVia: "time.Now"}
	enc3, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc3) == string(enc1) {
		t.Fatal("different fact sets encoded to identical bytes")
	}

	// Legacy empty vetx files and foreign formats are tolerated.
	if pf, err := DecodeFacts(nil); err != nil || pf != nil {
		t.Fatalf("empty vetx: got %+v, %v", pf, err)
	}
	if pf, err := DecodeFacts([]byte("not a facts file")); err != nil || pf != nil {
		t.Fatalf("foreign vetx: got %+v, %v", pf, err)
	}
}

// TestRunReportsMalformedAndSorts drives Run end to end with a
// synthetic analyzer: malformed directives surface as findings, and
// output is ordered by position regardless of report order.
func TestRunReportsMalformedAndSorts(t *testing.T) {
	fset, f := parse(t, `package p

//snicvet:ignore wallclock
var a int

var b int
`)
	reversed := &Analyzer{
		Name: "rev",
		Doc:  "reports in reverse order",
		Run: func(p *Pass) error {
			decls := p.Files[0].Decls
			for i := len(decls) - 1; i >= 0; i-- {
				p.Reportf(decls[i].Pos(), "decl %d", i)
			}
			return nil
		},
	}
	findings, err := Run(&Unit{Fset: fset, Files: []*ast.File{f}}, []*Analyzer{reversed})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3 (2 decls + 1 malformed directive)", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		if findings[i].Pos.Line < findings[i-1].Pos.Line {
			t.Fatalf("findings not sorted by line: %v", findings)
		}
	}
}

// TestRunFileExempt checks the per-analyzer file filter the driver
// uses for _test.go exemptions.
func TestRunFileExempt(t *testing.T) {
	fset, f := parse(t, "package p\nvar a int\n")
	hit := 0
	a := &Analyzer{
		Name: "counter",
		Doc:  "counts runs",
		Run:  func(p *Pass) error { hit++; return nil },
	}
	u := &Unit{
		Fset:       fset,
		Files:      []*ast.File{f},
		FileExempt: func(analyzer, filename string) bool { return analyzer == "counter" },
	}
	if _, err := Run(u, []*Analyzer{a}); err != nil {
		t.Fatal(err)
	}
	if hit != 0 {
		t.Fatal("analyzer ran despite all its files being exempt")
	}
	u.FileExempt = nil
	if _, err := Run(u, []*Analyzer{a}); err != nil {
		t.Fatal(err)
	}
	if hit != 1 {
		t.Fatal("analyzer should run when no exemption applies")
	}
}
