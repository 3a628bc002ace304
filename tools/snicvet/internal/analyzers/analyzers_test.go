package analyzers_test

import (
	"path/filepath"
	"testing"

	"repro/tools/snicvet/internal/analyzers"
	"repro/tools/snicvet/internal/atest"
)

func fixture(name string) string {
	return filepath.Join("..", "..", "testdata", "src", name)
}

func TestWallclock(t *testing.T) {
	atest.Run(t, fixture("wallclock"), analyzers.Wallclock)
}

func TestSeedrand(t *testing.T) {
	atest.Run(t, fixture("seedrand"), analyzers.Seedrand)
}

// TestMaporder runs detflow over its collect-order fixture.
func TestMaporder(t *testing.T) {
	atest.Run(t, fixture("maporder"), analyzers.Detflow)
}

func TestDetflow(t *testing.T) {
	atest.Run(t, fixture("detflow"), analyzers.Detflow)
}

func TestHotpath(t *testing.T) {
	atest.Run(t, fixture("hotpath"), analyzers.Hotpath)
}

func TestUnitcheck(t *testing.T) {
	atest.Run(t, fixture("unitcheck"), analyzers.Unitcheck)
}

func TestFloateq(t *testing.T) {
	atest.Run(t, fixture("floateq"), analyzers.Floateq)
}

// TestSuppressions runs two analyzers together over the suppression
// fixture: directives silence exactly the named analyzers on exactly
// their line, through the same lint.Run path the driver uses.
func TestSuppressions(t *testing.T) {
	atest.Run(t, fixture("suppress"), analyzers.Wallclock, analyzers.Floateq)
}

// TestFactPropagation runs the three-package fixture (model → helper →
// leaf) through the full pipeline: facts computed bottom-up, encoded
// to the vetx wire format, decoded back, and consumed by the analyzers
// two call levels above the roots.
func TestFactPropagation(t *testing.T) {
	atest.RunProject(t, fixture("factprop"),
		analyzers.Wallclock, analyzers.Seedrand, analyzers.Detflow, analyzers.Hotpath)
}

// TestFactPropagationSuppressed proves facts drive the transitive
// reports: the same call chain as factprop, but helper suppresses its
// leaf call with a reason, which clears the fact — model is clean with
// byte-identical code.
func TestFactPropagationSuppressed(t *testing.T) {
	atest.RunProject(t, fixture("factprop_clean"), analyzers.Wallclock)
}

// TestFactDBProvenance inspects the decoded fact database directly:
// provenance chains must survive the wire round-trip, and the leaf's
// fact bytes must differ from the helper's (different facts → different
// vetx content → different build-cache key for importers).
func TestFactDBProvenance(t *testing.T) {
	_, db := atest.LoadProject(t, fixture("factprop"))
	leaf := db.Package("snicvet.test/factprop/leaf")
	helper := db.Package("snicvet.test/factprop/helper")
	if leaf == nil || helper == nil {
		t.Fatal("fact DB is missing fixture packages")
	}
	if f := leaf.Funcs["Stamp"]; !f.ReadsWallClock || f.WallClockVia != "time.Now" {
		t.Errorf("leaf.Stamp fact = %+v, want ReadsWallClock via time.Now", f)
	}
	if f := helper.Funcs["Tag"]; !f.ReadsWallClock || f.WallClockVia != "leaf.Stamp → time.Now" {
		t.Errorf("helper.Tag fact = %+v, want chained provenance", f)
	}
	if f := helper.Funcs["Push"]; !f.Allocates || f.AllocatesVia != "leaf.Grow → append" {
		t.Errorf("helper.Push fact = %+v, want Allocates via leaf.Grow → append", f)
	}
	if f := helper.Funcs["Names"]; !f.MapOrderEscapes {
		t.Errorf("helper.Names fact = %+v, want MapOrderEscapes", f)
	}
	if f := helper.Funcs["Roll"]; !f.UsesUnseededRand {
		t.Errorf("helper.Roll fact = %+v, want UsesUnseededRand", f)
	}
	leafBytes, err := leaf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	helperBytes, err := helper.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(leafBytes) == string(helperBytes) {
		t.Error("different fact sets encoded to identical vetx bytes")
	}
}

func TestRegistry(t *testing.T) {
	all := analyzers.All()
	if len(all) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
