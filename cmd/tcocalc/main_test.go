package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tco"
)

func TestBuildModelDefaultsMatchPaper(t *testing.T) {
	m, err := buildModel(0.162, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := tco.PaperCostModel()
	if m != want {
		t.Fatalf("defaults should reproduce the paper's cost model:\n got %+v\nwant %+v", m, want)
	}
}

func TestBuildModelPlumbsFlags(t *testing.T) {
	m, err := buildModel(0.25, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.PowerUSDPerKWh != 0.25 || m.Years != 3 || m.BaselineServers != 8 {
		t.Fatalf("flags not plumbed through: %+v", m)
	}
}

func TestBuildModelRejectsNonPhysical(t *testing.T) {
	cases := []struct {
		price, years float64
		servers      int
	}{
		{0, 5, 10},
		{-0.1, 5, 10},
		{0.162, 0, 10},
		{0.162, -2, 10},
		{0.162, 5, 0},
		{0.162, 5, -1},
	}
	for _, c := range cases {
		if _, err := buildModel(c.price, c.years, c.servers); err == nil {
			t.Fatalf("buildModel(%v, %v, %d) should have been rejected", c.price, c.years, c.servers)
		}
	}
}

// The price, horizon and fleet flags apply to the paper's rows too, and
// every table names the horizon its numbers are for.
func TestRunAppliesFlagsToPaperRows(t *testing.T) {
	tcocalc := func(args ...string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("tcocalc %v exited %d: %s", args, code, errOut.String())
		}
		return out.String()
	}
	paper := tcocalc()
	if !strings.Contains(paper, "5-year TCO") {
		t.Fatalf("default table does not name the 5-year horizon:\n%s", paper)
	}
	priced := tcocalc("-price", "0.5", "-years", "3")
	if priced == paper {
		t.Fatal("-price 0.5 -years 3 printed the default table")
	}
	if !strings.Contains(priced, "3-year TCO") || strings.Contains(priced, "5-year") {
		t.Fatalf("3-year table names another horizon:\n%s", priced)
	}
	if app := tcocalc("-app", "mine", "-years", "3"); !strings.Contains(app, "3-year TCO") || strings.Contains(app, "5-year") {
		t.Fatalf("-app with -years 3 names another horizon:\n%s", app)
	}
}
