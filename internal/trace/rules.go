package trace

import (
	"fmt"

	"repro/internal/sim"
)

// Rule sets stand in for the registered Snort rule-set snapshot the paper
// programs into both Hyperscan (host) and the RXP engine (SNIC): three
// subsets — file_image, file_flash, file_executable — that differ in rule
// count, pattern length, and how often real traffic matches them. Those
// differences are what flips the REM winner between rule sets (Key
// Observation 4), so the generator reproduces them parametrically.

// RuleSetName identifies one of the paper's three subsets.
type RuleSetName string

const (
	// RuleSetImage (file_image): many short magic-byte patterns; matches
	// are common in mixed traffic. Scanning is table-pressure-heavy on a
	// CPU, which is why the host's software REM knees early (~40 Gb/s).
	RuleSetImage RuleSetName = "file_image"
	// RuleSetFlash (file_flash): mid-sized set.
	RuleSetFlash RuleSetName = "file_flash"
	// RuleSetExecutable (file_executable): longer, more selective
	// patterns; CPU scanning stays cheap (host reaches 78 Gb/s).
	RuleSetExecutable RuleSetName = "file_executable"
)

// RuleSet is a generated set of literal patterns plus the traffic
// characteristics the benchmarks need.
type RuleSet struct {
	Name     RuleSetName
	Patterns []string
	// MatchDensity is the probability that a generated packet payload
	// contains at least one pattern.
	MatchDensity float64
}

// ruleSetShape captures the per-set generation parameters.
type ruleSetShape struct {
	rules        int
	minLen       int
	maxLen       int
	matchDensity float64
}

var ruleShapes = map[RuleSetName]ruleSetShape{
	RuleSetImage:      {rules: 900, minLen: 4, maxLen: 8, matchDensity: 0.12},
	RuleSetFlash:      {rules: 350, minLen: 6, maxLen: 12, matchDensity: 0.05},
	RuleSetExecutable: {rules: 450, minLen: 8, maxLen: 16, matchDensity: 0.03},
}

// GenRuleSet deterministically synthesizes the named rule set.
func GenRuleSet(name RuleSetName, seed uint64) *RuleSet {
	shape, ok := ruleShapes[name]
	if !ok {
		panic(fmt.Sprintf("trace: unknown rule set %q", name))
	}
	r := sim.NewRNG(seed ^ hashName(string(name)))
	patterns := make([]string, shape.rules)
	seen := make(map[string]bool, shape.rules)
	for i := 0; i < shape.rules; {
		n := shape.minLen + r.Intn(shape.maxLen-shape.minLen+1)
		b := make([]byte, n)
		for j := range b {
			// Printable-ish bytes, skewed like protocol magic numbers.
			b[j] = byte(0x20 + r.Intn(0x5f))
		}
		p := string(b)
		if seen[p] {
			continue
		}
		seen[p] = true
		patterns[i] = p
		i++
	}
	return &RuleSet{Name: name, Patterns: patterns, MatchDensity: shape.matchDensity}
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// PayloadGen produces packet payloads that match a rule set at its
// configured density — the synthetic equivalent of replaying the
// CTU-Mixed capture against the Snort snapshot.
type PayloadGen struct {
	set *RuleSet
	rng *sim.RNG
}

// NewPayloadGen returns a generator for the set.
func NewPayloadGen(set *RuleSet, seed uint64) *PayloadGen {
	if set == nil {
		panic("trace: nil rule set")
	}
	return &PayloadGen{set: set, rng: sim.NewRNG(seed)}
}

// Next fills a payload of n bytes; with probability MatchDensity one of
// the set's patterns is embedded at a random offset. It reports whether a
// pattern was embedded, which tests use as matching ground truth.
func (p *PayloadGen) Next(n int) (payload []byte, hasMatch bool) {
	buf := make([]byte, n)
	for i := range buf {
		// Random filler drawn from a disjoint alphabet region (high bit
		// set) so filler can never accidentally contain a pattern.
		buf[i] = byte(0x80 + p.rng.Intn(0x7f))
	}
	if p.rng.Float64() < p.set.MatchDensity {
		pat := p.set.Patterns[p.rng.Intn(len(p.set.Patterns))]
		if len(pat) <= n {
			off := 0
			if n > len(pat) {
				off = p.rng.Intn(n - len(pat))
			}
			copy(buf[off:], pat)
			return buf, true
		}
	}
	return buf, false
}
