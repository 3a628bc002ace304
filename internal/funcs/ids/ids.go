// Package ids implements the Snort-like intrusion detection benchmark of
// paper §3.4 and the REM (regular-expression matching) function of §2.2
// as real, executable engines: compiled rule sets, per-packet inspection
// with verdicts, and alert accounting. The Snort engine is the
// full-featured detector (decode → inspect → log); the REM engine is the
// bare matching function the RXP accelerator implements in hardware.
package ids

import (
	"fmt"

	"repro/internal/funcs/match"
	"repro/internal/trace"
)

// Verdict is the per-packet decision.
type Verdict int

const (
	// Pass lets the packet through.
	Pass Verdict = iota
	// Alert flags the packet (detection mode).
	Alert
	// Drop discards it (prevention mode).
	Drop
)

func (v Verdict) String() string {
	switch v {
	case Alert:
		return "alert"
	case Drop:
		return "drop"
	default:
		return "pass"
	}
}

// Mode selects detection (alert and pass) or prevention (drop).
type Mode int

const (
	// Detection logs matches and forwards packets (Snort's IDS mode).
	Detection Mode = iota
	// Prevention drops matching packets (IPS mode; what the REM
	// deployment of §2.2 does: "drops the packets containing matching
	// patterns").
	Prevention
)

// AlertRecord is one logged detection.
type AlertRecord struct {
	PacketSeq uint64
	RuleIndex int
	Offset    int
}

// Engine is a compiled inspection engine over one rule set.
type Engine struct {
	Name    string
	RuleSet *trace.RuleSet
	Mode    Mode

	matcher *match.Matcher

	inspected uint64
	alerts    uint64
	dropped   uint64
	log       []AlertRecord
	// LogCap bounds the alert log (Snort rotates logs; unbounded growth
	// in a long simulation would be a leak, not a feature).
	LogCap int
}

// NewEngine compiles the rule set into an engine.
func NewEngine(name string, rs *trace.RuleSet, mode Mode) (*Engine, error) {
	if rs == nil || len(rs.Patterns) == 0 {
		return nil, fmt.Errorf("ids: empty rule set")
	}
	m, err := match.NewMatcher(rs.Patterns)
	if err != nil {
		return nil, fmt.Errorf("ids: compiling %s: %w", name, err)
	}
	return &Engine{Name: name, RuleSet: rs, Mode: mode, matcher: m, LogCap: 65536}, nil
}

// NewPaperEngine compiles one of the paper's three rule sets.
func NewPaperEngine(set trace.RuleSetName, mode Mode, seed uint64) (*Engine, error) {
	return NewEngine(string(set), trace.GenRuleSet(set, seed), mode)
}

// Inspect scans one packet payload and returns the verdict. Detection
// mode records an alert per matching packet (first match wins, like
// Snort's default fast-pattern behaviour).
func (e *Engine) Inspect(seq uint64, payload []byte) Verdict {
	e.inspected++
	matches := e.matcher.Scan(payload)
	if len(matches) == 0 {
		return Pass
	}
	first := matches[0]
	e.alerts++
	if len(e.log) < e.LogCap {
		e.log = append(e.log, AlertRecord{PacketSeq: seq, RuleIndex: first.Pattern, Offset: first.End})
	}
	if e.Mode == Prevention {
		e.dropped++
		return Drop
	}
	return Alert
}

// InspectFast is the REM accelerator's semantic: match/no-match only, no
// alert bookkeeping beyond counters.
func (e *Engine) InspectFast(payload []byte) bool {
	e.inspected++
	if e.matcher.Contains(payload) {
		e.alerts++
		return true
	}
	return false
}

// Alerts and Dropped expose counters.
func (e *Engine) Alerts() uint64  { return e.alerts }
func (e *Engine) Dropped() uint64 { return e.dropped }

// AlertRate returns alerts per inspected packet.
func (e *Engine) AlertRate() float64 {
	if e.inspected == 0 {
		return 0
	}
	return float64(e.alerts) / float64(e.inspected)
}

// Log returns the recorded alerts.
func (e *Engine) Log() []AlertRecord { return e.log }

// States exposes the compiled automaton size (rule-set table pressure).
func (e *Engine) States() int { return e.matcher.States() }

func (e *Engine) String() string {
	return fmt.Sprintf("ids(%s, %d rules, %d states, %s)",
		e.Name, len(e.RuleSet.Patterns), e.States(), modeName(e.Mode))
}

func modeName(m Mode) string {
	if m == Prevention {
		return "prevention"
	}
	return "detection"
}
