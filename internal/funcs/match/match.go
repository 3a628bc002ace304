// Package match implements multi-pattern string matching with an
// Aho–Corasick automaton. It is the functional core shared by the
// Snort-like intrusion detection benchmark and the REM (regular
// expression matching) benchmark: the same compiled rule set the paper
// programs into Hyperscan on the host and into the RXP engine on the
// BlueField-2.
//
// The implementation is a complete goto/fail automaton with byte-level
// transitions, built once per rule set and safe for concurrent readers.
package match

import "fmt"

// Match reports one pattern occurrence.
type Match struct {
	// Pattern is the index into the compiled pattern list.
	Pattern int
	// End is the byte offset one past the occurrence's last byte.
	End int
}

type node struct {
	next map[byte]int32 // goto function
	fail int32
	// out lists pattern indices ending at this node (including via
	// suffix links, pre-flattened at build time).
	out []int32
}

// Matcher is a compiled pattern set.
type Matcher struct {
	nodes    []node
	patterns []string
}

// NewMatcher compiles the patterns. Empty pattern lists and empty
// patterns are rejected: an empty pattern would match everywhere and
// always indicates caller confusion.
func NewMatcher(patterns []string) (*Matcher, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("match: empty pattern list")
	}
	m := &Matcher{
		nodes:    []node{{next: make(map[byte]int32)}},
		patterns: make([]string, len(patterns)),
	}
	copy(m.patterns, patterns)
	for i, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("match: pattern %d is empty", i)
		}
		m.insert(p, int32(i))
	}
	m.buildFailLinks()
	return m, nil
}

func (m *Matcher) insert(p string, id int32) {
	cur := int32(0)
	for i := 0; i < len(p); i++ {
		c := p[i]
		nxt, ok := m.nodes[cur].next[c]
		if !ok {
			nxt = int32(len(m.nodes))
			m.nodes = append(m.nodes, node{next: make(map[byte]int32)})
			m.nodes[cur].next[c] = nxt
		}
		cur = nxt
	}
	m.nodes[cur].out = append(m.nodes[cur].out, id)
}

// buildFailLinks runs the standard BFS, flattening output links so the
// scan loop never chases suffix chains.
func (m *Matcher) buildFailLinks() {
	// Walk goto edges in byte order, not map order: the automaton the
	// BFS produces is the same either way, but a deterministic build
	// order keeps node visit order — and therefore any instrumentation
	// or debug output — reproducible run to run.
	queue := make([]int32, 0, len(m.nodes))
	for c := 0; c < 256; c++ {
		if v, ok := m.nodes[0].next[byte(c)]; ok {
			m.nodes[v].fail = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for ci := 0; ci < 256; ci++ {
			c := byte(ci)
			v, ok := m.nodes[u].next[c]
			if !ok {
				continue
			}
			queue = append(queue, v)
			f := m.nodes[u].fail
			for f != 0 {
				if nxt, ok := m.nodes[f].next[c]; ok {
					f = nxt
					goto linked
				}
				f = m.nodes[f].fail
			}
			if nxt, ok := m.nodes[0].next[c]; ok && nxt != v {
				f = nxt
			} else {
				f = 0
			}
		linked:
			m.nodes[v].fail = f
			m.nodes[v].out = append(m.nodes[v].out, m.nodes[f].out...)
		}
	}
}

// step advances the automaton from state s on byte c.
func (m *Matcher) step(s int32, c byte) int32 {
	for {
		if nxt, ok := m.nodes[s].next[c]; ok {
			return nxt
		}
		if s == 0 {
			return 0
		}
		s = m.nodes[s].fail
	}
}

// Scan returns every pattern occurrence in data, in end-offset order.
func (m *Matcher) Scan(data []byte) []Match {
	var out []Match
	s := int32(0)
	for i := 0; i < len(data); i++ {
		s = m.step(s, data[i])
		for _, id := range m.nodes[s].out {
			out = append(out, Match{Pattern: int(id), End: i + 1})
		}
	}
	return out
}

// Pattern returns the i-th compiled pattern.
func (m *Matcher) Pattern(i int) string { return m.patterns[i] }

// States returns the automaton's state count, a proxy for the rule set's
// table pressure (what makes file_image expensive to scan on a CPU).
func (m *Matcher) States() int { return len(m.nodes) }
