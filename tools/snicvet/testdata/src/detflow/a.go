// Fixture for the detflow analyzer: nondeterminism taint from map
// iteration, the wall clock, and math/rand must not reach emission
// sinks, telemetry, or exported result fields. The collect-order cases
// are in the maporder fixture and the map-ordered call cases in
// factprop.
package detflow

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// RunResult mimics the exported result structs the exporters serialize.
type RunResult struct {
	Fingerprint string
	Elapsed     string
}

func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "fmt.Printf inside map iteration emits"
	}
}

func badWriter(m map[string]int, sb *strings.Builder) {
	for k := range m {
		sb.WriteString(k) // want "strings.Builder inside map iteration emits"
	}
}

func badTestHelper(t *testing.T, m map[string]bool) {
	for k := range m {
		t.Errorf("missing %s", k) // want "Errorf inside map iteration emits"
	}
}

func badTelemetry(rec *obs.Recorder, m map[string]float64) {
	for k, v := range m {
		rec.Count(k, v) // want "Count inside map iteration emits"
	}
}

func badSyncMap(sm *sync.Map, w io.Writer) {
	sm.Range(func(k, v any) bool {
		fmt.Fprintln(w, k) // want "fmt.Fprintln inside map iteration emits"
		return true
	})
}

func badKeysToWriter(m map[string]int, w io.Writer) {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside map iteration"
	}
	fmt.Fprintf(w, "%v\n", keys) // want "determinism taint .map iteration order. reaches fmt.Fprintf"
}

func goodSortedKeys(m map[string]int, w io.Writer) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%v\n", keys) // ok: sorted above
}

func badResultField(m map[string]int, r *RunResult) {
	s := ""
	for k := range m {
		s = s + k
	}
	r.Fingerprint = s // want "determinism taint .map iteration order. stored into exported field RunResult.Fingerprint"
}

func badClockField(r *RunResult) {
	r.Elapsed = fmt.Sprintf("%v", time.Now()) // want "determinism taint .wall-clock time. stored into exported field RunResult.Elapsed"
}

func badRandEmit(w io.Writer) {
	fmt.Fprintf(w, "%d\n", rand.Int()) // want "determinism taint .unseeded randomness. reaches fmt.Fprintf"
}

func goodSliceRange(xs []string, w io.Writer) {
	for _, x := range xs {
		fmt.Fprintln(w, x) // ok: slices iterate in order
	}
}

func goodCommutativeCount(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total // ok: no sink — returning a reduction is the caller's concern
}
