// Package sim provides a deterministic, virtual-time discrete-event
// simulation engine.
//
// All simulated components in this repository — CPU core pools, network
// links, PCIe lanes, hardware accelerators — are built on this package.
// The engine never reads the wall clock and never blocks on goroutines:
// every state change happens inside an event callback executed at a
// well-defined virtual timestamp, so simulations are reproducible
// bit-for-bit regardless of host scheduling or GC pauses.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation. It is deliberately a distinct type from time.Time so the
// two can never be confused.
type Time int64

// Duration is a span of virtual time in nanoseconds, like time.Duration,
// which its String method uses for formatting.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds since the
// simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the timestamp as a time.Duration for readability.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration as a time.Duration for readability.
func (d Duration) String() string { return time.Duration(d).String() }

// DurationOf returns the time needed to move size bytes at rate bits/s.
// It is the workhorse conversion for link and accelerator serialization
// delays. A non-positive rate panics: a zero-rate resource is a
// configuration error, not a runtime condition.
func DurationOf(sizeBytes int, bitsPerSec float64) Duration {
	if bitsPerSec <= 0 {
		panic(rateError{what: "rate", value: bitsPerSec, unit: "bits/s"})
	}
	sec := float64(sizeBytes) * 8 / bitsPerSec
	return Duration(sec * float64(Second))
}

// Cycles returns the duration of n CPU cycles at freq Hz.
func Cycles(n float64, freqHz float64) Duration {
	if freqHz <= 0 {
		panic(rateError{what: "frequency", value: freqHz, unit: "Hz"})
	}
	return Duration(n / freqHz * float64(Second))
}

// rateError is the panic value of DurationOf and Cycles. It formats its
// message only when the panic is printed, so the conversions that every
// per-event path calls neither format nor allocate until they fail.
type rateError struct {
	what  string
	value float64
	unit  string
}

func (e rateError) Error() string {
	return fmt.Sprintf("sim: non-positive %s %v %s", e.what, e.value, e.unit)
}
