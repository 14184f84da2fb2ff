package util

import (
	"math/rand"
	"time"
)

// Stamp wraps the wall clock. The ignore below silences the direct read
// at this definition only — wallclock still flags every call site in
// simulated code, so the helper cannot launder time.Now.
//
//caislint:ignore wallclock audited for CLI status output, never simulation
func Stamp() int64 { return time.Now().UnixNano() }

// StampTwice reaches the wall clock through Stamp. util is not a
// sanctioned package, so both call sites here are wallclock violations
// themselves, and StampTwice propagates the taint one hop further.
func StampTwice() int64 { return Stamp() + Stamp() } // lintwant:wallclock lintwant:wallclock

// Jitter wraps the unseeded global source: rand fires at the direct use
// in the definition and at every caller.
func Jitter() float64 { return rand.Float64() } // lintwant:rand

// Clock carries the wall-clock helper as a method; taint follows method
// calls like function calls, so Now's own call to Stamp is flagged and
// so is every call of Now.
type Clock struct{}

// Now wraps Stamp.
func (Clock) Now() int64 { return Stamp() } // lintwant:wallclock
