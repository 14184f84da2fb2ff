package gpu

import "time"

// Wallclock reads the host clock from an engine package.
func Wallclock() time.Duration {
	start := time.Now()    // lintwant:wallclock
	d := time.Since(start) // lintwant:wallclock
	_ = time.Until(start)  // lintwant:wallclock
	_ = time.Unix(0, 0)    // constructing a time.Time is fine
	_ = time.Second        // durations are fine
	return d
}

// boot reads the wall clock outside any function, in a package-level
// initializer.
var boot = time.Now() // lintwant:wallclock
