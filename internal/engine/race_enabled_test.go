//go:build race

package engine_test

// raceEnabled reports whether the race detector instrumented this build.
// Its shadow-memory bookkeeping changes allocation counts, so the
// allocation-budget tests skip themselves under -race.
const raceEnabled = true
