//go:build !linux

package experiments

import "time"

// threadCPUClock has no per-thread CPU clock to read off Linux.
func threadCPUClock() (time.Duration, bool) { return 0, false }
