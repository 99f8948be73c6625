//go:build linux

package experiments

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPUClock reads the calling thread's CPU time. It reports false
// where the kernel refuses the clock, so that a caller falls back to one
// clock for the whole run instead of mixing two.
func threadCPUClock() (time.Duration, bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}
