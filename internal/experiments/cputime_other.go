//go:build !linux

package experiments

import "time"

var clockStart = time.Now()

// threadTime falls back to the monotonic wall clock where the thread
// CPU clock is not reachable through package syscall.
func threadTime() time.Duration { return time.Since(clockStart) }
