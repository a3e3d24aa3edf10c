//go:build amd64

package span

// rdtsc reads the CPU timestamp counter (clock.go calibrates ticks to
// nanoseconds and falls back to the runtime clock when the counter is
// unusable). Implemented in clock_amd64.s.
func rdtsc() int64

const tscArch = true
