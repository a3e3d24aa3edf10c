//go:build !amd64

package span

// rdtsc is unavailable off amd64; clock.go keeps tscScale at 0 and the
// tracer times spans with the runtime monotonic clock instead.
func rdtsc() int64 { return 0 }

const tscArch = false
