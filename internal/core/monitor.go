package core

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// Meter estimates a link's transmit rate from byte observations with an
// exponentially weighted moving average — the MIFO daemon's "constantly
// collects available link capacity from the data plane" (Fig. 10) without
// any per-packet cost beyond a counter.
type Meter struct {
	mu sync.Mutex
	// halfLife is the EWMA half-life in seconds.
	halfLife float64
	rate     float64 // bits per second
	// pending accumulates bits observed at the same instant as lastAt;
	// they are folded into the EWMA at the next time-advancing
	// observation. (Adding raw bits straight into rate would mix units:
	// bits into a bits-per-second average.)
	pending float64
	lastAt  float64
	started bool
	// gauge, when bound, mirrors the current estimate for exposition.
	gauge *obs.Gauge
}

// NewMeter returns a meter with the given half-life (seconds; default 0.5).
func NewMeter(halfLife float64) *Meter {
	if halfLife <= 0 {
		halfLife = 0.5
	}
	return &Meter{halfLife: halfLife}
}

// Bind mirrors every rate update into the given gauge (bits per second),
// typically one registered as a labeled series of a metrics registry.
// Pass nil to unbind.
func (m *Meter) Bind(g *obs.Gauge) {
	m.mu.Lock()
	m.gauge = g
	if g != nil {
		g.Set(m.rate)
	}
	m.mu.Unlock()
}

// Observe records that `bits` were sent during the interval ending at
// time `now` (seconds, any monotonic origin). Calls must have
// non-decreasing now.
func (m *Meter) Observe(bits float64, now float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		m.started = true
		m.lastAt = now
		return
	}
	dt := now - m.lastAt
	if dt <= 0 {
		// Same instant: no interval to divide by yet. Hold the bits and
		// fold them in when time advances.
		m.pending += bits
		return
	}
	inst := (m.pending + bits) / dt
	m.pending = 0
	w := math.Exp2(-dt / m.halfLife)
	m.rate = float64(w*m.rate) + float64((1-w)*inst)
	m.lastAt = now
	if m.gauge != nil {
		m.gauge.Set(m.rate)
	}
}

// Rate returns the current estimate in bits per second, decayed to `now`.
func (m *Meter) Rate(now float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		return 0
	}
	dt := now - m.lastAt
	if dt <= 0 {
		return m.rate
	}
	// No observations since lastAt: the estimate decays toward zero.
	return m.rate * math.Exp2(-dt/m.halfLife)
}
