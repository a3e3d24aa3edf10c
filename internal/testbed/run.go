package testbed

import (
	"fmt"
	"math"

	"repro/internal/dataplane"
	"repro/internal/metrics"
)

// flowRun is one in-flight transfer.
type flowRun struct {
	key    dataplane.FlowKey
	left   float64
	start  float64
	onAlt  bool
	active bool
}

// pairState tracks one (source, destination) sequence of flows.
type pairState struct {
	src       uint32
	nextIndex int
	cur       flowRun
	done      int
}

// Run executes the Section V experiment and returns Fig. 12's data.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	tb := Build(cfg)

	pairs := []*pairState{{src: 1}, {src: 2}}
	res := &Result{
		Aggregate: &metrics.TimeSeries{Name: "aggregate-gbps"},
		FCT:       &metrics.CDF{},
	}

	const maxTime = 3600.0
	var (
		t           float64
		nextControl float64
		bucketStart float64
		bucketBits  float64
		totalBits   float64
		lastFinish  float64
	)

	startNext := func(p *pairState) error {
		if p.nextIndex >= cfg.FlowsPerPair {
			return nil
		}
		key := dataplane.FlowKey{
			SrcAddr: p.src,
			DstAddr: dstPrefix,
			SrcPort: uint16(p.nextIndex),
			DstPort: 5001,
			Proto:   6,
		}
		probe, path := tb.Probe(key)
		if probe.Verdict != dataplane.VerdictDeliver {
			return fmt.Errorf("testbed: probe for %v failed: %v/%v", key, probe.Verdict, probe.Reason)
		}
		p.cur = flowRun{key: key, left: cfg.FlowSizeBits, start: t, onAlt: viaAlt(path), active: true}
		if p.cur.onAlt {
			res.AltFlowCount++
		}
		p.nextIndex++
		return nil
	}

	allDone := func() bool {
		for _, p := range pairs {
			if p.cur.active || p.nextIndex < cfg.FlowsPerPair {
				return false
			}
		}
		return true
	}

	for t < maxTime && !allDone() {
		// Keep each pair's sequence running back to back.
		for _, p := range pairs {
			if !p.cur.active {
				if err := startNext(p); err != nil {
					return nil, err
				}
			}
		}

		// Control epoch: update Rd's congestion signal, rebalance the
		// deflected set, and let the forwarding engine re-decide paths.
		if t >= nextControl {
			nextControl = t + controlInterval
			if err := tb.controlStep(pairs, res); err != nil {
				return nil, err
			}
		}

		// Fluid progress over one step.
		nDef, nAlt := 0, 0
		for _, p := range pairs {
			if p.cur.active {
				if p.cur.onAlt {
					nAlt++
				} else {
					nDef++
				}
			}
		}
		for _, p := range pairs {
			if !p.cur.active {
				continue
			}
			var rate float64
			if p.cur.onAlt {
				rate = altEfficiency * linkCapacityBps / float64(nAlt)
			} else {
				rate = defaultEfficiency * linkCapacityBps / float64(nDef)
			}
			sent := float64(rate * step)
			if sent >= p.cur.left {
				// Flow completes within this step.
				frac := p.cur.left / rate
				finish := t + frac
				res.FCT.Add(finish - p.cur.start)
				bucketBits += p.cur.left
				totalBits += p.cur.left
				p.cur.active = false
				p.done++
				delete(tb.deflected, p.cur.key)
				if finish > lastFinish {
					lastFinish = finish
				}
			} else {
				p.cur.left -= sent
				bucketBits += sent
				totalBits += sent
			}
		}

		t += step
		if t-bucketStart >= 1.0 {
			res.Aggregate.Add(bucketStart, bucketBits/(t-bucketStart)/1e9)
			bucketStart = t
			bucketBits = 0
		}
	}
	if bucketBits > 0 && t > bucketStart {
		res.Aggregate.Add(bucketStart, bucketBits/(t-bucketStart)/1e9)
	}
	if t >= maxTime {
		return nil, fmt.Errorf("testbed: experiment did not converge within %v s", maxTime)
	}
	res.TotalTime = lastFinish
	if lastFinish > 0 {
		res.MeanAggregateGbps = totalBits / lastFinish / 1e9
	}
	return res, nil
}

// controlStep refreshes the congestion signal on Rd's bottleneck port,
// moves at most one flow into the deflected set when the queue builds
// (the flow-hash tie-break picks which), and re-probes every active flow
// through the forwarding engine to observe its current path.
func (tb *Testbed) controlStep(pairs []*pairState, res *Result) error {
	nDef := 0
	for _, p := range pairs {
		if p.cur.active && !p.cur.onAlt {
			nDef++
		}
	}
	// Queue-ratio proxy: an empty port idles at 0; one TCP flow keeps the
	// queue just under the threshold; two or more saturate it.
	var ratio float64
	switch {
	case nDef == 0:
		ratio = 0
	case nDef == 1:
		ratio = defaultEfficiency
	default:
		ratio = 1.0
	}
	tb.rd.SetQueueRatio(tb.rdEgressPort, ratio)

	// Add a flow to the deflected set only at full saturation (two or more
	// flows competing); the engine's lower threshold then keeps it away
	// until the default port actually drains.
	if tb.cfg.MIFO && ratio >= 0.99 {
		// Move the default-path flow with the highest five-tuple hash.
		var pick *pairState
		var pickHash uint32
		for _, p := range pairs {
			if p.cur.active && !p.cur.onAlt && !tb.deflected[p.cur.key] {
				if h := p.cur.key.Hash(); pick == nil || h > pickHash {
					pick, pickHash = p, h
				}
			}
		}
		if pick != nil {
			tb.deflected[pick.cur.key] = true
		}
	}

	// Let the data plane decide each flow's path now.
	for _, p := range pairs {
		if !p.cur.active {
			continue
		}
		probe, path := tb.Probe(p.cur.key)
		if probe.Verdict != dataplane.VerdictDeliver {
			return fmt.Errorf("testbed: re-probe for %v failed: %v/%v", p.cur.key, probe.Verdict, probe.Reason)
		}
		alt := viaAlt(path)
		if alt != p.cur.onAlt {
			res.PathSwitches++
			if alt {
				res.AltFlowCount++
			}
			p.cur.onAlt = alt
		}
	}
	return nil
}

// ImprovementPercent returns the relative aggregate-throughput gain of a
// over b in percent, as the paper reports ("MIFO improves the aggregate
// throughput by 81% compared with BGP").
func ImprovementPercent(a, b *Result) float64 {
	if b.MeanAggregateGbps == 0 {
		return math.Inf(1)
	}
	return 100 * (a.MeanAggregateGbps - b.MeanAggregateGbps) / b.MeanAggregateGbps
}
