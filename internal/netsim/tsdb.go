package netsim

import (
	"fmt"
	"strconv"

	"repro/internal/obs/tsdb"
)

// TSDB instrumentation: when Config.TSDB is set, every control epoch
// samples per-link utilization plus the cumulative deflection and
// offloaded-bits counters the episode analyzer joins against, and a few
// run-wide gauges. Link series are registered lazily — only links that
// climb past the watermark (or actually deflect a flow) get a series —
// so a 1000-AS topology with ~9000 directed links stays cheap: the
// sample path touches an O(numLinks) float scan and a handful of ring
// writes.
//
// Series are labeled (run, link): one simulator process runs many sims
// (a fig8 sweep is ten), and the run label keeps their time axes and
// cumulative counters from mixing. Timestamps are virtual simulation
// time in nanoseconds.

// tsdbWatermarkShare, times CongestionThreshold, is the utilization above
// which a link's series are materialized. Links that deflect a flow are
// materialized regardless.
const tsdbWatermarkShare = 0.8

// initTSDB resolves series handles and installs the episode spec.
// Called from simulate after buildLinks; everything is nil when no store is
// configured, and every hook checks that.
func (s *Sim) initTSDB() {
	db := s.cfg.TSDB
	if db == nil {
		return
	}
	s.tsRun = strconv.FormatInt(db.NextRun(), 10)
	s.tsUtilVec = db.SeriesVec("netsim_link_util", "directed inter-AS link utilization (fraction of capacity; 2 = failed)", "run", "link")
	s.tsDeflVec = db.SeriesVec("netsim_link_deflections", "cumulative flows deflected off this link (per run)", "run", "link")
	s.tsOffVec = db.SeriesVec("netsim_link_offload_bits", "cumulative bits moved off this link by deflection (per run)", "run", "link")
	s.tsActive = db.SeriesVec("netsim_active_flows", "flows in flight", "run").With(s.tsRun)
	s.tsAlt = db.SeriesVec("netsim_alt_flows", "flows currently on an alternative path", "run").With(s.tsRun)
	s.tsMaxUtil = db.SeriesVec("netsim_max_link_util", "worst intact-link utilization", "run").With(s.tsRun)
	s.tsLinkU = make([]*tsdb.Series, s.numLinks)
	s.tsLinkD = make([]*tsdb.Series, s.numLinks)
	s.tsLinkO = make([]*tsdb.Series, s.numLinks)
	s.deflCount = make([]float64, s.numLinks)
	s.offBits = make([]float64, s.numLinks)
	db.SetEpisodeSpec(tsdb.EpisodeSpec{
		Util:        "netsim_link_util",
		Deflections: "netsim_link_deflections",
		OffloadBits: "netsim_link_offload_bits",
		Threshold:   s.cfg.CongestionThreshold,
		// Congestion must span at least two control epochs to be an
		// episode; anything shorter is the single-epoch transient that
		// deflection itself resolves.
		Window: int64(2 * s.cfg.ControlInterval * 1e9),
		// A gap wider than ~20 epochs means the epoch chain paused (all
		// flows done or stalled), not that congestion persisted.
		MaxGap: int64(20 * s.cfg.ControlInterval * 1e9),
	})
}

// linkLabel renders directed link l as "v->u".
func (s *Sim) linkLabel(l int32) string {
	v := s.linkOwner(l)
	u := s.g.Neighbors(v)[l-s.linkOff[v]].AS
	return fmt.Sprintf("%d->%d", v, u)
}

// registerLinkSeries materializes the three per-link series for l.
func (s *Sim) registerLinkSeries(l int32) {
	lbl := s.linkLabel(l)
	s.tsLinkU[l] = s.tsUtilVec.With(s.tsRun, lbl)
	s.tsLinkD[l] = s.tsDeflVec.With(s.tsRun, lbl)
	s.tsLinkO[l] = s.tsOffVec.With(s.tsRun, lbl)
}

// noteDeflection attributes one deflection to the congested egress and
// force-registers its series: a link that deflected a flow is
// interesting even if sampling never caught it above the watermark.
func (s *Sim) noteDeflection(egress int32) {
	if s.deflCount == nil {
		return
	}
	s.deflCount[egress]++
	if s.tsLinkU[egress] == nil {
		s.registerLinkSeries(egress)
	}
}

// sampleTSDB records one control-epoch snapshot: utilization plus the
// cumulative counters for every materialized link, and the run gauges.
// simulate calls it once more after the event loop so the final cumulative
// values always land in the store — that last sample is what makes the
// episode report's offload totals agree exactly with Results.
func (s *Sim) sampleTSDB() {
	if s.tsUtilVec == nil {
		return
	}
	ts := int64(s.now * 1e9)
	watermark := tsdbWatermarkShare * s.cfg.CongestionThreshold
	maxUtil := 0.0
	for l := 0; l < s.numLinks; l++ {
		u := s.util(int32(l))
		if s.capac[l] > 0 && u > maxUtil {
			maxUtil = u
		}
		if s.tsLinkU[l] == nil {
			if u < watermark {
				continue
			}
			s.registerLinkSeries(int32(l))
		}
		s.tsLinkU[l].Sample(ts, u)
		s.tsLinkD[l].Sample(ts, s.deflCount[l])
		s.tsLinkO[l].Sample(ts, s.offBits[l])
	}
	onAlt := 0
	for _, fi := range s.active {
		if s.flows[fi].onAlt {
			onAlt++
		}
	}
	s.tsActive.Sample(ts, float64(len(s.active)))
	s.tsAlt.Sample(ts, float64(onAlt))
	s.tsMaxUtil.Sample(ts, maxUtil)
}
