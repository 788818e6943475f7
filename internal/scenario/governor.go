package scenario

// Governor actuation for slice-driven runs. The engine measures
// per-engine utilization every slice, the governor (internal/governor)
// re-evaluates the paper's power models against the configured caps and
// picks a ladder rung, and this file translates the rung into run actuation
// — deterministic serve pacers for DVFS frequency stepping, engine
// quiescing, merged-scheme admission control, and brownout drops. A run
// actuates through exactly two calls: AdmitArrival per arrival and
// EngineServes per engine-cycle. All decisions happen on the coordinating
// goroutine, so governed runs stay byte-identical at any -j.

import (
	"vrpower/internal/governor"
	"vrpower/internal/obs"
)

// obsGovernorDrops counts arrivals the governor refused (throttled or
// browned out) across all runs. The name keeps the historical netsim.
// prefix: it is a published metrics contract.
var obsGovernorDrops = obs.NewCounter("netsim.governor_drops")

// GovRun is one run's governor instance plus its actuation state: the
// decision in force and the deterministic serve pacers derived from it.
type GovRun struct {
	g   *governor.Governor
	dec governor.Decision
	// freq paces each engine's serve cycles at the rung's clock fraction;
	// admit paces each network's admitted arrivals at the rung's admission
	// fraction (only below 1 for merged-scheme rungs).
	freq  []governor.Pacer
	admit []governor.Pacer
}

// NewGovRun builds a run's governor from its configuration, or returns
// (nil, nil) when cfg is nil (ungoverned run). engines and k size the
// pacer sets; the event log receives the governor's escalation events.
func NewGovRun(cfg *governor.Config, plant governor.Plant, engines, k int, events *obs.EventLog) (*GovRun, error) {
	if cfg == nil {
		return nil, nil
	}
	g, err := governor.New(*cfg, plant)
	if err != nil {
		return nil, err
	}
	g.SetEventLog(events)
	r, i := g.Current()
	gv := &GovRun{
		g:     g,
		freq:  make([]governor.Pacer, engines),
		admit: make([]governor.Pacer, k),
	}
	gv.apply(governor.Decision{ObservedRung: i, RungIndex: i, Rung: r})
	return gv, nil
}

// Report returns the controller's run summary.
func (gv *GovRun) Report() *governor.Report { return gv.g.Report() }

// apply installs a decision: fresh pacers so the new rung's cadence starts
// phase-aligned at the slice boundary.
func (gv *GovRun) apply(d governor.Decision) {
	gv.dec = d
	for e := range gv.freq {
		gv.freq[e] = governor.NewPacer(d.Rung.FreqFrac)
	}
	for vn := range gv.admit {
		gv.admit[vn] = governor.NewPacer(d.Rung.AdmitFrac)
	}
}

// Observe feeds one slice's measured utilization (and reload flags) to the
// governor and actuates its decision for the next slice.
func (gv *GovRun) Observe(cycle, cycles int64, util []float64, reloading []bool) governor.Decision {
	d := gv.g.Observe(governor.Sample{Cycle: cycle, Cycles: cycles, Util: util, Reloading: reloading})
	gv.apply(d)
	return d
}

// EngineServes reports whether engine e gets an input slot this cycle:
// quiesced engines never serve; frequency-stepped ones serve the rung's
// fraction of cycles on the pacer's even cadence.
func (gv *GovRun) EngineServes(e int) bool {
	if gv.dec.Rung.QuiescedEngine(e) {
		return false
	}
	return gv.freq[e].Tick()
}

// AdmitArrival applies the rung's admission policy to one arrival for
// network vn steered to the given engine; it returns true when the arrival
// must be dropped, charging the drop to the right per-VNID counter.
func (gv *GovRun) AdmitArrival(vn, engine int) bool {
	r := gv.dec.Rung
	switch {
	case r.Brownout:
		gv.g.CountBrownout(vn)
	case r.QuiescedEngine(engine):
		gv.g.CountThrottled(vn)
	case !gv.admit[vn].Tick():
		gv.g.CountThrottled(vn)
	default:
		return false
	}
	obsGovernorDrops.Inc()
	return true
}
