package netsim

// Governor attachment. The actuation machinery — slice-grain observe,
// deterministic serve pacers, admission control — lives in internal/scenario
// (GovRun) and is driven by the scenario engine; this file keeps the
// System-level configuration surface and the observe-only batch assessment.

import (
	"vrpower/internal/governor"
	"vrpower/internal/obs"
)

// SetGovernor attaches a power-envelope governor configuration; every
// subsequent RunScenario call whose spec sets no power-cap= key runs
// governed by it, and AssessPower becomes available for batch runs. Nil
// detaches.
func (s *System) SetGovernor(cfg *governor.Config) { s.gov = cfg }

// plant exposes the router to the governor: the placed design (FMHz at
// fmax), the virtualization scheme and the network count.
func (s *System) plant() governor.Plant {
	return governor.Plant{
		Design: s.router.Design(),
		Scheme: s.router.Config().Scheme,
		K:      s.k,
	}
}

// AssessPower evaluates the attached governor's caps against a completed
// batch run's measured utilization — the observe-only path for Forward,
// which has no slice clock to actuate on. Returns nil when no governor is
// attached.
func (s *System) AssessPower(rep Report) (*governor.Decision, error) {
	if s.gov == nil {
		return nil, nil
	}
	g, err := governor.New(*s.gov, s.plant())
	if err != nil {
		return nil, err
	}
	util := make([]float64, len(rep.PerEngine))
	for e, st := range rep.PerEngine {
		util[e] = st.Utilization()
	}
	d := g.Assess(util)
	if d.Over {
		s.tel.Events.Log(obs.LevelWarn, 0, "governor_cap_exceeded",
			"power_mw", int64(d.PowerW*1000+0.5), "cap_mw", int64(d.CapW*1000+0.5))
	}
	return &d, nil
}
