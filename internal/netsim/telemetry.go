package netsim

// Telemetry attachment. The plumbing itself — the bundle type, trace/series
// helpers, the unified slice-row schema, the power/throughput conversions —
// lives in internal/scenario and is shared by every runner through the
// scenario engine; this file keeps only the System-level attachment surface.

import (
	"vrpower/internal/scenario"
)

// Telemetry is the observer bundle a run feeds (see scenario.Telemetry).
type Telemetry = scenario.Telemetry

// noTelemetry is the shared all-nil default bundle; System methods call
// through it so they never need a nil guard on s.tel itself.
var noTelemetry = scenario.NoTelemetry

// SetTelemetry attaches the bundle to the system; nil detaches.
func (s *System) SetTelemetry(t *Telemetry) {
	if t == nil {
		t = noTelemetry
	}
	s.tel = t
}

// slicePower evaluates the paper's power model over one slice with this
// router's design and the measured per-engine utilization.
func (s *System) slicePower(util []float64) float64 {
	return scenario.SlicePower(s.router.Design(), util)
}
