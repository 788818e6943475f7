package netsim

// This file is the fault lifecycle state the composed runner's fault
// stressor (scenFaults in scenario.go) acts on: the per-upset and per-kill
// records a report carries, one engine's detection/repair state, the
// background readback sweep, and the scrubber's rebuild closure. Degradation
// follows the schemes' asymmetry: a separate-engine failure blackholes only
// its own VNID, while the merged engine takes every network down for the
// reload window.

import (
	"vrpower/internal/core"
	"vrpower/internal/faults"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
)

// Fault instrumentation (surfaced by cmd/lookupsim -stats). Per-VNID drop
// counters are registered lazily in RunScenario.
var (
	obsFaultsDetected = obs.NewCounter("netsim.faults_detected")
	obsFaultsRepaired = obs.NewCounter("netsim.faults_repaired")
	obsFaultDrops     = obs.NewCounter("netsim.fault_packets_dropped")
)

// Detection channels recorded in SEURecord.Via.
const (
	// ViaAccess is access-time detection: a lookup read the corrupted word
	// and the pipeline's parity check refused to use it.
	ViaAccess = "access"
	// ViaSweep is the background readback sweep finding stale parity in a
	// word no lookup happened to touch.
	ViaSweep = "sweep"
	// ViaHeartbeat is the control plane noticing a killed engine.
	ViaHeartbeat = "heartbeat"
	// ViaReload marks an upset that landed while its engine was already
	// being reloaded; the fresh image overwrote it incidentally.
	ViaReload = "reload"
)

// SEURecord is one injected upset's lifecycle.
type SEURecord struct {
	faults.Upset
	// DetectedAt and RepairedAt are run cycles; -1 while outstanding.
	DetectedAt int64
	RepairedAt int64
	// Via names the detection channel (ViaAccess, ViaSweep, ViaHeartbeat,
	// ViaReload); empty while undetected.
	Via string
}

// KillRecord is an engine hard-failure's lifecycle.
type KillRecord struct {
	Engine     int
	Cycle      int64
	DetectedAt int64
	RepairedAt int64
}

// engState is one engine's fault lifecycle in a run.
type engState struct {
	// img is the run-private (cloned, possibly corrupted) image in service.
	img *pipeline.Image
	// sweepStage/sweepIdx is the background readback sweep's cursor.
	sweepStage int
	sweepIdx   int
	// outstanding indexes report.SEUs entries not yet repaired.
	outstanding []int
	// detectVia is the pending detection flag the next boundary consumes.
	detectVia string
	// killed marks the scheduled hard failure until the reload lands.
	killed bool
	// dead marks a scrub-budget exhaustion: permanently out of service.
	dead bool
	// reloading + repairAt + pending describe an in-flight scrub reload.
	reloading bool
	repairAt  int64
	pending   *pipeline.Image
}

func (e *engState) down() bool { return e.dead || e.killed || e.reloading }

// rebuildEngine returns the scrubber's rebuild closure for engine e: the
// image is recompiled from the authoritative tables through the same
// deterministic build the router used, so the rebuilt geometry matches the
// original word for word (which keeps pre-drawn upset coordinates valid).
func (s *System) rebuildEngine(e int) func() (*pipeline.Image, error) {
	cfg := s.router.Config()
	return func() (*pipeline.Image, error) {
		if cfg.Scheme == core.VM {
			r, err := core.Build(cfg, s.tables)
			if err != nil {
				return nil, err
			}
			return r.Images()[0], nil
		}
		one := cfg
		one.K = 1
		r, err := core.Build(one, s.tables[e:e+1])
		if err != nil {
			return nil, err
		}
		return r.Images()[0], nil
	}
}

// sweepStep advances the background readback sweep by words stage-memory
// words, returning how many words it actually read (the clamp to the image
// size is what the energy meter charges) and whether any word's stored
// parity was stale.
func (e *engState) sweepStep(words int) (int, bool) {
	total := e.img.Words()
	if total == 0 || words <= 0 {
		return 0, false
	}
	if words > total {
		words = total
	}
	hit := false
	for n := 0; n < words; n++ {
		for e.sweepIdx >= len(e.img.Stages[e.sweepStage].Entries) {
			e.sweepIdx = 0
			e.sweepStage = (e.sweepStage + 1) % len(e.img.Stages)
		}
		w := &e.img.Stages[e.sweepStage].Entries[e.sweepIdx]
		if w.Parity != w.DataParity() {
			hit = true
		}
		e.sweepIdx++
	}
	return words, hit
}
