package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/governor"
)

// capBelowSteady picks a cap between the system's gated-idle power floor and
// its steady-state power at per-engine utilization u: floor + frac of the
// dynamic span. Any frac < 1 therefore forces throttling under load u.
func capBelowSteady(s *System, u, frac float64) float64 {
	utils := make([]float64, len(s.router.Design().Engines))
	floor := s.slicePower(utils)
	for i := range utils {
		utils[i] = u
	}
	steady := s.slicePower(utils)
	return floor + (steady-floor)*frac
}

// TestGovernedLoadTestConvergesAndRecovers is the governor's end-to-end
// demonstration on the separate scheme under the -load preset: a cap below
// steady-state power must force the ladder down (frequency first, then
// shedding the lowest-priority VNIDs), converge under the cap within a
// ladder-bounded number of violating slices, hold there without
// oscillating, and — once the cap lifts mid-run — walk all the way back to
// full speed.
func TestGovernedLoadTestConvergesAndRecovers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	const cycles, lift = 64 * 1024, 32 * 1024
	cap := capBelowSteady(s, 0.9, 0.4)
	s.SetGovernor(&governor.Config{CapWatts: cap, LiftCycle: lift})
	defer s.SetGovernor(nil)
	rep := runSpec(t, s, 31, "load=const:0.9,queue=64,cycles=%d", cycles)
	g := rep.Governor
	if g == nil {
		t.Fatal("governed run returned no governor report")
	}
	if g.Escalations == 0 || g.ViolationSlices == 0 {
		t.Fatalf("cap %.2f W below steady power caused no throttling: %+v", cap, g)
	}
	if g.ViolationSlices > int64(len(g.Rungs))+2 {
		t.Errorf("%d violation slices for a %d-rung ladder: convergence not bounded",
			g.ViolationSlices, len(g.Rungs))
	}
	if g.ConvergedAt < 0 {
		t.Error("estimated power never converged under the cap")
	}
	if g.Oscillations != 0 {
		t.Errorf("%d oscillations", g.Oscillations)
	}
	if g.FinalRung != 0 {
		t.Errorf("did not recover to full speed after the cap lift: rung %d (%s)",
			g.FinalRung, g.Rungs[g.FinalRung])
	}
	if g.Deescalations == 0 {
		t.Error("no de-escalations across the cap lift")
	}
	// Ladder-order degradation: the separate scheme sheds the highest VNID
	// first, so VN 2 bears the throttling and VN 0 none; nothing reached
	// brownout for this cap.
	if g.ThrottledPerVN[2] == 0 {
		t.Errorf("lowest-priority VN 2 never throttled: %v", g.ThrottledPerVN)
	}
	if g.ThrottledPerVN[0] != 0 {
		t.Errorf("highest-priority VN 0 throttled %d arrivals before brownout: %v",
			g.ThrottledPerVN[0], g.ThrottledPerVN)
	}
	for vn, n := range g.BrownoutPerVN {
		if n != 0 {
			t.Errorf("VN %d saw %d brownout drops below the brownout rung", vn, n)
		}
	}
	if rep.DeliveredPerVN[0] <= rep.DeliveredPerVN[2] {
		t.Errorf("degradation not in priority order: delivered %v", rep.DeliveredPerVN)
	}
	// Time accounting covers the whole run.
	var at int64
	for _, c := range g.TimeAtRung {
		at += c
	}
	if at != g.Slices*rep.SliceCycles {
		t.Errorf("TimeAtRung sums to %d cycles over %d slices", at, g.Slices)
	}
}

// TestGovernedLoadTestVMThrottlesAllNetworks pins the paper's isolation
// asymmetry: the merged scheme cannot shed a single VNID, so its ladder goes
// through admission control on the shared pipeline and every network
// degrades together.
func TestGovernedLoadTestVMThrottlesAllNetworks(t *testing.T) {
	s, _ := buildSystem(t, core.VM, 3)
	cap := capBelowSteady(s, 1, 0.35)
	s.SetGovernor(&governor.Config{CapWatts: cap})
	defer s.SetGovernor(nil)
	// Shallow queues: the backlog built while the ladder walks down drains
	// within the first admission slice instead of masquerading as demand.
	rep := runSpec(t, s, 37, "load=const:0.3,queue=16,cycles=49152")
	g := rep.Governor
	if g == nil {
		t.Fatal("governed run returned no governor report")
	}
	if g.ConvergedAt < 0 {
		t.Fatalf("never converged under cap %.2f W: %+v", cap, g)
	}
	if g.Oscillations != 0 {
		t.Errorf("%d oscillations", g.Oscillations)
	}
	if !strings.HasPrefix(g.Rungs[g.FinalRung], "admit") {
		t.Errorf("merged scheme converged at %q, expected an admission rung (ladder %v)",
			g.Rungs[g.FinalRung], g.Rungs)
	}
	for vn, n := range g.ThrottledPerVN {
		if n == 0 {
			t.Errorf("merged-scheme throttling skipped VN %d: %v — admission control cannot discriminate",
				vn, g.ThrottledPerVN)
		}
	}
}

// TestGovernedFaultRunRidesOutScrubSpike: a governed fault preset treats scrub
// reloads as transient power spikes (config-port power pinned to full) and
// still recovers the injected faults; governed drops are charged to the
// per-VN report counters deterministically.
func TestGovernedFaultRunRidesOutScrubSpike(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	const cycles = 32 * 1024
	cap := capBelowSteady(s, 1.0/3, 0.6)
	s.SetGovernor(&governor.Config{CapWatts: cap})
	defer s.SetGovernor(nil)
	rep := runSpec(t, s, 43, "load=const:%s,faults=seu:%g,seed=7,cycles=%d", oneIn(3), seuRateFor(s, 3, cycles), cycles)
	if rep.Governor == nil {
		t.Fatal("governed run returned no governor report")
	}
	if rep.Governor.Oscillations != 0 {
		t.Errorf("%d oscillations", rep.Governor.Oscillations)
	}
	if rep.Mismatches != 0 {
		t.Errorf("oracle mismatches = %d, want 0", rep.Mismatches)
	}
	if !rep.Recovered {
		t.Errorf("governed fault run did not recover: %+v", rep)
	}
	if rep.Governor.Escalations > 0 {
		var throttled int64
		for _, n := range rep.Governor.ThrottledPerVN {
			throttled += n
		}
		var dropped int64
		for _, n := range rep.DroppedPerVN {
			dropped += n
		}
		if throttled > dropped {
			t.Errorf("governor charged %d throttled arrivals but the report only dropped %d",
				throttled, dropped)
		}
	}
}

// TestGovernedRunsDeterministicAcrossWorkers: the governed load, fault and
// churn presets must produce byte-identical telemetry dumps and DeepEqual
// reports at -j1 and -j8 — the governor decides only on the coordinating
// goroutine. Subtests keep the names of the entry points the presets
// replaced.
func TestGovernedRunsDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name string
		gov  func(s *System) *governor.Config
		spec func(s *System) string
		seed int64
	}{
		{"LoadTest", func(s *System) *governor.Config {
			return &governor.Config{CapWatts: capBelowSteady(s, 0.9, 0.4), LiftCycle: 16 * 1024}
		}, func(*System) string { return "load=const:0.9,queue=64,cycles=32768" }, 31},
		{"RunFaults", func(s *System) *governor.Config {
			return &governor.Config{CapWatts: capBelowSteady(s, 1.0/3, 0.5)}
		}, func(s *System) string {
			return fmt.Sprintf("load=const:%s,faults=seu:%g,seed=5,cycles=16384", oneIn(3), seuRateFor(s, 3, 16*1024))
		}, 29},
		{"RunUpdates", func(s *System) *governor.Config {
			return &governor.Config{CapWatts: capBelowSteady(s, 1.0/3, 0.5), LiftCycle: 8 * 1024}
		}, func(*System) string { return "load=const:" + oneIn(3) + ",churn=4x64,seed=1,cycles=16384" }, 23},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := buildSystem(t, core.VS, 3)
			s.SetGovernor(c.gov(s))
			defer s.SetGovernor(nil)
			var reps []ScenarioReport
			runDumps(t, c.name+"/governed", func(tel *Telemetry) {
				s.SetTelemetry(tel)
				defer s.SetTelemetry(nil)
				reps = append(reps, runSpec(t, s, c.seed, "%s", c.spec(s)))
			})
			if len(reps) == 2 && !reflect.DeepEqual(reps[0], reps[1]) {
				t.Errorf("governed %s reports differ between -j1 and -j8:\n%+v\n%+v", c.name, reps[0], reps[1])
			}
		})
	}
}

// TestAssessPowerFlagsBatchRuns: Forward has no slice clock, so the governor
// only assesses — the decision reports the violation without actuating.
func TestAssessPowerFlagsBatchRuns(t *testing.T) {
	s, tables := buildSystem(t, core.VS, 3)
	rep, err := s.Forward(gen(t, 3, tables, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := s.AssessPower(rep); err != nil || d != nil {
		t.Fatalf("ungoverned AssessPower = (%v, %v), want (nil, nil)", d, err)
	}
	s.SetGovernor(&governor.Config{CapWatts: capBelowSteady(s, 0.5, 0.1)})
	defer s.SetGovernor(nil)
	d, err := s.AssessPower(rep)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || !d.Over {
		t.Errorf("cap near the power floor not flagged: %+v", d)
	}
	if d.PowerW <= 0 || d.CapW <= 0 {
		t.Errorf("assessment missing estimates: %+v", d)
	}
}
