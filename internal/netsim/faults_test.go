package netsim

import (
	"reflect"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

func faultGen(t *testing.T, s *System, seed int64) *traffic.Generator {
	t.Helper()
	g, err := traffic.New(traffic.Config{K: s.k, Seed: seed, Addr: traffic.RoutedAddr, Tables: s.tables})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seuRateFor picks an SEU rate expected to land about n upsets across all
// engines over the traffic window, so tests stay fast regardless of table
// geometry.
func seuRateFor(s *System, n float64, cycles int64) float64 {
	var bits int64
	for _, img := range s.router.Images() {
		bits += img.DataBits()
	}
	return n / (float64(bits) * float64(cycles))
}

// TestVSKillBlackholesOnlyItsOwnVNID: killing one separate-scheme engine
// must drop only that engine's network while every other VNID keeps
// forwarding with zero oracle mismatches — and the scrub must bring the
// killed network back within the run.
func TestVSKillBlackholesOnlyItsOwnVNID(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	rep := runSpec(t, s, 17, "load=const:%s,kill=1@3000,seed=42,cycles=16384", oneIn(3))
	if rep.Mismatches != 0 {
		t.Errorf("oracle mismatches = %d, want 0", rep.Mismatches)
	}
	for _, vn := range []int{0, 2} {
		if rep.DroppedPerVN[vn] != 0 {
			t.Errorf("healthy VN %d dropped %d packets", vn, rep.DroppedPerVN[vn])
		}
		if a := rep.Availability(vn); a != 1 {
			t.Errorf("healthy VN %d availability %.4f, want 1", vn, a)
		}
	}
	if rep.DroppedPerVN[1] == 0 {
		t.Error("killed VN 1 dropped no packets")
	}
	if a := rep.Availability(1); a <= 0 || a >= 1 {
		t.Errorf("killed VN 1 availability %.4f, want in (0,1): down then recovered", a)
	}
	if rep.Kill == nil {
		t.Fatal("no kill record")
	}
	if rep.Kill.DetectedAt < rep.Kill.Cycle || rep.Kill.RepairedAt <= rep.Kill.DetectedAt {
		t.Errorf("kill lifecycle out of order: %+v", rep.Kill)
	}
	if !rep.Recovered {
		t.Error("run did not recover after scrub")
	}
	// Delivered packets on the killed VN too: traffic before the kill and
	// after the reload both flowed.
	if rep.DeliveredPerVN[1] == 0 {
		t.Error("killed VN 1 delivered nothing at all")
	}
}

// TestVMSEUDisruptsAllNetworks: an upset in the merged engine's shared
// structure takes every network down for the reload window — the paper's
// robustness cost of merging.
func TestVMSEUDisruptsAllNetworks(t *testing.T) {
	s, _ := buildSystem(t, core.VM, 3)
	const cycles = 16 * 1024
	rep := runSpec(t, s, 19, "load=const:%s,faults=seu:%g,seed=7,cycles=%d", oneIn(3), seuRateFor(s, 3, cycles), cycles)
	if len(rep.SEUs) == 0 {
		t.Fatal("no SEUs landed; rate tuning is off")
	}
	if rep.Mismatches != 0 {
		t.Errorf("oracle mismatches = %d, want 0", rep.Mismatches)
	}
	if rep.Scrubs == 0 {
		t.Fatal("no scrub ran despite injected SEUs")
	}
	// The merged engine is shared: unavailability hits all K networks
	// identically.
	for vn := 1; vn < rep.K; vn++ {
		if rep.UnavailableCyclesPerVN[vn] != rep.UnavailableCyclesPerVN[0] {
			t.Errorf("VN %d unavailable %d cycles, VN 0 %d — merged engine must take all networks down together",
				vn, rep.UnavailableCyclesPerVN[vn], rep.UnavailableCyclesPerVN[0])
		}
	}
	if rep.UnavailableCyclesPerVN[0] == 0 {
		t.Error("no unavailability despite a scrub of the shared engine")
	}
	if !rep.Recovered {
		t.Error("run did not recover")
	}
}

// TestAllSEUsDetectedAndScrubbed: every injected upset must end the run
// detected and repaired — access-time parity plus the background sweep
// leave no silent corruption — with MTTR within the bounded-retry budget
// even when reconfigurations fail mid-flight.
func TestAllSEUsDetectedAndScrubbed(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	const cycles = 16 * 1024
	rep := runSpec(t, s, 23, "load=const:0.5,faults=seu:%g,reconfig-fail=1,seed=99,cycles=%d", seuRateFor(s, 4, cycles), cycles)
	if len(rep.SEUs) == 0 {
		t.Fatal("no SEUs landed; rate tuning is off")
	}
	if got := rep.DetectedSEUs(); got != len(rep.SEUs) {
		t.Errorf("detected %d of %d SEUs", got, len(rep.SEUs))
	}
	if got := rep.RepairedSEUs(); got != len(rep.SEUs) {
		t.Errorf("repaired %d of %d SEUs", got, len(rep.SEUs))
	}
	for i, u := range rep.SEUs {
		if u.DetectedAt < 0 || u.RepairedAt < u.DetectedAt || u.Via == "" {
			t.Errorf("SEU %d lifecycle out of order: %+v", i, u)
		}
	}
	if rep.MTTRCycles() <= 0 {
		t.Errorf("MTTR = %.1f cycles, want > 0", rep.MTTRCycles())
	}
	if rep.ScrubAttempts <= rep.Scrubs {
		t.Errorf("scrub attempts %d with %d scrubs: injected reconfig failure never cost a retry",
			rep.ScrubAttempts, rep.Scrubs)
	}
	if rep.ScrubsExhausted != 0 {
		t.Errorf("%d scrubs exhausted their budget", rep.ScrubsExhausted)
	}
	if rep.Mismatches != 0 {
		t.Errorf("oracle mismatches = %d, want 0", rep.Mismatches)
	}
	if !rep.Recovered {
		t.Error("run did not recover")
	}
}

// TestKillLastEngineDegradesInsteadOfPanicking: killing the only engine of a
// K=1 system while every reconfiguration attempt fails must leave the run
// degraded — blackholed traffic, Recovered=false — never panicking or
// spinning. The reconfig-failure budget (reconfig-fail=16) outlasts the
// scrub retry budget, so the scrubber exhausts and declares the engine dead.
func TestKillLastEngineDegradesInsteadOfPanicking(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 1)
	rep := runSpec(t, s, 37, "load=const:1,kill=0@2000,reconfig-fail=16,seed=3,cycles=8192")
	if rep.ScrubsExhausted == 0 {
		t.Error("scrub never exhausted its retry budget")
	}
	if rep.Recovered {
		t.Error("run reported recovered with its only engine dead")
	}
	if rep.DeliveredPerVN[0] == 0 {
		t.Error("no traffic delivered before the kill")
	}
	if rep.DroppedPerVN[0] == 0 {
		t.Error("dead engine dropped nothing")
	}
	if a := rep.Availability(0); a <= 0 || a >= 1 {
		t.Errorf("availability %.4f, want in (0,1): up before the kill, down after", a)
	}
}

// TestFaultRunDeterministicAcrossWorkers: the full fault report — schedules,
// stamps, per-VN counters — must be identical at -j1 and -j8 for the same
// seeds.
func TestFaultRunDeterministicAcrossWorkers(t *testing.T) {
	defer sweep.SetWorkers(0)
	for _, scheme := range []core.Scheme{core.VS, core.VM} {
		s, _ := buildSystem(t, scheme, 3)
		const cycles = 8 * 1024
		var reports []ScenarioReport
		for _, workers := range []int{1, 8} {
			sweep.SetWorkers(workers)
			reports = append(reports, runSpec(t, s, 29,
				"load=const:%s,faults=seu:%g,kill=0@2000,reconfig-fail=1,seed=5,cycles=%d",
				oneIn(3), seuRateFor(s, 3, cycles), cycles))
		}
		if !reflect.DeepEqual(reports[0], reports[1]) {
			t.Errorf("%s: fault report differs between -j1 and -j8:\n%+v\n%+v", scheme, reports[0], reports[1])
		}
	}
}

// TestFaultRunCleanBaseline: the fault preset's load with no upset and no
// kill must behave exactly like plain forwarding — nothing dropped, nothing
// scrubbed, fully recovered.
func TestFaultRunCleanBaseline(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	rep := runSpec(t, s, 31, "load=const:0.5,cycles=4096")
	if len(rep.SEUs) != 0 || rep.Kill != nil || rep.Scrubs != 0 {
		t.Errorf("clean run injected faults: %+v", rep)
	}
	for vn := 0; vn < rep.K; vn++ {
		if rep.DroppedPerVN[vn] != 0 {
			t.Errorf("clean run dropped %d packets on VN %d", rep.DroppedPerVN[vn], vn)
		}
		if rep.OfferedPerVN[vn] != rep.DeliveredPerVN[vn] {
			t.Errorf("clean run VN %d: offered %d, delivered %d", vn, rep.OfferedPerVN[vn], rep.DeliveredPerVN[vn])
		}
	}
	if rep.Mismatches != 0 || rep.FaultedLookups != 0 {
		t.Errorf("clean run saw faults: %+v", rep)
	}
	if !rep.Recovered || !rep.Completed {
		t.Errorf("clean run not trivially recovered: recovered=%v completed=%v", rep.Recovered, rep.Completed)
	}
}
