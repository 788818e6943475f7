package netsim

// Composed scenario runner tests: a single RunScenario drives load shaping,
// fault injection, update churn and a power cap together, stays
// byte-identical across worker counts, and fails clearly on specs that
// cannot run on the system.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

func mustParse(t *testing.T, spec string) scenario.Spec {
	t.Helper()
	s, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// oneIn is the per-network load that offers one packet per cycle in total
// across k networks, rendered for a spec (load=const:1/K).
func oneIn(k int) string { return strconv.FormatFloat(1/float64(k), 'g', -1, 64) }

// checkConservation asserts per-network packet conservation on a run that
// completed with every engine back in service. A run that ends with a dead
// engine strands that engine's queued packets, so it is exempt.
func checkConservation(t *testing.T, rep ScenarioReport) {
	t.Helper()
	if rep.Completed && rep.Recovered {
		checkBalance(t, rep)
	}
}

// checkBalance asserts that each offered packet was delivered, dropped or
// counted as an oracle mismatch.
func checkBalance(t *testing.T, rep ScenarioReport) {
	t.Helper()
	var gap int64
	for vn := range rep.OfferedPerVN {
		d := rep.OfferedPerVN[vn] - rep.DeliveredPerVN[vn] - rep.DroppedPerVN[vn]
		if d < 0 {
			t.Errorf("VN %d: delivered %d + dropped %d > offered %d",
				vn, rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn], rep.OfferedPerVN[vn])
		}
		gap += d
	}
	if gap != rep.Mismatches {
		t.Errorf("%d offered packets neither delivered nor dropped, %d mismatches", gap, rep.Mismatches)
	}
}

// runSpec runs the formatted spec on s with traffic from generator seed
// gseed, failing on a run error and on broken conservation.
func runSpec(t *testing.T, s *System, gseed int64, format string, args ...any) ScenarioReport {
	t.Helper()
	rep, err := s.RunScenario(faultGen(t, s, gseed), mustParse(t, fmt.Sprintf(format, args...)))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	return rep
}

// runScenario runs one spec at the given worker count with a fresh system
// and telemetry, returning the report and the three telemetry dumps.
func runScenario(t *testing.T, sch core.Scheme, k int, spec scenario.Spec, workers int) (ScenarioReport, [3]string) {
	t.Helper()
	sweep.SetWorkers(workers)
	defer sweep.SetWorkers(0)
	s, _ := buildSystem(t, sch, k)
	tel := testTelemetry(0.05, 99)
	s.SetTelemetry(tel)
	rep, err := s.RunScenario(faultGen(t, s, 17), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	tr, se, ev := dumps(t, tel)
	return rep, [3]string{tr, se, ev}
}

func TestScenarioComposedAllStressors(t *testing.T) {
	// The ISSUE's flagship invocation, scaled down for test time: surge
	// load, SEU faults, an engine kill, churn and a power cap in ONE run.
	spec := mustParse(t, "load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11")
	rep, _ := runScenario(t, core.VS, 3, spec, 1)

	if len(rep.Stressors) != 4 {
		t.Fatalf("stressors %v, want all four", rep.Stressors)
	}
	if rep.Kill == nil || rep.Kill.Engine != 1 {
		t.Fatalf("kill record %+v", rep.Kill)
	}
	if rep.Kill.DetectedAt < 0 {
		t.Fatal("kill never detected")
	}
	if rep.Governor == nil {
		t.Fatal("no governor report despite power-cap")
	}
	if rep.BatchesApplied+rep.BatchesAborted != 6 {
		t.Fatalf("batches applied %d + aborted %d, want 6 total", rep.BatchesApplied, rep.BatchesAborted)
	}
	if rep.BatchesApplied == 0 {
		t.Fatal("no churn batch committed")
	}
	if rep.Scrubs == 0 {
		t.Fatal("kill never scrubbed")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches", rep.Mismatches)
	}
	// The killed engine's network must show the availability hole. (The
	// other networks may dip too — the SEU stressor hits every engine.)
	if rep.Availability(1) >= 1 {
		t.Fatal("killed VN shows full availability")
	}
	var offered, delivered, dropped int64
	for vn := 0; vn < rep.K; vn++ {
		offered += rep.OfferedPerVN[vn]
		delivered += rep.DeliveredPerVN[vn]
		dropped += rep.DroppedPerVN[vn]
	}
	if offered == 0 || delivered == 0 {
		t.Fatalf("offered %d delivered %d", offered, delivered)
	}
	if delivered+dropped > offered {
		t.Fatalf("delivered %d + dropped %d > offered %d", delivered, dropped, offered)
	}
}

func TestScenarioMergedEngineKillTakesAllNetworksDown(t *testing.T) {
	spec := mustParse(t, "load=const:0.3,kill=0@2048,cycles=8192,seed=5")
	rep, _ := runScenario(t, core.VM, 3, spec, 1)
	if rep.Kill == nil {
		t.Fatal("no kill record")
	}
	// The merged scheme's one engine serves every network: the kill must
	// blackhole all K, the paper's degradation asymmetry.
	for vn := 0; vn < rep.K; vn++ {
		if rep.UnavailableCyclesPerVN[vn] == 0 {
			t.Fatalf("VN %d shows no outage under a merged-engine kill", vn)
		}
	}
	if !rep.Recovered {
		t.Fatal("engine not recovered by run end")
	}

	// The same kill on the separate scheme takes down only its own
	// network: the paper's isolation asymmetry, end to end.
	vs, _ := runScenario(t, core.VS, 3, mustParse(t, "load=const:0.3,kill=0@2048,cycles=8192,seed=5"), 1)
	if vs.Availability(0) >= 1 {
		t.Fatal("killed VN shows full availability on the separate scheme")
	}
	if vs.Availability(1) != 1 || vs.Availability(2) != 1 {
		t.Fatalf("separate scheme leaked the outage: %g %g", vs.Availability(1), vs.Availability(2))
	}
}

func TestScenarioChurnAfterRepairReloadsChurnedRoutes(t *testing.T) {
	// Churn plus a kill on the churned engine: the scrub rebuild must pick
	// up committed churn (no oracle mismatches after the reload).
	spec := mustParse(t, "load=const:0.5,kill=1@6000,churn=8x32:vn=1,cycles=24576,seed=3")
	rep, _ := runScenario(t, core.VS, 3, spec, 1)
	if rep.BatchesApplied == 0 {
		t.Fatal("no batch committed")
	}
	if rep.Scrubs == 0 {
		t.Fatal("no scrub ran")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches: scrub reload lost churned routes", rep.Mismatches)
	}
	if !rep.Recovered {
		t.Fatal("engine not recovered")
	}
}

func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	specs := []string{
		"load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11",
		"load=burst:0.8:512:0.5,churn=4x64,cycles=8192",
		"load=ramp:0:1,faults=seu:5e-9,power-cap-device=14,cycles=8192",
	}
	for _, raw := range specs {
		spec := mustParse(t, raw)
		rep1, dumps1 := runScenario(t, core.VS, 3, spec, 1)
		rep8, dumps8 := runScenario(t, core.VS, 3, spec, 8)
		if dumpJSON(t, rep1) != dumpJSON(t, rep8) {
			t.Errorf("%s: report differs between -j1 and -j8", raw)
		}
		for i, name := range []string{"traces", "series", "events"} {
			if dumps1[i] != dumps8[i] {
				t.Errorf("%s: %s dump differs between -j1 and -j8", raw, name)
			}
		}
	}
}

func TestScenarioUngovernedPlainLoad(t *testing.T) {
	spec := mustParse(t, "load=const:0.4,cycles=4096")
	rep, _ := runScenario(t, core.VS, 2, spec, 1)
	if rep.Governor != nil {
		t.Fatal("governor report on an uncapped run")
	}
	if len(rep.SEUs) != 0 || rep.Kill != nil || len(rep.Batches) != 0 {
		t.Fatal("stressor residue on a load-only run")
	}
	if !rep.Completed {
		t.Fatal("load-only run did not complete")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches", rep.Mismatches)
	}
}

func TestScenarioInvalidOnSystem(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	cases := []struct {
		spec string
		want string
	}{
		{"churn=4x32:vn=5", "churn target network 5 outside [0,2)"},
		{"kill=7@100", "kill engine 7 with 2 engines"},
	}
	for _, c := range cases {
		spec := mustParse(t, c.spec)
		_, err := s.RunScenario(faultGen(t, s, 1), spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunScenario(%q) = %v, want substring %q", c.spec, err, c.want)
		}
	}
	// Churn on the non-virtualized scheme has no runtime update path.
	nv, _ := buildSystem(t, core.NV, 2)
	if _, err := nv.RunScenario(faultGen(t, nv, 1), mustParse(t, "churn=2x16")); err == nil {
		t.Error("churn accepted on the non-virtualized scheme")
	}
}

// TestScenarioSEUAfterBankFlipRepaired runs the spec of the lookupsim smoke
// table's scenario case on the lookupsim default system (1000 prefixes,
// seed 1, routed traffic from seed 2). Two of its upsets land on an engine
// after that engine's commit bubble flipped the bank but before the
// boundary that repoints the fault state at the new image: each must still
// be detected and repaired, so the run recovers and drains instead of
// hitting its bound.
func TestScenarioSEUAfterBankFlipRepaired(t *testing.T) {
	const k = 3
	set, err := rib.GenerateVirtualSet(k, 1000, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.New(traffic.Config{K: k, Seed: 2, Addr: traffic.RoutedAddr, Tables: set.Tables})
	if err != nil {
		t.Fatal(err)
	}
	spec := mustParse(t, "load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11")
	rep, err := s.RunScenario(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	// The spec must exercise the case: an upset on an engine after that
	// engine's commit bubble, in the slice the commit drained in.
	stranded := 0
	for _, u := range rep.SEUs {
		for _, b := range rep.Batches {
			if b.Engine == u.Engine && u.Cycle > b.DoneAt && u.Cycle/rep.SliceCycles == b.DoneAt/rep.SliceCycles {
				stranded++
			}
		}
	}
	if stranded == 0 {
		t.Fatal("no upset lands after a bank flip in its slice; the spec no longer covers the case")
	}
	if got := rep.RepairedSEUs(); rep.DetectedSEUs() != len(rep.SEUs) || got != len(rep.SEUs) {
		t.Fatalf("SEUs injected %d / detected %d / repaired %d, want all", len(rep.SEUs), rep.DetectedSEUs(), got)
	}
	if !rep.Recovered || !rep.Completed {
		t.Fatalf("Recovered %v Completed %v (drain %d cycles), want both", rep.Recovered, rep.Completed, rep.DrainCycles)
	}
}
