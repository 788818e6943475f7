package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
)

// churnSpec is the -churn preset (one packet per cycle in total, round-robin
// batches of ops routes) with a queue deep enough that no arrival overflows
// while bubbles hold the input slot, so a completed run must deliver every
// offered packet.
func churnSpec(k, batches, ops int, extra string) string {
	return fmt.Sprintf("load=const:%s,churn=%dx%d%s,queue=4096", oneIn(k), batches, ops, extra)
}

// checkHitless asserts the invariants every completed hitless run must hold:
// all batches committed, zero oracle mismatches, zero parity faults, every
// offered packet delivered — delayed by bubbles, never dropped — and every
// planned write bubble injected.
func checkHitless(t *testing.T, rep ScenarioReport, wantBatches int) {
	t.Helper()
	if !rep.Completed {
		t.Fatalf("run did not complete: %d/%d batches applied", rep.BatchesApplied, wantBatches)
	}
	if rep.BatchesApplied != wantBatches || rep.BatchesAborted != 0 {
		t.Errorf("applied %d batches (%d aborted), want %d", rep.BatchesApplied, rep.BatchesAborted, wantBatches)
	}
	if rep.Mismatches != 0 {
		t.Errorf("oracle mismatches = %d, want 0 (shadow-bank commit leaked a mixed image)", rep.Mismatches)
	}
	if rep.FaultedLookups != 0 {
		t.Errorf("faulted lookups = %d, want 0 (updates must write clean words)", rep.FaultedLookups)
	}
	for vn := range rep.OfferedPerVN {
		if rep.DeliveredPerVN[vn] != rep.OfferedPerVN[vn] {
			t.Errorf("VN %d delivered %d of %d offered: hitless means delayed, never dropped",
				vn, rep.DeliveredPerVN[vn], rep.OfferedPerVN[vn])
		}
	}
	if rep.Energy.Bubbles != rep.PlannedBubbles {
		t.Errorf("spent %d bubble slots, planned %d", rep.Energy.Bubbles, rep.PlannedBubbles)
	}
	for i, b := range rep.Batches {
		if b.Writes <= 0 || b.Bubbles <= 0 {
			t.Errorf("batch %d: writes=%d bubbles=%d, want > 0 for real churn", i, b.Writes, b.Bubbles)
		}
		if b.DoneAt <= b.ArmedAt {
			t.Errorf("batch %d: done at %d, armed at %d", i, b.DoneAt, b.ArmedAt)
		}
		if b.CoalescedOps > b.RawOps {
			t.Errorf("batch %d: coalesced %d > raw %d", i, b.CoalescedOps, b.RawOps)
		}
	}
}

func TestRunUpdatesHitlessVS(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	rep := runSpec(t, s, 23, churnSpec(3, 4, 64, "")+",seed=1,cycles=16384")
	checkHitless(t, rep, 4)
	// Round-robin targeting: each batch rewrites only its network's engine.
	for i, b := range rep.Batches {
		if b.VN != i%3 || b.Engine != b.VN {
			t.Errorf("batch %d: VN=%d engine=%d, want round-robin VN %d on its own engine", i, b.VN, b.Engine, i%3)
		}
	}
}

func TestRunUpdatesHitlessVM(t *testing.T) {
	s, _ := buildSystem(t, core.VM, 3)
	rep := runSpec(t, s, 29, churnSpec(3, 4, 64, "")+",seed=1,cycles=16384")
	checkHitless(t, rep, 4)
	for i, b := range rep.Batches {
		if b.Engine != 0 {
			t.Errorf("batch %d on engine %d, want 0 (the shared merged engine)", i, b.Engine)
		}
	}
}

// TestRunUpdatesVMCostlierThanVS pins the paper's update asymmetry under
// live traffic: the same churn schedule costs the merged scheme more writes
// and bubbles (the shared structure is rewritten) than the separate scheme.
func TestRunUpdatesVMCostlierThanVS(t *testing.T) {
	run := func(sc core.Scheme) ScenarioReport {
		s, _ := buildSystem(t, sc, 3)
		// vn=1 pins an identical churn schedule on both schemes.
		rep := runSpec(t, s, 31, churnSpec(3, 4, 64, ":vn=1")+",seed=1,cycles=16384")
		checkHitless(t, rep, 4)
		return rep
	}
	vs, vm := run(core.VS), run(core.VM)
	if vm.UpdateWrites <= vs.UpdateWrites || vm.PlannedBubbles <= vs.PlannedBubbles {
		t.Errorf("VM (writes=%d bubbles=%d) not costlier than VS (writes=%d bubbles=%d)",
			vm.UpdateWrites, vm.PlannedBubbles, vs.UpdateWrites, vs.PlannedBubbles)
	}
}

// TestRunUpdatesDeterministicAcrossWorkers: the full report — batch stamps,
// delay sums, per-VN counters — must be identical at -j 1 and -j 8.
func TestRunUpdatesDeterministicAcrossWorkers(t *testing.T) {
	defer sweep.SetWorkers(0)
	run := func(workers int) ScenarioReport {
		sweep.SetWorkers(workers)
		s, _ := buildSystem(t, core.VS, 4)
		return runSpec(t, s, 37, churnSpec(4, 4, 64, "")+",seed=1,cycles=8192")
	}
	j1, j8 := run(1), run(8)
	if !reflect.DeepEqual(j1, j8) {
		t.Errorf("update reports differ across worker counts:\n-j1: %+v\n-j8: %+v", j1, j8)
	}
}

// TestRunUpdatesSoak applies ten churn batches under sustained traffic —
// each diffed against the previous batch's committed table — and requires
// zero mismatches throughout.
func TestRunUpdatesSoak(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	rep := runSpec(t, s, 41, churnSpec(3, 10, 48, "")+",seed=1,cycles=40960")
	checkHitless(t, rep, 10)
	// The batches must actually land inside the traffic window, not pile up
	// in the drain: this is churn under load, not churn after it.
	underTraffic := 0
	for _, b := range rep.Batches {
		if b.DoneAt < rep.TrafficCycles {
			underTraffic++
		}
	}
	if underTraffic < 10 {
		t.Errorf("only %d/10 batches committed inside the traffic window", underTraffic)
	}
}

func TestRunUpdatesValidation(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	if _, err := s.RunScenario(faultGen(t, s, 43), mustParse(t, "churn=4x64:vn=5")); err == nil {
		t.Error("out-of-range target network accepted")
	}
	// NV has no runtime update path.
	nv, _ := buildSystem(t, core.NV, 1)
	if _, err := nv.RunScenario(faultGen(t, nv, 43), mustParse(t, "churn=4x64")); err == nil {
		t.Error("NV update run accepted")
	}
	// A zero-batch churn spec is not a spec.
	for _, bad := range []string{"churn=0x64", "churn=4x0", "churn=-1x64"} {
		if _, err := scenario.Parse(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
