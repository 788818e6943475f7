package netsim

// Behavioural tests for the fleet failure-domain layer: a device crash must
// be survived by live-migrating every victim network onto the survivors (or
// a woken spare) without ever misforwarding, an unplaceable loss must
// degrade per-network instead of failing the run, and every completed run
// must conserve its packets.

import (
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/scenario"
)

func runFleet(t *testing.T, k int, spec string) ScenarioReport {
	t.Helper()
	s, _ := buildSystem(t, core.VS, k)
	sp, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunScenario(faultGen(t, s, 17), sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet == nil {
		t.Fatal("fleet spec produced no fleet report")
	}
	// A fleet run that completed conserves every packet, degraded or not:
	// degradation drops the held queue, so nothing is left stranded.
	if rep.Completed {
		checkBalance(t, rep)
	}
	return rep
}

func TestFleetCrashFailover(t *testing.T) {
	rep := runFleet(t, 8,
		"load=const:0.4,fleet=4:spare=1,chaos=devcrash:1,cycles=16384,queue=32,seed=11")
	f := rep.Fleet
	if len(f.Crashes) != 1 {
		t.Fatalf("crashes: %+v", f.Crashes)
	}
	victims := f.Crashes[0].Victims
	if len(victims) == 0 {
		t.Fatal("crashed device held no networks")
	}
	if len(f.Degraded) != 0 {
		t.Fatalf("degraded %+v with survivors available", f.Degraded)
	}
	if !rep.Recovered || !rep.Completed {
		t.Fatalf("Recovered %v Completed %v, want both", rep.Recovered, rep.Completed)
	}
	// Every victim must land via exactly the migration machinery, with a
	// positive, bounded repair time.
	landed := map[int]bool{}
	for _, m := range f.Migrations {
		if m.CommittedAt < 0 {
			t.Fatalf("migration %+v never landed", m)
		}
		if m.MTTRCycles <= 0 || m.MTTRCycles >= rep.TrafficCycles {
			t.Fatalf("migration %+v MTTR out of range", m)
		}
		if m.From != f.Crashes[0].Device {
			t.Fatalf("migration %+v not from the crashed device", m)
		}
		landed[m.VN] = true
	}
	for _, vn := range victims {
		if !landed[vn] {
			t.Fatalf("victim %d has no landed migration: %+v", vn, f.Migrations)
		}
	}
	if f.MigrationsDone != len(victims) || f.MeanMTTRCycles() <= 0 {
		t.Fatalf("done %d mean MTTR %g, want %d landings", f.MigrationsDone, f.MeanMTTRCycles(), len(victims))
	}
	// The dip is bounded: victims lose service only between crash and
	// commit, and everyone else rides through untouched.
	for _, vn := range victims {
		down := rep.UnavailableCyclesPerVN[vn]
		if down <= 0 || down >= rep.TrafficCycles/2 {
			t.Fatalf("victim %d down %d of %d cycles, want a bounded dip", vn, down, rep.TrafficCycles)
		}
		if rep.DeliveredPerVN[vn] == 0 {
			t.Fatalf("victim %d delivered nothing after recovery", vn)
		}
	}
	// Correctness is non-negotiable under failover: no oracle mismatches in
	// flight and no misforwards in the post-install audits.
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches during failover", rep.Mismatches)
	}
	if f.Audits == 0 || f.AuditProbes == 0 {
		t.Fatalf("no invariant audits ran: %+v", f)
	}
	if f.AuditMismatches != 0 {
		t.Fatalf("%d audit probes misforwarded", f.AuditMismatches)
	}
	for _, d := range f.PerDevice {
		if d.Device == f.Crashes[0].Device && d.State != "crashed" {
			t.Fatalf("crashed device reported %q", d.State)
		}
	}
}

func TestFleetOverCapacityDegradesGracefully(t *testing.T) {
	rep := runFleet(t, 4,
		"load=const:0.4,fleet=1,chaos=devcrash:1,cycles=8192,seed=11")
	f := rep.Fleet
	// One device, no spare: losing it strands every network. The run must
	// finish cleanly with per-network degradations, not an error.
	if len(f.Degraded) != 4 {
		t.Fatalf("degraded %+v, want all 4 networks", f.Degraded)
	}
	for _, d := range f.Degraded {
		if !strings.Contains(d.Reason, "no device capacity") {
			t.Fatalf("degradation reason %q", d.Reason)
		}
	}
	if f.MigrationsDone != 0 || f.MigrationAttempts != 0 {
		t.Fatalf("migrations ran with no survivors: %+v", f)
	}
	if rep.Recovered {
		t.Fatal("run reported recovered with every network degraded")
	}
	if !rep.Completed {
		t.Fatal("degraded run did not complete its drain")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches — degradation must drop, never misforward", rep.Mismatches)
	}
}

func TestFleetFlakyRetriesWithBackoff(t *testing.T) {
	rep := runFleet(t, 8,
		"load=const:0.4,fleet=2:spare=1,chaos=devcrash:1+flaky:2,cycles=16384,queue=32,seed=11")
	f := rep.Fleet
	// Both devices flaky: installs fail with p=0.75, so landing everything
	// requires the retry ladder.
	if f.MigrationFailures == 0 {
		t.Fatalf("flaky devices failed no installs: %+v", f)
	}
	if f.MigrationAttempts <= f.MigrationsDone {
		t.Fatalf("attempts %d vs done %d, want retries", f.MigrationAttempts, f.MigrationsDone)
	}
	retried := false
	for _, m := range f.Migrations {
		if m.Attempts != m.FailedAttempts+boolToInt(m.CommittedAt >= 0) {
			t.Fatalf("migration %+v attempt accounting inconsistent", m)
		}
		if m.FailedAttempts > 0 && m.CommittedAt >= 0 {
			retried = true
		}
	}
	if !retried {
		t.Skipf("seed produced no failed-then-landed migration: %+v", f.Migrations)
	}
	if rep.Mismatches != 0 || f.AuditMismatches != 0 {
		t.Fatalf("misforwards under flaky installs: %d/%d", rep.Mismatches, f.AuditMismatches)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestFleetFlagshipConserves(t *testing.T) {
	// The lookupsim smoke table's fleet flagship: both actives crash in
	// sequence, the spare takes the whole fleet, flaky installs retry and a
	// brownout window paces one device.
	rep := runFleet(t, 8,
		"load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=65536,queue=32,seed=2")
	if !rep.Completed {
		t.Fatal("flagship fleet run did not complete")
	}
	if len(rep.Fleet.Crashes) != 2 || rep.Fleet.SpareActivations == 0 {
		t.Fatalf("crashes %+v, spare activations %d: want both actives lost and the spare woken",
			rep.Fleet.Crashes, rep.Fleet.SpareActivations)
	}
	if rep.Mismatches != 0 || rep.Fleet.AuditMismatches != 0 {
		t.Fatalf("misforwards under failover: %d/%d", rep.Mismatches, rep.Fleet.AuditMismatches)
	}
}
