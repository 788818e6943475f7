package netsim

import (
	"fmt"
	"math"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/packet"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
)

func buildSystem(t *testing.T, sc core.Scheme, k int) (*System, []*rib.Table) {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, 400, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: sc, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return s, set.Tables
}

func gen(t *testing.T, k int, tables []*rib.Table, n int) []traffic.Packet {
	t.Helper()
	g, err := traffic.New(traffic.Config{K: k, Seed: 13, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	return g.Batch(n)
}

func TestForwardZeroMismatchesAllSchemes(t *testing.T) {
	for _, sc := range core.Schemes() {
		s, tables := buildSystem(t, sc, 4)
		rep, err := s.Forward(gen(t, 4, tables, 3000))
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Mismatches != 0 {
			t.Errorf("%s: %d mismatches out of %d packets", sc, rep.Mismatches, rep.Packets)
		}
		if rep.Packets != 3000 {
			t.Errorf("%s: packets = %d", sc, rep.Packets)
		}
		// Routed traffic should essentially always match a prefix.
		if rep.NoRoute > rep.Packets/100 {
			t.Errorf("%s: %d no-route results for routed traffic", sc, rep.NoRoute)
		}
	}
}

func TestForwardUniformLoadSplit(t *testing.T) {
	s, tables := buildSystem(t, core.VS, 5)
	rep, err := s.Forward(gen(t, 5, tables, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EngineLoad) != 5 {
		t.Fatalf("engine load entries = %d", len(rep.EngineLoad))
	}
	for e, load := range rep.EngineLoad {
		if math.Abs(load-0.2) > 0.02 {
			t.Errorf("engine %d load %.3f, want 0.2 ± 0.02 (Assumption 1)", e, load)
		}
	}
}

func TestForwardMergedSingleEngine(t *testing.T) {
	s, tables := buildSystem(t, core.VM, 3)
	rep, err := s.Forward(gen(t, 3, tables, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EngineLoad) != 1 {
		t.Fatalf("merged scheme should have 1 engine, got %d", len(rep.EngineLoad))
	}
	if rep.EngineLoad[0] != 1.0 {
		t.Errorf("merged engine load %.2f, want 1.0 (time-shared)", rep.EngineLoad[0])
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d mismatches", rep.Mismatches)
	}
}

func TestForwardRejectsBadVN(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	if _, err := s.Forward([]traffic.Packet{{VN: 5}}); err == nil {
		t.Error("out-of-range VN accepted")
	}
}

func TestNewValidation(t *testing.T) {
	set, err := rib.GenerateVirtualSet(2, 100, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: 2, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(r, set.Tables[:1]); err == nil {
		t.Error("table count mismatch accepted")
	}
	// Analytic builds have no engines to simulate.
	prof, err := core.PaperProfile()
	if err != nil {
		t.Fatal(err)
	}
	ra, err := core.BuildAnalytic(core.Config{Scheme: core.VS, K: 2, ClockGating: true}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ra, set.Tables); err == nil {
		t.Error("analytic router accepted for simulation")
	}
}

func TestForwardEmpty(t *testing.T) {
	s, _ := buildSystem(t, core.NV, 2)
	rep, err := s.Forward(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != 0 || rep.Mismatches != 0 {
		t.Errorf("empty run report %+v", rep)
	}
}

func TestForwardFramesAllSchemes(t *testing.T) {
	for _, sc := range core.Schemes() {
		s, tables := buildSystem(t, sc, 3)
		g, err := traffic.New(traffic.Config{K: 3, Seed: 21, Addr: traffic.RoutedAddr, Tables: tables})
		if err != nil {
			t.Fatal(err)
		}
		frames, err := g.Frames(2000)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.ForwardFrames(frames)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Mismatches != 0 {
			t.Errorf("%s: %d lookup mismatches", sc, rep.Mismatches)
		}
		if rep.BadParse != 0 || rep.UnknownVN != 0 {
			t.Errorf("%s: unexpected drops: %+v", sc, rep)
		}
		if rep.Forwarded+rep.NoRoute+rep.TTLExpired != rep.Frames {
			t.Errorf("%s: counters don't sum: %+v", sc, rep)
		}
		if rep.Forwarded < rep.Frames*9/10 {
			t.Errorf("%s: only %d/%d forwarded", sc, rep.Forwarded, rep.Frames)
		}
	}
}

func TestForwardFramesEditsAreValid(t *testing.T) {
	s, tables := buildSystem(t, core.VM, 2)
	g, err := traffic.New(traffic.Config{K: 2, Seed: 22, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := g.Frames(500)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot TTLs before forwarding.
	ttls := make([]int, len(frames))
	for i, buf := range frames {
		f, err := packet.Parse(buf)
		if err != nil {
			t.Fatal(err)
		}
		ttls[i] = f.TTL
	}
	rep, err := s.ForwardFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
	// Every forwarded frame must re-parse with a valid checksum and a
	// decremented TTL; next-hop MACs must carry the 0x02FE prefix.
	edited := 0
	for i, buf := range frames {
		f, err := packet.Parse(buf)
		if err != nil {
			t.Fatalf("frame %d unparseable after forwarding: %v", i, err)
		}
		if f.TTL == ttls[i]-1 {
			edited++
			if f.Dst[0] != 0x02 || f.Dst[1] != 0xFE {
				t.Fatalf("frame %d: next-hop MAC %s not synthesised from NHI", i, f.Dst)
			}
		}
	}
	if edited != rep.Forwarded {
		t.Errorf("%d frames edited, report says %d forwarded", edited, rep.Forwarded)
	}
}

func TestForwardFramesDropCauses(t *testing.T) {
	s, tables := buildSystem(t, core.VS, 2)
	g, err := traffic.New(traffic.Config{K: 2, Seed: 23, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := g.Frames(10)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt frame 0 (bad checksum), retag frame 1 with an unknown VNID.
	frames[0][packet.EthHeaderLen+packet.VLANTagLen+16] ^= 0xFF
	frames[1][14] = 0x0F
	frames[1][15] = 0xFF // VID 4095 >> K
	rep, err := s.ForwardFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadParse != 1 {
		t.Errorf("BadParse = %d, want 1", rep.BadParse)
	}
	if rep.UnknownVN != 1 {
		t.Errorf("UnknownVN = %d, want 1", rep.UnknownVN)
	}
	if rep.Forwarded != 8 {
		t.Errorf("Forwarded = %d, want 8 (%+v)", rep.Forwarded, rep)
	}
}

// TestLoadTestValidation: the -load preset's bad inputs are spec errors, and
// a hand-built spec the parser never saw still fails cleanly at run time.
func TestLoadTestValidation(t *testing.T) {
	for _, bad := range []string{"load=const:-0.1", "load=const:1.5", "load=const:0.5,queue=0"} {
		if _, err := scenario.Parse(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	s, _ := buildSystem(t, core.VS, 2)
	spec := scenario.Spec{Load: scenario.LoadShape{Kind: scenario.LoadConst, P0: 0.5}, Slice: 1024, Queue: 16}
	if _, err := s.RunScenario(faultGen(t, s, 31), spec); err == nil {
		t.Error("zero-cycle run accepted")
	}
}

// TestLoadSharingLimitation reproduces the Section IV-C merged drawback:
// below the shared capacity both schemes deliver everything; past it, the
// merged engine drops while the separate engines still keep up.
func TestLoadSharingLimitation(t *testing.T) {
	const k = 4
	set, err := rib.GenerateVirtualSet(k, 300, 0.5, 32)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc core.Scheme, load float64) *ScenarioReport {
		r, err := core.Build(core.Config{Scheme: sc, K: k, ClockGating: true}, set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(r, set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		g, err := traffic.New(traffic.Config{K: k, Seed: 33, Addr: traffic.RoutedAddr, Tables: set.Tables})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunScenario(g, mustParse(t, fmt.Sprintf("load=const:%g,queue=64,cycles=20000", load)))
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, rep)
		return &rep
	}

	// Light load (10% per VN -> 40% aggregate): both deliver ~everything.
	if f := run(core.VS, 0.10).DeliveredFraction(); f < 0.99 {
		t.Errorf("VS at light load delivered %.3f, want ~1", f)
	}
	if f := run(core.VM, 0.10).DeliveredFraction(); f < 0.99 {
		t.Errorf("VM at light load delivered %.3f, want ~1", f)
	}

	// Heavy load (60% per VN -> 2.4x the merged engine's capacity): the
	// separate scheme still absorbs it (each engine sees only 0.6), the
	// merged one cannot exceed 1/2.4 ≈ 0.42 of the offered traffic.
	heavyVS := run(core.VS, 0.60)
	heavyVM := run(core.VM, 0.60)
	if f := heavyVS.DeliveredFraction(); f < 0.99 {
		t.Errorf("VS at heavy load delivered %.3f, want ~1 (dedicated engines)", f)
	}
	fVM := heavyVM.DeliveredFraction()
	if fVM > 0.50 || fVM < 0.35 {
		t.Errorf("VM at heavy load delivered %.3f, want ≈ 1/(K·load) = 0.42", fVM)
	}
	var drops int64
	for _, d := range heavyVM.DroppedPerVN {
		drops += d
	}
	if drops == 0 {
		t.Error("VM at heavy load dropped nothing")
	}
	// Queueing delay must blow up at saturation relative to light load.
	if heavyVM.MeanDelayCycles < 2*run(core.VM, 0.10).MeanDelayCycles {
		t.Errorf("VM saturation delay %.1f not well above light-load delay", heavyVM.MeanDelayCycles)
	}
}

// TestLoadTestFairSaturation: the merged engine's round-robin ingress must
// split its capacity evenly across networks when all are overloaded.
func TestLoadTestFairSaturation(t *testing.T) {
	const k = 4
	set, err := rib.GenerateVirtualSet(k, 200, 0.5, 51)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VM, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.New(traffic.Config{K: k, Seed: 52, Addr: traffic.RoutedAddr, Tables: set.Tables})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunScenario(g, mustParse(t, "load=const:0.8,queue=32,cycles=20000"))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	var min, max int64 = 1 << 62, 0
	for _, d := range rep.DeliveredPerVN {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min == 0 || float64(max-min)/float64(max) > 0.02 {
		t.Errorf("saturated merged delivery unfair: min %d, max %d", min, max)
	}
}
