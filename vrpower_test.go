// Integration tests over the public facade: every deliverable exercised
// end-to-end the way a downstream user would drive it.
package vrpower_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"vrpower"
)

func testTables(t *testing.T, k, n int, share float64, seed int64) []*vrpower.Table {
	t.Helper()
	set, err := vrpower.GenerateVirtualSet(k, n, share, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set.Tables
}

func TestFacadeQuickstartFlow(t *testing.T) {
	tables := testTables(t, 4, 500, 0.5, 1)
	r, err := vrpower.Build(vrpower.Config{
		Scheme: vrpower.VS, K: 4, Grade: vrpower.Grade2, ClockGating: true,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	model, err := r.ModelPower()
	if err != nil {
		t.Fatal(err)
	}
	measured, err := r.MeasuredPower(vrpower.NewAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vrpower.PercentError(model.Total(), measured.Total())) > 3 {
		t.Errorf("facade model error %.2f%% outside the paper's ±3%%",
			vrpower.PercentError(model.Total(), measured.Total()))
	}
	if r.ThroughputGbps() <= 0 || r.Fmax() <= 0 {
		t.Error("throughput/fmax not populated")
	}

	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 4, Seed: 2, Addr: vrpower.RoutedAddr, Tables: tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vrpower.NewForwarding(r, tables)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Forward(gen.Batch(2000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d forwarding mismatches through the facade", rep.Mismatches)
	}
}

func TestFacadeTableSerialisation(t *testing.T) {
	tbl, err := vrpower.Generate("t", vrpower.DefaultGen(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := vrpower.ReadTable("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Errorf("round trip %d != %d", back.Len(), tbl.Len())
	}
}

func TestFacadeAnalyticAndMemory(t *testing.T) {
	prof, err := vrpower.PaperProfile()
	if err != nil {
		t.Fatal(err)
	}
	r, err := vrpower.BuildAnalytic(vrpower.Config{
		Scheme: vrpower.VM, K: 8, ClockGating: true,
	}, prof, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.PointerBits() <= 0 || r.NHIBits() <= 0 {
		t.Error("analytic memory split missing")
	}
	ptr, nhi, err := vrpower.MemoryDemand(vrpower.Config{Scheme: vrpower.VM, K: 8}, prof, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ptr <= 0 || nhi <= 0 {
		t.Error("MemoryDemand returned zeros")
	}
	if got := vrpower.AnalyticMergedNodes(8, 1000, 1); got != 1000 {
		t.Errorf("AnalyticMergedNodes(α=1) = %g, want 1000", got)
	}
}

func TestFacadePowerPrimitives(t *testing.T) {
	if vrpower.StaticWatts(vrpower.Grade2) != 4.5 {
		t.Error("StaticWatts(-2) != 4.5")
	}
	w := vrpower.BRAMWatts(vrpower.Grade2, vrpower.BRAM18Mode, 1, 300)
	if math.Abs(w-13.65*300e-6) > 1e-12 {
		t.Errorf("BRAMWatts = %g", w)
	}
	if vrpower.LogicStageWatts(vrpower.Grade1L, 100) <= 0 {
		t.Error("LogicStageWatts <= 0")
	}
	if vrpower.MilliwattsPerGbps(1, 10) != 100 {
		t.Error("MilliwattsPerGbps wrong")
	}
	if len(vrpower.Grades()) != 2 || len(vrpower.Schemes()) != 3 {
		t.Error("enumerations wrong")
	}
	if vrpower.XC6VLX760().IOPins != 1200 {
		t.Error("device wrong")
	}
	if len(vrpower.DeviceFamily()) != 6 {
		t.Error("device family wrong")
	}
	if vrpower.ThroughputGbps(312.5, 1) != 100 {
		t.Error("throughput conversion wrong")
	}
}

func TestFacadeTrieAndMerge(t *testing.T) {
	tables := testTables(t, 3, 200, 0.6, 4)
	tr := vrpower.BuildTrie(tables[0].Routes)
	ref := tables[0].Reference()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		addr := vrpower.Addr(rng.Uint32())
		if tr.Lookup(addr) != ref.Lookup(addr) {
			t.Fatal("facade trie lookup mismatch")
		}
	}
	m, err := vrpower.MergeTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	if a := m.Stats().Alpha; a <= 0 || a > 1 {
		t.Errorf("merged α = %g", a)
	}
}

func TestFacadeMultibitAndTCAM(t *testing.T) {
	tbl, err := vrpower.Generate("t", vrpower.DefaultGen(400, 6))
	if err != nil {
		t.Fatal(err)
	}
	ref := tbl.Reference()
	mt, err := vrpower.BuildMultibit(tbl.Routes, 4)
	if err != nil {
		t.Fatal(err)
	}
	tc := vrpower.BuildTCAM(tbl)
	pt, err := vrpower.BuildPartitionedTCAM(tbl, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 800; i++ {
		addr := vrpower.Addr(rng.Uint32())
		want := ref.Lookup(addr)
		if mt.Lookup(addr) != want {
			t.Fatal("multibit mismatch")
		}
		if tc.Lookup(addr) != want {
			t.Fatal("TCAM mismatch")
		}
		if pt.Lookup(addr) != want {
			t.Fatal("partitioned TCAM mismatch")
		}
	}
	pm := vrpower.DefaultTCAMPower()
	if pm.DynamicWatts(tc, 150) <= pm.DynamicWatts(pt, 150) {
		t.Error("partitioned TCAM should fire fewer cells")
	}
}

func TestFacadeMultiway(t *testing.T) {
	tbl, err := vrpower.Generate("t", vrpower.DefaultGen(600, 8))
	if err != nil {
		t.Fatal(err)
	}
	e, err := vrpower.BuildMultiway(tbl, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := tbl.Reference()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 800; i++ {
		addr := vrpower.Addr(rng.Uint32())
		if e.Lookup(addr) != ref.Lookup(addr) {
			t.Fatal("multiway mismatch")
		}
	}
}

func TestFacadeLifecycleAndChurn(t *testing.T) {
	tables := testTables(t, 2, 300, 0.5, 10)
	mgr, err := vrpower.NewManager(vrpower.Config{
		Scheme: vrpower.VM, ClockGating: true,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := vrpower.Generate("extra", vrpower.DefaultGen(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mgr.AddNetwork(extra)
	if err != nil {
		t.Fatal(err)
	}
	if ev.K != 3 {
		t.Errorf("K after add = %d", ev.K)
	}
	ops, err := vrpower.GenerateChurn(mgr.Tables()[0], 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	ev, err = mgr.ApplyUpdates(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Writes <= 0 {
		t.Error("update writes missing")
	}
	updated := vrpower.ApplyChurn(tables[0], ops)
	if updated == tables[0] {
		t.Error("ApplyChurn should return a new table")
	}
}

func TestFacadeFramesAndScheduler(t *testing.T) {
	src, _ := vrpower.ParseAddr("10.0.0.1")
	dst, _ := vrpower.ParseAddr("192.168.1.1")
	buf, err := vrpower.BuildFrame(vrpower.MAC{0x02, 0, 0, 0, 0, 1}, vrpower.MAC{0x02, 0, 0, 0, 0, 2},
		5, 0, src, dst, 64, 20)
	if err != nil {
		t.Fatal(err)
	}
	f, err := vrpower.ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.VNID != 5 || f.DstIP != dst {
		t.Errorf("frame fields wrong: %+v", f)
	}

	s, err := vrpower.NewScheduler(vrpower.SchedConfig{K: 2, Discipline: vrpower.DRR})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Enqueue(vrpower.SchedPacket{VN: i % 2, Bytes: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Drain()); got != 10 {
		t.Errorf("drained %d, want 10", got)
	}
}

func TestFacadeImageDiff(t *testing.T) {
	tbl, err := vrpower.Generate("t", vrpower.DefaultGen(300, 13))
	if err != nil {
		t.Fatal(err)
	}
	build := func(tb *vrpower.Table) *vrpower.Image {
		r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VS, K: 1, ClockGating: true}, []*vrpower.Table{tb})
		if err != nil {
			t.Fatal(err)
		}
		return r.Images()[0]
	}
	a := build(tbl)
	writes, err := vrpower.DiffImages(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 0 || vrpower.BubbleCount(writes) != 0 {
		t.Error("self-diff should be empty")
	}
}

func TestFacadeBraidingAndLoad(t *testing.T) {
	tables := testTables(t, 3, 250, 0.3, 20)
	bt, err := vrpower.BraidTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*vrpower.Table, 3)
	_ = refs
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		addr := vrpower.Addr(rng.Uint32())
		vn := rng.Intn(3)
		if bt.Lookup(vn, addr) != tables[vn].Reference().Lookup(addr) {
			t.Fatal("braided facade lookup mismatch")
		}
	}
	if bt.Stats().Alpha <= 0 {
		t.Error("braided α missing")
	}

	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VM, K: 3, ClockGating: true}, tables)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vrpower.NewForwarding(r, tables)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{K: 3, Seed: 22, Addr: vrpower.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := vrpower.ParseScenario("load=const:0.1,queue=32,cycles=5000")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredFraction() < 0.99 {
		t.Errorf("light-load delivered %.3f", rep.DeliveredFraction())
	}
}

func TestFacadePlanner(t *testing.T) {
	prof, err := vrpower.PaperProfile()
	if err != nil {
		t.Fatal(err)
	}
	best, err := vrpower.BestPlan(vrpower.PlanRequirements{
		K: 4, PerVNGbps: 5, Profile: prof, Alpha: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.MeasuredW <= 0 || best.GuaranteedPerVNGbps < 5 {
		t.Errorf("best plan implausible: %+v", best)
	}
	cands, err := vrpower.Plan(vrpower.PlanRequirements{K: 4, PerVNGbps: 5, Profile: prof, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(vrpower.PlanFrontier(cands)) == 0 {
		t.Error("empty frontier")
	}
}

func TestFacadeEmitRTL(t *testing.T) {
	tbl, err := vrpower.Generate("t", vrpower.DefaultGen(150, 30))
	if err != nil {
		t.Fatal(err)
	}
	tr := vrpower.BuildTrie(tbl.Routes)
	tr.LeafPush()
	// One level per stage, the RTL backend's requirement.
	stages := tr.Stats().Height + 1
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VS, K: 1, Stages: stages, ClockGating: true},
		[]*vrpower.Table{tbl})
	if err != nil {
		t.Fatal(err)
	}
	d, err := vrpower.EmitRTL(r.Images()[0], vrpower.DefaultLayout(), "t", []vrpower.Request{{Addr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Files) < stages {
		t.Errorf("RTL bundle has %d files for %d stages", len(d.Files), stages)
	}
}
