package pipeline

import (
	"math/rand"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

func genTable(t *testing.T, n int, seed int64) *rib.Table {
	t.Helper()
	tbl, err := rib.Generate("t", rib.DefaultGen(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func compileSingle(t *testing.T, tbl *rib.Table, stages int) *Image {
	t.Helper()
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	img, err := Compile(tr, stages)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestCompileRequiresLeafPush(t *testing.T) {
	tr := trie.Build(genTable(t, 50, 1).Routes)
	if _, err := Compile(tr, 28); err == nil {
		t.Error("Compile of non-leaf-pushed trie succeeded, want error")
	}
}

func TestCompileEntryCountsMatchTrie(t *testing.T) {
	tbl := genTable(t, 500, 2)
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	s := tr.Stats()
	img, err := Compile(tr, 28)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range img.Stages {
		total += len(st.Entries)
	}
	if total != s.Nodes {
		t.Errorf("image entries = %d, want trie nodes %d", total, s.Nodes)
	}
	if img.K != 1 {
		t.Errorf("K = %d, want 1", img.K)
	}
}

func TestPipelineLookupMatchesReference(t *testing.T) {
	tbl := genTable(t, 800, 3)
	img := compileSingle(t, tbl, 28)
	ref := tbl.Reference()
	rng := rand.New(rand.NewSource(4))
	reqs := make([]Request, 2000)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32())}
	}
	sim := NewSim(img)
	results, _, err := sim.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Addr != reqs[i].Addr {
			t.Fatalf("result %d out of order", i)
		}
		if want := ref.Lookup(r.Addr); r.NHI != want {
			t.Fatalf("lookup(%s) = %d, want %d", r.Addr, r.NHI, want)
		}
	}
}

func TestPipelineLatencyAndThroughput(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 5), 28)
	sim := NewSim(img)
	reqs := make([]Request, 100)
	rng := rand.New(rand.NewSource(6))
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32())}
	}
	results, st, err := sim.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if lat := r.ExitCycle - r.EnterCycle; lat != 28 {
			t.Fatalf("latency = %d cycles, want 28 (linear pipeline depth)", lat)
		}
	}
	// Back-to-back traffic: one lookup per cycle once full; total cycles =
	// len(reqs) + drain.
	if st.Cycles != int64(len(reqs)+28) {
		t.Errorf("cycles = %d, want %d", st.Cycles, len(reqs)+28)
	}
	if st.Lookups != int64(len(reqs)) {
		t.Errorf("lookups = %d, want %d", st.Lookups, len(reqs))
	}
}

func TestPipelineActivityTracksDutyCycle(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 7), 28)
	rng := rand.New(rand.NewSource(8))
	reqs := make([]Request, 200)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32())}
	}
	full := NewSim(img)
	_, stFull, err := full.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	quarter := NewSim(img)
	_, stQ, err := quarter.Run(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back traffic keeps every stage register occupied (the
	// duty-cycle µ ≈ 1); at 1/4 rate both occupancy and memory activity
	// fall roughly fourfold.
	of, oq := stFull.Occupancy(), stQ.Occupancy()
	if of < 0.8 {
		t.Errorf("full-rate occupancy %.2f, want near 1", of)
	}
	if oq > of/2 {
		t.Errorf("1/4-rate occupancy %.2f not well below full-rate %.2f", oq, of)
	}
	uf, uq := stFull.Utilization(), stQ.Utilization()
	if uf <= 0 || uq <= 0 {
		t.Fatalf("utilizations %g/%g, want > 0", uf, uq)
	}
	if ratio := uf / uq; ratio < 2.5 || ratio > 6 {
		t.Errorf("activity ratio full/quarter = %.2f, want ≈ 4", ratio)
	}
}

func TestPipelineInterarrivalValidation(t *testing.T) {
	img := compileSingle(t, genTable(t, 10, 9), 8)
	if _, _, err := NewSim(img).Run(nil, 0); err == nil {
		t.Error("interarrival 0 accepted")
	}
}

func TestMergedPipelineMatchesPerVNReference(t *testing.T) {
	set, err := rib.GenerateVirtualSet(4, 300, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := merge.Build(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	img, err := CompileMerged(m, 28)
	if err != nil {
		t.Fatal(err)
	}
	if img.K != 4 {
		t.Fatalf("K = %d, want 4", img.K)
	}
	refs := make([]*ip.Table, 4)
	for i, tbl := range set.Tables {
		refs[i] = tbl.Reference()
	}
	rng := rand.New(rand.NewSource(11))
	reqs := make([]Request, 1500)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32()), VN: rng.Intn(4)}
	}
	results, _, err := NewSim(img).Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if want := refs[r.VN].Lookup(r.Addr); r.NHI != want {
			t.Fatalf("vn %d lookup(%s) = %d, want %d", r.VN, r.Addr, r.NHI, want)
		}
	}
}

func TestMergedCompileRequiresLeafPush(t *testing.T) {
	set, err := rib.GenerateVirtualSet(2, 50, 0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := merge.Build(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileMerged(m, 28); err == nil {
		t.Error("CompileMerged of non-pushed trie succeeded, want error")
	}
}

func TestLookupOutOfRangeVN(t *testing.T) {
	img := compileSingle(t, genTable(t, 100, 13), 28)
	if got := Lookup(img, Request{Addr: 1, VN: 5}); got != ip.NoRoute {
		t.Errorf("out-of-range VN lookup = %d, want NoRoute", got)
	}
	if got := Lookup(img, Request{Addr: 1, VN: -1}); got != ip.NoRoute {
		t.Errorf("negative VN lookup = %d, want NoRoute", got)
	}
}

func TestMemLayoutStageBits(t *testing.T) {
	tbl := genTable(t, 500, 16)
	img := compileSingle(t, tbl, 28)
	l := DefaultLayout()
	all := l.AllStageBits(img)
	if len(all) != 28 {
		t.Fatalf("AllStageBits len = %d, want 28", len(all))
	}
	var sum int64
	for s := range all {
		if all[s] != l.StageBits(img, s) {
			t.Errorf("stage %d mismatch", s)
		}
		sum += all[s]
	}
	ptr, nhi := l.PointerAndNHIBits(img)
	if ptr+nhi != sum {
		t.Errorf("pointer %d + NHI %d != total %d", ptr, nhi, sum)
	}
	// Cross-check against trie shape: internal nodes cost 2x18b, leaves 8b.
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	st := tr.Stats()
	if want := int64(st.Internal) * 36; ptr != want {
		t.Errorf("pointer bits = %d, want %d", ptr, want)
	}
	if want := int64(st.Leaves) * 8; nhi != want {
		t.Errorf("NHI bits = %d, want %d", nhi, want)
	}
}

func TestMergedNHIScalesWithK(t *testing.T) {
	l := DefaultLayout()
	nhiFor := func(k int) int64 {
		set, err := rib.GenerateVirtualSet(k, 300, 1.0, 17)
		if err != nil {
			t.Fatal(err)
		}
		m, err := merge.Build(set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		m.LeafPush()
		img, err := CompileMerged(m, 28)
		if err != nil {
			t.Fatal(err)
		}
		_, nhi := l.PointerAndNHIBits(img)
		return nhi
	}
	n2, n4 := nhiFor(2), nhiFor(4)
	// Identical tables: same leaves, so NHI memory scales exactly with K.
	if n4 != 2*n2 {
		t.Errorf("NHI bits K=4 (%d) != 2x K=2 (%d) for identical tables", n4, n2)
	}
}

func TestSingleRouteTinyPipeline(t *testing.T) {
	tbl := &rib.Table{Name: "tiny"}
	p, _ := ip.ParsePrefix("128.0.0.0/1")
	tbl.Add(ip.Route{Prefix: p, NextHop: 3})
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	img, err := Compile(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := ip.ParseAddr("200.0.0.1")
	lo, _ := ip.ParseAddr("10.0.0.1")
	if got := Lookup(img, Request{Addr: hi}); got != 3 {
		t.Errorf("lookup high half = %d, want 3", got)
	}
	if got := Lookup(img, Request{Addr: lo}); got != ip.NoRoute {
		t.Errorf("lookup low half = %d, want NoRoute", got)
	}
}

func TestFoldedStageTraversal(t *testing.T) {
	// Force folding: trie deeper than stage count. All lookups must still
	// match the reference.
	tbl := genTable(t, 400, 18)
	img := compileSingle(t, tbl, 8) // heights ~26+ fold into 8 stages
	if img.Map.Folded() == 0 {
		t.Fatal("expected folded levels with 8 stages")
	}
	ref := tbl.Reference()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		addr := ip.Addr(rng.Uint32())
		if got, want := Lookup(img, Request{Addr: addr}), ref.Lookup(addr); got != want {
			t.Fatalf("folded lookup(%s) = %d, want %d", addr, got, want)
		}
	}
}

func TestIndirectNHILayout(t *testing.T) {
	set, err := rib.GenerateVirtualSet(6, 400, 0.9, 23)
	if err != nil {
		t.Fatal(err)
	}
	m, err := merge.Build(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	img, err := CompileMerged(m, 28)
	if err != nil {
		t.Fatal(err)
	}
	inline := DefaultLayout()
	indirect := MemLayout{PtrBits: 18, NHIBits: 8, IndirectNHI: true}

	if inline.NHITableBits(img) != 0 {
		t.Error("inline layout should have no vector table")
	}
	tbl := indirect.NHITableBits(img)
	if tbl <= 0 {
		t.Fatal("indirect layout missing vector table")
	}
	// Pointer memory must be identical between layouts.
	ptrA, nhiA := inline.PointerAndNHIBits(img)
	ptrB, nhiB := indirect.PointerAndNHIBits(img)
	if ptrA != ptrB {
		t.Errorf("pointer bits differ between layouts: %d vs %d", ptrA, ptrB)
	}
	// With high table overlap, few distinct vectors exist, so indirection
	// must save NHI memory at K=6 (48-bit vectors vs 18-bit indices).
	if nhiB >= nhiA {
		t.Errorf("indirect NHI %d not below inline %d for high-overlap merge", nhiB, nhiA)
	}
	// Total across stages must account for the table exactly once.
	var sum int64
	for s := range img.Stages {
		sum += indirect.StageBits(img, s)
	}
	if sum != ptrB+nhiB {
		t.Errorf("stage sum %d != ptr+nhi %d", sum, ptrB+nhiB)
	}
}
