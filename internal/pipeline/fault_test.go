package pipeline

import (
	"math/rand"
	"testing"

	"vrpower/internal/ip"
)

func TestCompileSetsValidParity(t *testing.T) {
	img := compileSingle(t, genTable(t, 400, 11), 28)
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			e := &img.Stages[s].Entries[i]
			if e.Parity != e.DataParity() {
				t.Fatalf("stage %d entry %d: stored parity %d != computed %d", s, i, e.Parity, e.DataParity())
			}
		}
	}
	if s, _ := img.Corrupted(); len(s) != 0 {
		t.Errorf("fresh image reports %d corrupted words", len(s))
	}
}

func TestCloneIsDeep(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 12), 28)
	cl := img.Clone()
	stage, index, bit, ok := cl.Locate(cl.DataBits() / 2)
	if !ok {
		t.Fatal("Locate failed at mid-offset")
	}
	if !cl.FlipBit(stage, index, bit) {
		t.Fatal("FlipBit rejected in-range coordinates")
	}
	if s, _ := cl.Corrupted(); len(s) != 1 {
		t.Fatalf("clone reports %d corrupted words, want 1", len(s))
	}
	if s, _ := img.Corrupted(); len(s) != 0 {
		t.Errorf("flip in clone leaked into original (%d corrupted words)", len(s))
	}
}

func TestLocateCoversAllBits(t *testing.T) {
	img := compileSingle(t, genTable(t, 100, 13), 28)
	total := img.DataBits()
	if total <= 0 {
		t.Fatal("no data bits")
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		off := rng.Int63n(total)
		stage, index, bit, ok := img.Locate(off)
		if !ok {
			t.Fatalf("Locate(%d) failed with total %d", off, total)
		}
		e := &img.Stages[stage].Entries[index]
		if bit >= e.DataBits() {
			t.Fatalf("Locate(%d) bit %d >= entry width %d", off, bit, e.DataBits())
		}
	}
	if _, _, _, ok := img.Locate(total); ok {
		t.Error("Locate accepted offset == DataBits()")
	}
	if _, _, _, ok := img.Locate(-1); ok {
		t.Error("Locate accepted negative offset")
	}
}

func TestFlipBitTogglesParityAndBack(t *testing.T) {
	img := compileSingle(t, genTable(t, 200, 15), 28)
	stage, index, bit, _ := img.Locate(img.DataBits() / 3)
	e := &img.Stages[stage].Entries[index]
	img.FlipBit(stage, index, bit)
	if e.Parity == e.DataParity() {
		t.Fatal("single-bit flip left parity valid")
	}
	img.FlipBit(stage, index, bit) // flip back
	if e.Parity != e.DataParity() {
		t.Fatal("double flip of the same bit did not restore parity")
	}
	if img.FlipBit(len(img.Stages), 0, 0) {
		t.Error("FlipBit accepted out-of-range stage")
	}
	if img.FlipBit(0, uint32(len(img.Stages[0].Entries)), 0) {
		t.Error("FlipBit accepted out-of-range index")
	}
}

// TestParityCheckCatchesUpset: with parity checking on, a lookup that
// touches a flipped word terminates Faulted with NoRoute instead of
// returning a silently wrong next hop.
func TestParityCheckCatchesUpset(t *testing.T) {
	tbl := genTable(t, 500, 16)
	img := compileSingle(t, tbl, 28)
	// Corrupt the root so every lookup hits the upset.
	if !img.FlipBit(0, 0, 0) {
		t.Fatal("could not flip root entry")
	}
	sim := NewSim(img)
	sim.EnableParityCheck()
	results, st, err := sim.Run([]Request{{Addr: 0x0A000001}, {Addr: 0xC0A80101}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Faulted || r.NHI != ip.NoRoute {
			t.Errorf("result %d: Faulted=%v NHI=%d, want faulted NoRoute", i, r.Faulted, r.NHI)
		}
	}
	if st.Faults != int64(len(results)) {
		t.Errorf("Stats.Faults = %d, want %d", st.Faults, len(results))
	}
}

// TestParityCheckOffStillBoundsChecks: a corrupted child pointer pointing
// past the next stage's memory must not panic the simulator even without
// parity checking; the lookup faults instead.
func TestParityCheckOffStillBoundsChecks(t *testing.T) {
	tbl := genTable(t, 500, 17)
	img := compileSingle(t, tbl, 28)
	// Point the root's children far out of range.
	root := &img.Stages[0].Entries[0]
	if root.Leaf {
		t.Skip("root is a leaf in this build")
	}
	root.Child[0] = 1 << 20
	root.Child[1] = 1 << 20
	sim := NewSim(img)
	results, st, err := sim.Run([]Request{{Addr: 0x01020304}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Faulted || results[0].NHI != ip.NoRoute {
		t.Errorf("out-of-range pointer: Faulted=%v NHI=%d, want faulted NoRoute", results[0].Faulted, results[0].NHI)
	}
	if st.Faults == 0 {
		t.Error("Stats.Faults not bumped on out-of-range pointer")
	}
	// The stateless probe must survive it too.
	if got := Lookup(img, Request{Addr: 0x01020304}); got != ip.NoRoute {
		t.Errorf("Lookup on corrupt image NHI = %d, want NoRoute", got)
	}
}

// TestCleanRunHasNoFaults: parity checking on a pristine image changes
// nothing — same results, zero faults.
func TestCleanRunHasNoFaults(t *testing.T) {
	tbl := genTable(t, 600, 18)
	img := compileSingle(t, tbl, 28)
	ref := tbl.Reference()
	rng := rand.New(rand.NewSource(19))
	reqs := make([]Request, 1500)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32())}
	}
	sim := NewSim(img)
	sim.EnableParityCheck()
	results, st, err := sim.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != 0 {
		t.Errorf("clean image produced %d faults", st.Faults)
	}
	for i, r := range results {
		if r.Faulted {
			t.Fatalf("result %d faulted on a clean image", i)
		}
		if want := ref.Lookup(r.Addr); r.NHI != want {
			t.Fatalf("result %d: NHI %d, want %d", i, r.NHI, want)
		}
	}
}
