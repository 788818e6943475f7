package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
	"vrpower/internal/trie"
)

// compileMerged builds a K-network merged image for the differential tests.
func compileMerged(t *testing.T, k, prefixes int, seed int64, stages int) *Image {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := merge.Build(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	img, err := CompileMerged(m, stages)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// randReqs draws addresses uniformly (hitting routed and unrouted space)
// with VNs spanning [-1, k+1) to cover the out-of-range NHI path, and marks
// a sprinkling of flights traced.
func randReqs(rng *rand.Rand, n, k int, traceEvery int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32()), VN: rng.Intn(k+2) - 1}
		if traceEvery > 0 && i%traceEvery == 0 {
			reqs[i].Trace = true
		}
	}
	return reqs
}

// diffRun asserts the batched engine reproduces the scalar oracle byte for
// byte on one request stream: every Result field (NHI, Faulted, cycle
// stamps, the traced visit log) and the full Stats struct.
func diffRun(t *testing.T, scalar *Sim, batched *BatchSim, reqs []Request, interarrival int) {
	t.Helper()
	want, wantSt, err := scalar.Run(reqs, interarrival)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := batched.Run(reqs, interarrival)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batched returned %d results, scalar %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("result %d diverges:\nbatched %+v\nscalar  %+v", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("stats diverge:\nbatched %+v\nscalar  %+v", gotSt, wantSt)
	}
}

// TestBatchedMatchesScalarRandomImages is the tentpole's differential
// proof: across randomized single-network and merged images, pipeline
// depths, interarrival gaps, parity settings and traced flights, batched
// results are byte-identical to the scalar cycle-accurate oracle —
// including across back-to-back Run calls on the same engines, which must
// accumulate cycle clocks and stats identically.
func TestBatchedMatchesScalarRandomImages(t *testing.T) {
	cases := []struct {
		name     string
		k        int
		prefixes int
		seed     int64
		stages   int
		parity   bool
		gap      int
	}{
		{"single/28", 1, 400, 3, 28, false, 1},
		{"single/8-folded", 1, 600, 4, 8, false, 1},
		{"single/33-deep", 1, 250, 5, 33, true, 1},
		{"merged/16", 4, 300, 6, 16, false, 1},
		{"merged/28-parity", 3, 500, 7, 28, true, 1},
		{"merged/28-gap3", 3, 350, 8, 28, false, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var img *Image
			if tc.k == 1 {
				img = compileSingle(t, genTable(t, tc.prefixes, tc.seed), tc.stages)
			} else {
				img = compileMerged(t, tc.k, tc.prefixes, tc.seed, tc.stages)
			}
			scalar := NewSim(img)
			batched := NewBatchSim(img)
			if tc.parity {
				scalar.EnableParityCheck()
				batched.EnableParityCheck()
			}
			rng := rand.New(rand.NewSource(tc.seed * 11))
			diffRun(t, scalar, batched, randReqs(rng, 1500, tc.k, 97), tc.gap)
			// Second run on the same engines: clocks and stats accumulate.
			diffRun(t, scalar, batched, randReqs(rng, 700, tc.k, 83), tc.gap)
		})
	}
}

// TestBatchedMatchesScalarOnFaultedImages covers the two fault classes: an
// SEU-corrupted word caught by parity, and an in-parity child pointer that
// escapes every stage's address range.
func TestBatchedMatchesScalarOnFaultedImages(t *testing.T) {
	t.Run("parity", func(t *testing.T) {
		img := compileMerged(t, 3, 400, 21, 28)
		rng := rand.New(rand.NewSource(22))
		// Flip bits across the image; stale parity is the upset's signature.
		for i := 0; i < 40; i++ {
			s, idx, bit, ok := img.Locate(rng.Int63n(img.DataBits()))
			if !ok {
				t.Fatal("Locate failed in range")
			}
			img.FlipBit(s, idx, bit)
		}
		scalar, batched := NewSim(img), NewBatchSim(img)
		scalar.EnableParityCheck()
		batched.EnableParityCheck()
		reqs := randReqs(rng, 3000, 3, 59)
		diffRun(t, scalar, batched, reqs, 1)
		if scalar.Stats().Faults == 0 {
			t.Error("fault campaign never hit a corrupted word; weaken the test")
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		img := compileSingle(t, genTable(t, 500, 23), 28)
		// Corrupt child pointers to indices no stage holds, and re-stamp
		// parity so only the address-range check can catch them.
		n := 0
		for s := range img.Stages {
			for i := range img.Stages[s].Entries {
				e := &img.Stages[s].Entries[i]
				if !e.Leaf && i%17 == 0 {
					e.Child[0] = 1 << 29
					e.Parity = e.DataParity()
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("no internal entries corrupted")
		}
		scalar, batched := NewSim(img), NewBatchSim(img)
		rng := rand.New(rand.NewSource(24))
		diffRun(t, scalar, batched, randReqs(rng, 3000, 1, 71), 1)
		if scalar.Stats().Faults == 0 {
			t.Error("no lookup crossed a corrupted pointer; weaken the test")
		}
	})
}

// TestBatchedShardedMatchesUnsharded proves the sharded coordinator changes
// nothing observable: results and stats equal the unsharded batched run
// (itself scalar-identical) at several worker counts.
func TestBatchedShardedMatchesUnsharded(t *testing.T) {
	img := compileMerged(t, 4, 500, 31, 28)
	rng := rand.New(rand.NewSource(32))
	reqs := randReqs(rng, 6000, 4, 101)
	ref := NewBatchSim(img)
	want, wantSt, err := ref.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		sweep.SetWorkers(workers)
		sh := NewBatchSim(img)
		got, gotSt, err := sh.RunSharded(reqs)
		sweep.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sharded results diverge from unsharded", workers)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("workers=%d: sharded stats %+v, want %+v", workers, gotSt, wantSt)
		}
	}
}

// TestBatchedUntracedPathAllocationFree pins the tentpole's zero-allocs
// claim: with a warm arena and a pre-sized result buffer, the untraced
// batched path performs no per-run heap allocations.
func TestBatchedUntracedPathAllocationFree(t *testing.T) {
	img := compileSingle(t, genTable(t, 500, 41), 28)
	rng := rand.New(rand.NewSource(42))
	reqs := randReqs(rng, 2048, 1, 0)
	sim := NewBatchSim(img)
	dst := make([]Result, 0, len(reqs))
	// Warm the arena.
	if _, _, err := sim.RunAppend(dst[:0], reqs, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sim.Reset()
		if _, _, err := sim.RunAppend(dst[:0], reqs, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced batched run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScalarResetMatchesFresh verifies Sim.Reset restores post-NewSim
// behaviour: a used-then-reset simulator reproduces a fresh one exactly.
func TestScalarResetMatchesFresh(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 51), 16)
	rng := rand.New(rand.NewSource(52))
	reqs := randReqs(rng, 800, 1, 61)

	fresh := NewSim(img)
	want, wantSt, err := fresh.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}

	used := NewSim(img)
	if _, _, err := used.Run(randReqs(rng, 500, 1, 0), 2); err != nil {
		t.Fatal(err)
	}
	used.Reset()
	got, gotSt, err := used.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reset simulator's results diverge from a fresh one")
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("reset simulator's stats %+v, want %+v", gotSt, wantSt)
	}

	// BatchSim.Reset: same property.
	bFresh, bUsed := NewBatchSim(img), NewBatchSim(img)
	bWant, bWantSt, err := bFresh.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bUsed.Run(randReqs(rng, 500, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	bUsed.Reset()
	bGot, bGotSt, err := bUsed.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bGot, bWant) || !reflect.DeepEqual(bGotSt, bWantSt) {
		t.Fatal("reset batched engine diverges from a fresh one")
	}
}

// TestBatchedRejectsBadInterarrival mirrors the scalar contract.
func TestBatchedRejectsBadInterarrival(t *testing.T) {
	img := compileSingle(t, genTable(t, 50, 61), 8)
	if _, _, err := NewBatchSim(img).Run(nil, 0); err == nil {
		t.Error("interarrival 0 accepted, want error")
	}
}

// TestBatchedEmptyRunDrains: a zero-request run still advances the drain
// cycles, as the scalar loop does.
func TestBatchedEmptyRunDrains(t *testing.T) {
	img := compileSingle(t, genTable(t, 50, 62), 8)
	scalar, batched := NewSim(img), NewBatchSim(img)
	diffRun(t, scalar, batched, nil, 1)
}

// TestLookupMatchesSimulator pins the stateless Lookup walk and the bulk
// Lookups batch to the cycle-accurate oracle, on a pristine merged image and
// on one whose child pointers escape the stage address ranges (parity
// re-stamped, so only the range check catches them), and pins Lookup's
// zero allocations.
func TestLookupMatchesSimulator(t *testing.T) {
	img := compileMerged(t, 3, 400, 71, 28)
	rng := rand.New(rand.NewSource(72))
	reqs := randReqs(rng, 1200, 3, 0)
	want, _, err := NewSim(img).Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	bulk := Lookups(img, reqs)
	for i, req := range reqs {
		if got := Lookup(img, req); got != want[i].NHI {
			t.Fatalf("Lookup(%s, vn=%d) = %d, simulator says %d", req.Addr, req.VN, got, want[i].NHI)
		}
		if bulk[i] != want[i].NHI {
			t.Fatalf("Lookups[%d] = %d, simulator says %d", i, bulk[i], want[i].NHI)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Lookup(img, reqs[0]) }); allocs != 0 {
		t.Errorf("Lookup allocates %.1f objects/op, want 0", allocs)
	}

	faulty := compileSingle(t, genTable(t, 400, 73), 28)
	n := 0
	for s := range faulty.Stages {
		for i := range faulty.Stages[s].Entries {
			e := &faulty.Stages[s].Entries[i]
			if !e.Leaf && i%13 == 0 {
				e.Child[1] = 1 << 29
				e.Parity = e.DataParity()
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no internal entries corrupted")
	}
	reqs = randReqs(rng, 2000, 1, 0)
	want, _, err = NewSim(faulty).Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for i, req := range reqs {
		if got := Lookup(faulty, req); got != want[i].NHI {
			t.Fatalf("faulted image: Lookup(%s) = %d, simulator says %d", req.Addr, got, want[i].NHI)
		}
		if want[i].Faulted {
			faulted++
		}
	}
	if faulted == 0 {
		t.Error("no lookup crossed a corrupted pointer; weaken the test")
	}
}

// TestFlattenSnapshotsImage: mutating the source image after NewBatchSim
// must not leak into the engine's flat snapshot.
func TestFlattenSnapshotsImage(t *testing.T) {
	img := compileSingle(t, genTable(t, 200, 81), 16)
	batched := NewBatchSim(img)
	scalar := NewSim(img.Clone())
	// Corrupt the live image after the snapshot was taken.
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			e := &img.Stages[s].Entries[i]
			if !e.Leaf {
				e.Child[0] = 1 << 29
			}
		}
	}
	rng := rand.New(rand.NewSource(82))
	diffRun(t, scalar, batched, randReqs(rng, 500, 1, 0), 1)
}

// TestStageMapContiguity documents the invariant the batched sweep relies
// on: a lookup never needs to revisit an earlier stage, because compiled
// level→stage maps are monotone with unit steps.
func TestStageMapContiguity(t *testing.T) {
	for _, stages := range []int{1, 8, 28, 33} {
		sm, err := trie.NewStageMap(stages, 32)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for lv := 0; lv <= 33; lv++ {
			s := sm.Stage(lv)
			if s < prev || s > prev+1 {
				t.Fatalf("stages=%d: Stage(%d)=%d after Stage(%d)=%d, want monotone unit steps", stages, lv, s, lv-1, prev)
			}
			prev = s
		}
	}
}
