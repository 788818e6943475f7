package pipeline

import "vrpower/internal/ip"

// Flat image: the struct-of-arrays compile of an Image that the batched
// engine sweeps, private to BatchSim. The pointer-rich Entry records (≈56 bytes each, with the
// NHI vector behind a slice header and the parity bit recomputed on every
// checked access) are flattened once into contiguous per-stage word slices:
//
//   - meta:  one uint16 per entry packing the trie level, the leaf flag,
//     the precomputed parity verdict and the fold flag (child level maps to
//     this same stage) — everything the walk branches on.
//   - child: one [2]uint32 per entry. Internal nodes store the two child
//     indices; leaves reuse the pair as {offset into the NHI slab, vector
//     length}.
//   - nhi:   all leaf next-hop vectors, back to back, in stage-then-index
//     order (stride K for compiled images).
//
// A stage access then touches two small parallel slices instead of a wide
// struct, and the parity comparison — a popcount loop over the NHI vector in
// the scalar path — collapses to a single precomputed bit. The flat image is
// a snapshot: it reflects the Image at NewBatchSim time, so fault injection
// that mutates the source Image afterwards is invisible to that engine (the
// batched engine is the pristine-image fast path; faulted engines keep the
// scalar oracle).
//
// Internal nodes store the precomputed shift amount 31-level (≤ 31, so the
// hot loop's address-bit extract masks with 0x1F and the compiler can prove
// the shift in range — no masking cmov). Leaves store the raw level; they
// never shift.
const (
	metaLevelMask uint16 = 0x3F   // trie level (leaves) / 31-level shift (internal)
	metaShiftMask uint16 = 0x1F   // internal-node shift amount, provably < 32
	metaLeaf      uint16 = 1 << 6 // entry resolves the lookup
	metaParityBad uint16 = 1 << 7 // stored parity ≠ data parity at flatten time
	metaFold      uint16 = 1 << 8 // child level maps to this same stage
)

// flatStage is one stage memory in struct-of-arrays form. visits is the
// number of trie levels folded into the stage — the uniform step count every
// unresolved flight performs while in it (the StageMap's contiguity, pinned
// by TestStageMapContiguity, guarantees the levels form one run) — which
// lets the batched sweep drive the intra-stage walk with a fixed trip count
// instead of a per-entry fold branch.
type flatStage struct {
	meta   []uint16
	child  [][2]uint32
	visits int
}

// flatImage is a data-oriented snapshot of a compiled Image, immutable once
// built.
type flatImage struct {
	stages []flatStage
	nhi    []ip.NextHop
}

// flatten builds the struct-of-arrays snapshot of img. The source image is
// not retained; mutating it afterwards (FlipBit) does not affect the flat
// image.
func flatten(img *Image) *flatImage {
	f := &flatImage{stages: make([]flatStage, len(img.Stages))}
	words := 0
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			if img.Stages[s].Entries[i].Leaf {
				words += len(img.Stages[s].Entries[i].NHI)
			}
		}
	}
	f.nhi = make([]ip.NextHop, 0, words)
	for s := range img.Stages {
		entries := img.Stages[s].Entries
		fs := flatStage{
			meta:  make([]uint16, len(entries)),
			child: make([][2]uint32, len(entries)),
			// At least one visit even for an empty stage, so a flight
			// arriving there trips the same out-of-range fault the scalar
			// engine raises.
			visits: 1,
		}
		lo, hi := -1, -1
		for i := range entries {
			l := entries[i].Level
			if lo == -1 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if lo != -1 {
			fs.visits = hi - lo + 1
		}
		for i := range entries {
			e := &entries[i]
			var m uint16
			if e.Parity != e.DataParity() {
				m |= metaParityBad
			}
			if e.Leaf {
				m |= metaLeaf | uint16(e.Level)&metaLevelMask
				fs.child[i] = [2]uint32{uint32(len(f.nhi)), uint32(len(e.NHI))}
				f.nhi = append(f.nhi, e.NHI...)
			} else {
				// Internal nodes consume one address bit; levels beyond 31
				// cannot have children in a 32-bit trie.
				m |= uint16(31-e.Level) & metaShiftMask
				fs.child[i] = e.Child
				if img.Map.Stage(e.Level+1) == s {
					m |= metaFold
				}
			}
			fs.meta[i] = m
		}
		f.stages[s] = fs
	}
	return f
}
