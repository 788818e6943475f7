package pipeline

import (
	"fmt"

	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/sweep"
)

// batchFlights is the per-slice batch width: the flight arena for one slice
// (index, address, VN, next hop, fault flag ≈ 20 bytes per flight) stays
// resident in L1 while a stage sweep streams the stage's word slices past
// it.
const batchFlights = 512

// shardMinReqs is the smallest request count RunSharded splits; below it the
// fan-out overhead beats the parallelism.
const shardMinReqs = 2 * batchFlights

// Per-request flags, indexed by position within the chunk.
const (
	flagFaulted uint8 = 1 // flight terminated by a detected memory fault
	flagTraced  uint8 = 2 // request took the recording path; result already written
)

// bFlight is one in-flight lookup in the arena: 16 bytes, four to a cache
// line, compacted in place as flights resolve so the live set is always a
// dense sequential stream.
type bFlight struct {
	addr uint32 // destination address
	idx  uint32 // current entry index in the current stage
	pos  int32  // request's position within the chunk
	vn   int32  // virtual network (out-of-int32 VNs clamp to -1: same no-route verdict)
}

// batchScratch is one worker's flight arena: index-based flight records in a
// flat slice plus per-position result slots, reused across runs, so the
// untraced batched path performs zero per-lookup heap allocations (the
// scalar engine's pooled *flight objects become plain array slots).
type batchScratch struct {
	fl   []bFlight    // live flights, dense, compacted every sweep step
	nhi  []ip.NextHop // resolved next hop, by chunk position
	flag []uint8      // flagFaulted / flagTraced, by chunk position
	last []uint8      // deepest active stage (Result.LastStage), by chunk position
}

func (sc *batchScratch) ensure(n int) {
	if cap(sc.fl) >= n {
		return
	}
	sc.fl = make([]bFlight, n)
	sc.nhi = make([]ip.NextHop, n)
	sc.flag = make([]uint8, n)
	sc.last = make([]uint8, n)
}

// BatchSim is the batched, data-oriented lookup engine: the same
// request→result semantics as the scalar Sim under Run — next hops, fault
// verdicts, cycle stamps and Stats are byte-identical, which the
// differential and fuzz tests enforce — but executed as per-slice batches
// that sweep each stage's flattened word slices across all in-flight
// lookups together, instead of simulating one pipeline register shift per
// cycle.
//
// Because a non-bubbled pipeline's timing is fully determined by the
// arrival schedule (request i enters at now+i·g and exits exactly Stages
// cycles later, every stage is occupied for exactly one cycle per lookup),
// the cycle accounting is computed in closed form while the data-dependent
// part — the trie walk and the per-stage activity counts — runs in the
// cache-friendly sweep. Traced lookups take a separate recording path, as
// in the scalar engine, so tracing support costs the hot loop nothing.
//
// BatchSim does not model hitless updates or write bubbles; engines with an
// update in flight stay on the scalar Sim, the cycle-accurate oracle.
type BatchSim struct {
	flat    *flatImage
	nStages int
	parity  bool
	now     int64
	st      Stats
	scratch batchScratch
}

// NewBatchSim flattens img and returns a batched engine over the snapshot.
func NewBatchSim(img *Image) *BatchSim {
	return &BatchSim{
		flat:    flatten(img),
		nStages: len(img.Stages),
		st:      newStats(len(img.Stages)),
	}
}

// EnableParityCheck turns on per-access parity verification, matching
// Sim.EnableParityCheck. The verdict per word was precomputed at flatten
// time, so the check is a single bit test instead of a parity recompute.
func (b *BatchSim) EnableParityCheck() { b.parity = true }

// Stats returns the accumulated counters.
func (b *BatchSim) Stats() Stats { return b.st }

// Reset returns the engine to its post-construction state — zero cycle
// clock, zeroed stats — while keeping the flight arena and stat slices
// allocated, so repeated runs (and benchmark iterations) measure lookups,
// not construction.
func (b *BatchSim) Reset() {
	b.now = 0
	b.st.reset()
}

// Run feeds the requests through the engine, one per interarrival cycles,
// and returns results in request order — the batched equivalent of
// Sim.Run(reqs, interarrival), including the trailing drain's cycle count.
func (b *BatchSim) Run(reqs []Request, interarrival int) ([]Result, Stats, error) {
	return b.RunAppend(make([]Result, 0, len(reqs)), reqs, interarrival)
}

// RunAppend is Run writing results into dst (grown as needed): with a
// pre-sized dst and a warm arena the untraced batched path allocates
// nothing per call.
func (b *BatchSim) RunAppend(dst []Result, reqs []Request, interarrival int) ([]Result, Stats, error) {
	if interarrival < 1 {
		return dst, Stats{}, fmt.Errorf("pipeline: interarrival %d, want >= 1", interarrival)
	}
	base := len(dst)
	dst = growResults(dst, len(reqs))
	out := dst[base:]
	g := int64(interarrival)
	startFaults := b.st.Faults // sweepChunk bumps b.st in place; snapshot first
	b.sweepChunks(reqs, out, &b.scratch, &b.st, b.now, g)
	b.finish(len(out), g, startFaults)
	return dst, b.st, nil
}

// RunSharded is Run(reqs, 1) fanned over the sweep worker pool in
// contiguous shards — the coordinator split that lets one engine's
// simulated throughput scale with cores. Flight walks are independent and
// the cycle accounting is closed-form, so the sharded run is byte-identical
// to the unsharded one at any -j: results land in request order, per-shard
// stage-activity and fault counts merge additively in shard order.
func (b *BatchSim) RunSharded(reqs []Request) ([]Result, Stats, error) {
	workers := sweep.Workers()
	if len(reqs) < shardMinReqs || workers <= 1 {
		return b.Run(reqs, 1)
	}
	shards := workers
	if max := (len(reqs) + batchFlights - 1) / batchFlights; shards > max {
		shards = max
	}
	per := (len(reqs) + shards - 1) / shards
	out := make([]Result, len(reqs))
	type delta struct {
		active []int64
		faults int64
	}
	startFaults := b.st.Faults
	deltas, err := sweep.Run(shards, func(i int) (delta, error) {
		lo := i * per
		hi := lo + per
		if hi > len(reqs) {
			hi = len(reqs)
		}
		d := delta{active: make([]int64, b.nStages)}
		var sc batchScratch
		st := Stats{StageActive: d.active}
		b.sweepChunks(reqs[lo:hi], out[lo:hi], &sc, &st, b.now+int64(lo), 1)
		d.faults = st.Faults
		return d, nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	for _, d := range deltas {
		for s, a := range d.active {
			b.st.StageActive[s] += a
		}
		b.st.Faults += d.faults
	}
	b.finish(len(out), 1, startFaults)
	return out, b.st, nil
}

// finish applies the closed-form cycle accounting of Sim.Run to a completed
// batch of n lookups: stage occupancy, the total step count (one step per
// arrival slot plus the drain) and the obs counters. The per-result
// entry/exit stamps were already written by the sweeps.
func (b *BatchSim) finish(n int, g int64, startFaults int64) {
	stages := int64(b.nStages)
	steps := stages // a zero-request run still drains, as the scalar loop does
	if n > 0 {
		steps = int64(n-1)*g + 1 + stages
	}
	b.st.Cycles += steps
	b.now += steps
	b.st.Lookups += int64(n)
	for s := range b.st.StageOccupied {
		b.st.StageOccupied[s] += int64(n)
	}
	obsLookups.Add(int64(n))
	obsCycles.Add(steps)
	obsFaults.Add(b.st.Faults - startFaults)
}

// sweepChunks resolves reqs into out in batchFlights-sized chunks, request i
// entering at cycle enter0 + i·g. RunAppend and each RunSharded shard drive
// the sweep through it.
func (b *BatchSim) sweepChunks(reqs []Request, out []Result, sc *batchScratch, st *Stats, enter0, g int64) {
	for chunk := 0; chunk < len(reqs); chunk += batchFlights {
		m := min(len(reqs)-chunk, batchFlights)
		b.sweepChunk(reqs[chunk:chunk+m], out[chunk:chunk+m], sc, st, enter0+int64(chunk)*g, g)
	}
}

// sweepChunk resolves one batch of requests: untraced flights are loaded
// into the arena and swept stage by stage (each sweep walks every live
// flight through one stage's word slices, counting the stage active once
// per live flight, exactly as the scalar engine's per-cycle process calls
// do); traced flights take the recording path. Results carry NHI and fault
// verdicts; cycle stamps are filled in by finish.
func (b *BatchSim) sweepChunk(reqs []Request, out []Result, sc *batchScratch, st *Stats, enter0, g int64) {
	sc.ensure(len(reqs))
	fl := sc.fl
	n := int64(b.nStages)
	nLive := 0
	for j := range reqs {
		sc.nhi[j] = ip.NoRoute
		if reqs[j].Trace {
			visits, nhi, faulted, rstage := b.recordWalk(reqs[j])
			enter := enter0 + int64(j)*g
			out[j] = Result{
				Request: reqs[j], NHI: nhi, Faulted: faulted, Visits: visits,
				EnterCycle: enter, ExitCycle: enter + n, LastStage: rstage,
			}
			for s := 0; s <= rstage; s++ {
				st.StageActive[s]++
			}
			if faulted {
				st.Faults++
			}
			sc.flag[j] = flagTraced
			continue
		}
		sc.flag[j] = 0
		// Default to the full pipe: a flight that outlives the last stage was
		// active in every one; removal points below overwrite with the stage
		// the flight resolved or faulted in.
		sc.last[j] = uint8(b.nStages - 1)
		vn := reqs[j].VN
		if vn != int(int32(vn)) {
			vn = -1
		}
		fl[nLive] = bFlight{addr: uint32(reqs[j].Addr), pos: int32(j), vn: int32(vn)}
		nLive++
	}
	slab := b.flat.nhi
	parity := b.parity
	for s := 0; s < b.nStages && nLive > 0; s++ {
		st.StageActive[s] += int64(nLive)
		fs := &b.flat.stages[s]
		// Reslicing child to meta's length lets one idx<len(meta) test prove
		// both accesses in bounds (flatten builds them the same length).
		meta := fs.meta
		child := fs.child[:len(meta)]
		// Level-major sweep: every unresolved flight in this stage performs
		// the same fs.visits steps, so driving the intra-stage walk by level
		// removes the per-entry fold branch from the hot loop entirely; the
		// only data-dependent branches left are leaf resolution (once per
		// flight) and the rare fault paths. The bit select indexes the child
		// pair instead of branching on the address bit. Finished flights are
		// swap-removed (flight order is free: results key on pos), so the
		// common surviving path stores only the 4-byte index, not the whole
		// record. The loop is duplicated on the parity setting so the common
		// parity-off path carries no per-visit test at all.
		for v := 0; v < fs.visits && nLive > 0; v++ {
			if parity {
				for i := 0; i < nLive; {
					f := fl[i]
					idx := int(f.idx)
					if idx >= len(meta) {
						sc.flag[f.pos] = flagFaulted
						sc.last[f.pos] = uint8(s)
						st.Faults++
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					m := meta[idx]
					if m&metaParityBad != 0 {
						sc.flag[f.pos] = flagFaulted
						sc.last[f.pos] = uint8(s)
						st.Faults++
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					c := child[idx]
					if m&metaLeaf != 0 {
						if uint32(f.vn) < c[1] {
							sc.nhi[f.pos] = slab[c[0]+uint32(f.vn)]
						}
						sc.last[f.pos] = uint8(s)
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					fl[i].idx = c[f.addr>>(m&metaShiftMask)&1]
					i++
				}
			} else {
				for i := 0; i < nLive; {
					f := fl[i]
					idx := int(f.idx)
					if idx >= len(meta) {
						// A corrupted child pointer escaped the stage's
						// address range — fatal for the lookup, as in the
						// scalar engine.
						sc.flag[f.pos] = flagFaulted
						sc.last[f.pos] = uint8(s)
						st.Faults++
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					m := meta[idx]
					c := child[idx]
					if m&metaLeaf != 0 {
						if uint32(f.vn) < c[1] { // unsigned compare: negative VNs miss too
							sc.nhi[f.pos] = slab[c[0]+uint32(f.vn)]
						}
						sc.last[f.pos] = uint8(s)
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					fl[i].idx = c[f.addr>>(m&metaShiftMask)&1]
					i++
				}
			}
		}
	}
	// One sequential pass fills the untraced results with their next hop,
	// fault verdict and closed-form cycle stamps: resolved flights carry
	// their verdicts, flights that outlived the last stage exit with the
	// zero next hop and no fault mark, mirroring the scalar drain.
	for j := range reqs {
		if sc.flag[j]&flagTraced != 0 {
			continue
		}
		enter := enter0 + int64(j)*g
		out[j] = Result{
			Request:    reqs[j],
			NHI:        sc.nhi[j],
			Faulted:    sc.flag[j]&flagFaulted != 0,
			EnterCycle: enter,
			ExitCycle:  enter + n,
			LastStage:  int(sc.last[j]),
		}
	}
}

// recordWalk is the traced flight's recording path: the same traversal with
// every stage-memory access appended to the visit log, matching the scalar
// engine's processTraced byte for byte. rstage is the stage during which
// the lookup resolved (the last stage it was active in).
func (b *BatchSim) recordWalk(req Request) (visits []obs.StageVisit, nhi ip.NextHop, faulted bool, rstage int) {
	visits = make([]obs.StageVisit, 0, b.nStages)
	nhi = ip.NoRoute
	idx := uint32(0)
	for s := 0; s < b.nStages; s++ {
		fs := &b.flat.stages[s]
		for {
			visits = append(visits, obs.StageVisit{Stage: s, Entry: idx})
			if idx >= uint32(len(fs.meta)) {
				visits[len(visits)-1].Fault = true
				return visits, ip.NoRoute, true, s
			}
			m := fs.meta[idx]
			if b.parity && m&metaParityBad != 0 {
				visits[len(visits)-1].Fault = true
				return visits, ip.NoRoute, true, s
			}
			c := fs.child[idx]
			if m&metaLeaf != 0 {
				if vn := req.VN; vn >= 0 && vn < int(c[1]) {
					nhi = b.flat.nhi[c[0]+uint32(vn)]
				}
				return visits, nhi, false, s
			}
			idx = c[uint32(req.Addr)>>(m&metaShiftMask)&1]
			if m&metaFold != 0 {
				continue
			}
			break
		}
	}
	return visits, ip.NoRoute, false, b.nStages - 1
}

// growResults extends dst by n zero slots without the temporary slice an
// append(dst, make(...)...) would allocate.
func growResults(dst []Result, n int) []Result {
	need := len(dst) + n
	if cap(dst) >= need {
		return dst[:need]
	}
	grown := make([]Result, need)
	copy(grown, dst)
	return grown
}

// Lookups resolves a batch of probes with one batched engine — the bulk
// replacement for calling Lookup once per test vector.
func Lookups(img *Image, reqs []Request) []ip.NextHop {
	out := make([]ip.NextHop, len(reqs))
	results, _, err := NewBatchSim(img).Run(reqs, 1)
	if err != nil {
		return out
	}
	for i, r := range results {
		out[i] = r.NHI
	}
	return out
}
