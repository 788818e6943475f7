// Package netsim runs end-to-end forwarding simulations over built routers:
// a packet distributor (Assumption 3) steers VNID-tagged packets to the
// right lookup engine, the cycle-accurate pipelines resolve them, and every
// result is cross-checked against the per-network reference tables. It is
// the correctness harness tying the whole system together.
//
// Two runners drive a router. Forward (with its frame-level twin
// ForwardFrames) resolves one closed batch of packets on the batched lookup
// core. RunScenario drives open-loop traffic through time under any
// composition of load shape, SEU faults, an engine kill, hitless churn,
// control-plane chaos, a power cap or a device fleet, on the slice-quantized
// engine in internal/scenario: the engine owns the coordinator loop,
// telemetry threading and governor actuation, and RunScenario supplies the
// kernel (how a slice's cycles execute) and stressors (faults, churn, chaos)
// through the engine's hook interface.
//
// RunScenario has one serving path (lane.go) for one device and for a
// fleet alike: every lookup engine is a lane taking one packet per cycle
// from the shared per-network ingress queues, and every exit is metered,
// checked against its epoch's oracle and traced by the same code. The
// single-device and fleet kernels differ only in which lanes exist and
// which networks are down.
package netsim

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/energy"
	"vrpower/internal/fpga"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/packet"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

// Run instrumentation (surfaced by cmd/lookupsim -stats).
var (
	obsPacketsResolved = obs.NewCounter("netsim.packets_resolved")
	obsFramesForwarded = obs.NewCounter("netsim.frames_forwarded")
	obsLoadCycles      = obs.NewCounter("netsim.load_cycles")
)

// System is a router under simulation together with its reference tables.
type System struct {
	router *core.Router
	refs   []*ip.Table
	// tables are the authoritative routing tables; the fault layer rebuilds
	// corrupted engine images from them.
	tables []*rib.Table
	k      int
	// tel is the attached telemetry bundle (never nil; defaults to the
	// shared all-nil noTelemetry).
	tel *Telemetry
	// gov is the attached power-envelope governor configuration; nil runs
	// ungoverned.
	gov *governor.Config
	// emodel is the per-event energy cost table derived from the router's
	// power design; every runner meters against it.
	emodel *energy.Model
}

// New wraps a built router. tables must be the same K tables the router was
// built from; they provide the forwarding oracle.
func New(r *core.Router, tables []*rib.Table) (*System, error) {
	if r.Images() == nil {
		return nil, fmt.Errorf("netsim: router has no compiled engines (analytic build?)")
	}
	k := r.Config().K
	if len(tables) != k {
		return nil, fmt.Errorf("netsim: %d tables for K = %d", len(tables), k)
	}
	refs := make([]*ip.Table, k)
	for i, t := range tables {
		refs[i] = t.Reference()
	}
	em, err := energy.NewModel(r.Design())
	if err != nil {
		return nil, err
	}
	return &System{router: r, refs: refs, tables: tables, k: k, tel: noTelemetry, emodel: em}, nil
}

// engineOf maps a network to the engine serving it: the shared engine 0
// under the merged scheme, the network's own engine otherwise.
func (s *System) engineOf(vn int) int {
	if s.router.Config().Scheme == core.VM {
		return 0
	}
	return vn
}

// meter builds a zeroed energy meter over this system's cost model.
func (s *System) meter() *energy.Meter { return energy.NewMeter(s.emodel, s.k) }

// deliveredBits converts a delivered packet count into forwarded payload bits
// at the minimum packet size (the ThroughputGbps convention).
func deliveredBits(packets int64) int64 {
	return packets * fpga.MinPacketBytes * 8
}

// engine returns a scenario engine preconfigured with this system's plant
// (design, fmax, K) and attached telemetry.
func (s *System) engine() scenario.Engine {
	return scenario.Engine{
		K:       s.k,
		Design:  s.router.Design(),
		FmaxMHz: s.router.Fmax(),
		Tel:     s.tel,
	}
}

// Report summarises a forwarding run.
type Report struct {
	// Packets is the number of packets forwarded.
	Packets int
	// Mismatches counts results that disagreed with the reference LPM
	// (must be zero for a correct build).
	Mismatches int
	// NoRoute counts packets that matched no prefix.
	NoRoute int
	// PerEngine holds each engine's pipeline statistics.
	PerEngine []pipeline.Stats
	// EngineLoad is the fraction of packets handled per engine, the
	// realised µ_i of Assumption 1.
	EngineLoad []float64
	// Energy is the run's attributed energy breakdown.
	Energy *energy.Report
}

// Forward distributes the packets to the router's engines, simulates every
// pipeline cycle-accurately, and verifies each resolved next hop against
// the reference tables. The whole batch runs at once: distribute per
// engine, simulate the disjoint request slices on the worker pool, fold in
// engine order.
func (s *System) Forward(pkts []traffic.Packet) (Report, error) {
	images := s.router.Images()
	scheme := s.router.Config().Scheme

	// Distributor (Assumption 3): split the merged flow per engine. The
	// merged scheme keeps one stream; NV/VS steer by VNID.
	tel := s.tel
	tracing := tel.Tracing()
	perEngine := make([][]pipeline.Request, len(images))
	var perEngineSeq [][]int64 // traced runs: the batch index of each request
	if tracing {
		perEngineSeq = make([][]int64, len(images))
	}
	for i, p := range pkts {
		if p.VN < 0 || p.VN >= s.k {
			return Report{}, fmt.Errorf("netsim: packet VN %d outside [0,%d)", p.VN, s.k)
		}
		e, vn := 0, p.VN
		if scheme != core.VM {
			// Per-network engines hold a single table: the distributor
			// strips the VNID after steering.
			e, vn = p.VN, 0
		}
		req := pipeline.Request{Addr: p.Addr, VN: vn}
		if tracing {
			// Seq is the batch position: unique, worker-independent.
			req.Trace = tel.Sampler.Sample(p.VN, int64(i))
			perEngineSeq[e] = append(perEngineSeq[e], int64(i))
		}
		perEngine[e] = append(perEngine[e], req)
	}

	rep := Report{
		Packets:    len(pkts),
		PerEngine:  make([]pipeline.Stats, len(images)),
		EngineLoad: make([]float64, len(images)),
	}
	// Each engine owns a disjoint request slice and its own simulator, so
	// the engines run on the bounded worker pool; aggregation walks the
	// results in engine order, keeping the report deterministic at any -j.
	type engineRun struct {
		st         pipeline.Stats
		mismatches int
		noRoute    int
		em         *energy.Meter
	}
	// Each engine runs the batched, data-oriented lookup core — scalar-
	// equivalent by the pipeline package's differential tests, so reports
	// and goldens are byte-identical to the cycle-loop simulator. A lone
	// engine (the merged scheme) additionally shards its batch across the
	// worker pool, since the per-engine fan-out below is then width 1.
	shardSingle := len(images) == 1
	runs, err := sweep.Run(len(images), func(e int) (engineRun, error) {
		reqs := perEngine[e]
		if len(reqs) == 0 {
			return engineRun{}, nil
		}
		sim := pipeline.NewBatchSim(images[e])
		var results []pipeline.Result
		var st pipeline.Stats
		var err error
		if shardSingle {
			results, st, err = sim.RunSharded(reqs)
		} else {
			results, st, err = sim.Run(reqs, 1)
		}
		if err != nil {
			return engineRun{}, err
		}
		run := engineRun{st: st, em: s.meter()}
		for ri, res := range results {
			vn := res.VN
			if scheme != core.VM {
				vn = e // per-network engine: the engine index is the network
			}
			run.em.Lookup(e, vn, res.LastStage)
			want := s.refs[vn].Lookup(res.Addr)
			if res.NHI != want {
				run.mismatches++
			}
			if want == ip.NoRoute {
				run.noRoute++
			}
			if res.Trace {
				// Results exit in injection order, so ri indexes the seq
				// slice built by the distributor.
				tel.PutLookupTrace(perEngineSeq[e][ri], vn, e, 0, res, 0, scenario.LookupOutcome(res, want))
			}
		}
		return run, nil
	})
	if err != nil {
		return Report{}, err
	}
	meter := s.meter()
	for e, run := range runs {
		if len(pkts) > 0 {
			rep.EngineLoad[e] = float64(len(perEngine[e])) / float64(len(pkts))
		}
		rep.PerEngine[e] = run.st
		rep.Mismatches += run.mismatches
		rep.NoRoute += run.noRoute
		meter.Fold(run.em)
	}
	// The batch has no slice clock: leakage is integrated over one cycle
	// per packet at full rate.
	meter.StaticSlice(max(int64(len(pkts)), 1), 1)
	er, err := meter.Report(deliveredBits(int64(len(pkts))))
	if err != nil {
		return Report{}, err
	}
	rep.Energy = er
	er.Publish()
	obsPacketsResolved.Add(int64(len(pkts)))
	return rep, nil
}

// FrameReport summarises a frame-level forwarding run: the full data plane
// of parse → distribute → lookup → edit, with per-cause drop counters.
type FrameReport struct {
	Frames     int
	Forwarded  int
	BadParse   int
	UnknownVN  int
	NoRoute    int
	TTLExpired int
	// Mismatches counts lookups that disagreed with the reference LPM.
	Mismatches int
}

// ForwardFrames runs wire-format frames through the complete data plane:
// each frame is parsed (Ethernet + VLAN VNID + IPv4, checksum verified),
// steered by the distributor, resolved by the cycle-accurate pipelines,
// and on success edited in place (TTL decrement, checksum update, MAC
// rewrite toward the resolved next hop). Drops are counted by cause.
func (s *System) ForwardFrames(frames [][]byte) (FrameReport, error) {
	images := s.router.Images()
	scheme := s.router.Config().Scheme
	rep := FrameReport{Frames: len(frames)}

	type pending struct {
		frame *packet.Frame
		vn    int
	}
	perEngineReqs := make([][]pipeline.Request, len(images))
	perEnginePend := make([][]pending, len(images))
	for _, buf := range frames {
		f, err := packet.Parse(buf)
		if err != nil {
			rep.BadParse++
			continue
		}
		if f.VNID >= s.k {
			rep.UnknownVN++
			continue
		}
		e, vn := 0, f.VNID
		if scheme != core.VM {
			e, vn = f.VNID, 0
		}
		perEngineReqs[e] = append(perEngineReqs[e], pipeline.Request{Addr: f.DstIP, VN: vn})
		perEnginePend[e] = append(perEnginePend[e], pending{frame: f, vn: f.VNID})
	}

	// Engines hold disjoint frame sets (the distributor steered each frame
	// to exactly one), so lookup and egress edit run per engine on the
	// worker pool; counters are summed in engine order afterwards.
	type engineRun struct {
		forwarded, noRoute, ttlExpired, mismatches int
	}
	runs, err := sweep.Run(len(images), func(e int) (engineRun, error) {
		reqs := perEngineReqs[e]
		if len(reqs) == 0 {
			return engineRun{}, nil
		}
		// The frame path needs only next hops, so it runs the batched
		// engine too; the egress edit consumes results in request order.
		results, _, err := pipeline.NewBatchSim(images[e]).Run(reqs, 1)
		if err != nil {
			return engineRun{}, err
		}
		var run engineRun
		for i, res := range results {
			p := perEnginePend[e][i]
			if want := s.refs[p.vn].Lookup(res.Addr); res.NHI != want {
				run.mismatches++
			}
			if res.NHI == ip.NoRoute {
				run.noRoute++
				continue
			}
			// Egress edit: next-hop MAC synthesised from the NHI port.
			nh := packet.MAC{0x02, 0xFE, 0, 0, byte(res.NHI >> 8), byte(res.NHI)}
			egress := packet.MAC{0x02, 0xFD, 0, 0, 0, byte(p.vn)}
			switch err := p.frame.Forward(nh, egress); err {
			case nil:
				run.forwarded++
			case packet.ErrTTLExpired:
				run.ttlExpired++
			default:
				return engineRun{}, err
			}
		}
		return run, nil
	})
	if err != nil {
		return FrameReport{}, err
	}
	for _, run := range runs {
		rep.Forwarded += run.forwarded
		rep.NoRoute += run.noRoute
		rep.TTLExpired += run.ttlExpired
		rep.Mismatches += run.mismatches
	}
	obsFramesForwarded.Add(int64(rep.Forwarded))
	return rep, nil
}
