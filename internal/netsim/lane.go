package netsim

// This file is the one serving path of the composed runners. RunScenario
// (one device) and the fleet runner (N devices) both serve traffic the way
// the paper's schemes do: each lookup engine takes one packet per cycle
// from the networks it serves. A VS engine serves one network, the merged
// VM engine all of a device's networks. A lane is one such engine: its
// persistent parity-checking simulator, the FIFO of in-flight lookups and
// the round-robin pointer over its networks. Beside the lanes sits one
// plane per run: the per-network bounded ingress queues, the epoch oracles,
// the drop counters and the delivered/delay accounting. Both runners admit
// arrivals, pick, inject, retire exits, flush and measure through the
// methods below; they differ only in how lanes come and go (scrubs and
// hitless commits on one device, crashes and migrations across a fleet).
//
// The queues live on the plane, not on a device: a crashed device's
// networks keep their held packets, which are served once the migration
// lands. Whether a network's arrivals are refused is a per-network verdict
// the runner refreshes once per slice (refresh), since down and homeless
// states change only at slice boundaries and in PreSlice.

import (
	"fmt"

	"vrpower/internal/energy"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
)

// queued is one packet waiting at a network's ingress queue.
type queued struct {
	addr    ip.Addr
	arrival int64
	// seq is the packet's deterministic trace key (cyc*K + vn).
	seq   int64
	trace bool
}

// laneExit is one in-flight lookup's metadata: the network, the arrival
// cycle (delay accounting), the trace seq, and the reference table of its
// injection epoch.
type laneExit struct {
	vn      int
	arrival int64
	seq     int64
	ref     *ip.Table
	trace   bool
}

// lane is one lookup engine's serving state.
type lane struct {
	sim *pipeline.Sim
	// engine indexes the engine in its energy meter's model; traceID is the
	// engine the flight traces name (the device, for a fleet lane).
	engine, traceID int
	// vns lists the served networks in request-VN order: a network's
	// request VN is its index here.
	vns []int
	// exit mirrors the sim's in-flight lookups in injection order.
	exit []laneExit
	// rr is the round-robin pointer into vns.
	rr int
	// active/cycles is the stage-utilization cursor (scenario.UtilDelta).
	active, cycles int64
}

// newLane starts a lane serving img with parity checking on.
func newLane(img *pipeline.Image, engine, traceID int, vns []int) *lane {
	sim := pipeline.NewSim(img)
	sim.EnableParityCheck()
	return &lane{sim: sim, engine: engine, traceID: traceID, vns: vns}
}

// util returns the lane's stage utilization since the previous call.
func (l *lane) util() float64 {
	var u float64
	u, l.active, l.cycles = scenario.UtilDelta(l.sim.Stats(), l.active, l.cycles)
	return u
}

// plane is a run's shared ingress state and packet accounting.
type plane struct {
	s    *System
	spec scenario.Spec
	gen  *traffic.Generator
	rep  *ScenarioReport

	// queues[vn] is network vn's bounded ingress queue; refs[vn] its
	// current-epoch oracle (flipped when a commit bubble enters).
	queues [][]queued
	refs   []*ip.Table
	dropVN []*obs.Counter

	// The per-network verdict the runner refreshes once per slice: home is
	// the engine (device, for a fleet) serving the network, down refuses
	// its arrivals, and dead marks its held queue stranded for good, so it
	// no longer keeps the drain open.
	home []int
	down []bool
	dead []bool

	// backlog counts queued packets, inflight lookups in every lane.
	backlog  int
	inflight int

	delaySum  float64
	delivered int64
	upVN      []bool
}

// newPlane builds a run's report and ingress state. The oracles start as
// the system's reference tables; churn flips a run-local copy.
func (s *System) newPlane(gen *traffic.Generator, spec scenario.Spec) *plane {
	p := &plane{
		s: s, spec: spec, gen: gen,
		rep: &ScenarioReport{
			Spec:                   spec.Raw,
			Stressors:              spec.Stressors(),
			Scheme:                 s.router.Config().Scheme,
			K:                      s.k,
			SliceCycles:            spec.Slice,
			OfferedPerVN:           make([]int64, s.k),
			DeliveredPerVN:         make([]int64, s.k),
			DroppedPerVN:           make([]int64, s.k),
			UnavailableCyclesPerVN: make([]int64, s.k),
		},
		queues: make([][]queued, s.k),
		refs:   append([]*ip.Table(nil), s.refs...),
		dropVN: make([]*obs.Counter, s.k),
		home:   make([]int, s.k),
		down:   make([]bool, s.k),
		dead:   make([]bool, s.k),
		upVN:   make([]bool, s.k),
	}
	for vn := range p.dropVN {
		p.dropVN[vn] = obs.NewCounter(fmt.Sprintf("netsim.fault_drops.vn%02d", vn))
	}
	return p
}

// drop counts one packet of network vn lost to a fault: a down engine or a
// homeless network, a flushed pipeline, a parity refusal or a degraded
// queue.
func (p *plane) drop(vn int) {
	p.rep.DroppedPerVN[vn]++
	p.dropVN[vn].Inc()
	obsFaultDrops.Inc()
}

// arrive draws one cycle of shaped Bernoulli arrivals, one per network, and
// admits each through the governor (nil when ungoverned), the verdict and
// the queue bound.
func (p *plane) arrive(cyc int64, gv *scenario.GovRun) {
	rep, tel := p.rep, p.s.tel
	tracing := tel.Tracing()
	prob := p.spec.Load.At(cyc, p.spec.Cycles)
	for vn := 0; vn < p.s.k; vn++ {
		if !p.gen.Bernoulli(prob) {
			continue
		}
		rep.OfferedPerVN[vn]++
		if gv != nil && gv.AdmitArrival(vn, p.home[vn]) {
			rep.DroppedPerVN[vn]++
			continue
		}
		// Seq is worker-independent: cycle-major, network-minor.
		seq := cyc*int64(p.s.k) + int64(vn)
		if p.down[vn] {
			p.drop(vn)
			if tracing && tel.Sampler.Sample(vn, seq) {
				// No address is drawn: a draw would shift the shared traffic
				// stream, so traced runs would diverge.
				tel.PutDropTrace(seq, vn, p.home[vn], cyc)
			}
			continue
		}
		if len(p.queues[vn]) >= p.spec.Queue {
			rep.DroppedPerVN[vn]++
			continue
		}
		q := queued{addr: p.gen.NextFor(vn).Addr, arrival: cyc, seq: seq}
		if tracing {
			q.trace = tel.Sampler.Sample(vn, seq)
		}
		p.queues[vn] = append(p.queues[vn], q)
		p.backlog++
	}
	if p.backlog > rep.BacklogPeak {
		rep.BacklogPeak = p.backlog
	}
}

// serve spends lane l's input slot for one cycle on the next queued packet,
// round-robin over its networks, or on an idle step when all are empty.
func (p *plane) serve(l *lane) (pipeline.Result, bool) {
	n := len(l.vns)
	for i := 0; i < n; i++ {
		j := (l.rr + i) % n
		vn := l.vns[j]
		if len(p.queues[vn]) == 0 {
			continue
		}
		q := p.queues[vn][0]
		p.queues[vn] = p.queues[vn][1:]
		p.backlog--
		p.inflight++
		l.exit = append(l.exit, laneExit{vn: vn, arrival: q.arrival, seq: q.seq, ref: p.refs[vn], trace: q.trace})
		l.rr = (j + 1) % n
		return l.sim.Inject(&pipeline.Request{Addr: q.addr, VN: j, Trace: q.trace})
	}
	return l.sim.Inject(nil)
}

// retire accounts one lookup leaving lane l at cycle cyc: its energy on mt,
// then a parity refusal drops it (never misforwards), otherwise it is
// checked against its injection epoch's oracle. It reports whether the
// lookup faulted.
func (p *plane) retire(l *lane, mt *energy.Meter, res pipeline.Result, cyc int64) bool {
	rep := p.rep
	m := l.exit[0]
	l.exit = l.exit[1:]
	p.inflight--
	mt.Lookup(l.engine, m.vn, res.LastStage)
	outcome := "forward"
	switch {
	case res.Faulted:
		// Corruption read mid-lookup: drop, never misforward.
		rep.FaultedLookups++
		p.drop(m.vn)
		outcome = "drop-fault"
	default:
		want := m.ref.Lookup(res.Addr)
		if res.NHI != want {
			rep.Mismatches++
			outcome = "mismatch"
		} else {
			rep.DeliveredPerVN[m.vn]++
			p.delivered++
			p.delaySum += float64(cyc - m.arrival)
			if want == ip.NoRoute {
				rep.NoRoute++
				outcome = "noroute"
			}
		}
	}
	if m.trace {
		p.s.tel.PutLookupTrace(m.seq, m.vn, l.traceID, 0, res, res.EnterCycle-m.arrival, outcome)
	}
	return res.Faulted
}

// flush drops lane l's in-flight lookups: the pipeline's contents are lost
// with a reload, a kill, a crash or a merge rebuild.
func (p *plane) flush(l *lane) {
	for _, m := range l.exit {
		p.drop(m.vn)
	}
	p.inflight -= len(l.exit)
	l.exit = l.exit[:0]
}

// dropQueue drops network vn's held queue (a degraded network).
func (p *plane) dropQueue(vn int) {
	for range p.queues[vn] {
		p.drop(vn)
	}
	p.backlog -= len(p.queues[vn])
	p.queues[vn] = nil
}

// Outstanding keeps the drain going while any lookup is in flight or any
// network not stranded still holds queued packets.
func (p *plane) Outstanding() bool {
	if p.inflight > 0 {
		return true
	}
	if p.backlog == 0 {
		return false
	}
	for vn, q := range p.queues {
		if len(q) > 0 && !p.dead[vn] {
			return true
		}
	}
	return false
}

// measure closes a slice of n cycles whose deliveries started at the
// cumulative count from: the backlog, the per-network availability flags
// and, on traffic slices, the unavailable-cycle tally.
func (p *plane) measure(n int64, live bool, from int64) scenario.SliceStats {
	for vn, down := range p.down {
		p.upVN[vn] = !down
		if down && live {
			p.rep.UnavailableCyclesPerVN[vn] += n
		}
	}
	return scenario.SliceStats{Delivered: p.delivered - from, Backlog: p.backlog, Avail: p.upVN}
}

// finish closes the report: the mean delay, the energy report frozen from
// mt (which checks the attribution invariant) and the process counters.
func (p *plane) finish(mt *energy.Meter) error {
	rep := p.rep
	if p.delivered > 0 {
		rep.MeanDelayCycles = p.delaySum / float64(p.delivered)
	}
	er, err := mt.Report(deliveredBits(p.delivered))
	if err != nil {
		return err
	}
	rep.Energy = er
	er.Publish()
	obsPacketsResolved.Add(p.delivered)
	obsLoadCycles.Add(rep.TrafficCycles)
	return nil
}
