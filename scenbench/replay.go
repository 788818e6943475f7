package main

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/energy"
	"vrpower/internal/faults"
	"vrpower/internal/fleet"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/netsim"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/update"
)

// auditProbeCap mirrors the per-network probe bound of the program's
// invariant audits.
const auditProbeCap = 64

// replay re-issues one RunScenario's layer calls from outside, inside spans.
// Every workload is a VS router, so engine e serves network e.
type replay struct {
	tr  *tracer
	in  *instance
	rep netsim.ScenarioReport

	refs   []*ip.Table
	tables []*rib.Table
	images []*pipeline.Image

	// streams[e] is the request stream engine e was fed, for the BatchSim
	// headroom measurement.
	streams [][]pipeline.Request
	// oracleMismatches counts replayed lookups the oracle disagreed with;
	// the replay feeds the real images, so it must stay zero.
	oracleMismatches int64
	fitBuilds        int64
	stats            struct{ applied, aborted, landed, migrationAttempts, degraded int }
}

func newReplay(tr *tracer, in *instance, rep netsim.ScenarioReport) (*replay, error) {
	if in.router.Config().Scheme != core.VS {
		return nil, fmt.Errorf("replay models VS routers only")
	}
	return &replay{
		tr: tr, in: in, rep: rep,
		tables:  in.set.Tables,
		images:  in.router.Images(),
		streams: make([][]pipeline.Request, len(in.router.Images())),
	}, nil
}

// run replays the layers in the order the run first reaches them.
func (r *replay) run() error {
	k := len(r.tables)
	r.refs = make([]*ip.Table, k)
	if r.in.spec.Fleet == nil {
		// The single-device runner builds each network's epoch-0 oracle.
		r.tr.do("rib.Reference", func() int64 {
			for vn := range r.refs {
				r.refs[vn] = r.tables[vn].Reference()
			}
			return int64(k)
		})
	} else {
		// The fleet runner reuses netsim.New's oracles (set-up time).
		for vn := range r.refs {
			r.refs[vn] = r.tables[vn].Reference()
		}
		if err := r.fleet(); err != nil {
			return err
		}
	}
	if r.in.spec.Churn != nil || r.in.spec.SEURate > 0 {
		if err := r.control(); err != nil {
			return err
		}
	}
	r.audits()
	if err := r.dataPlane(); err != nil {
		return err
	}
	if r.oracleMismatches != 0 {
		return fmt.Errorf("replay: %d oracle mismatches on the replayed stream", r.oracleMismatches)
	}
	return nil
}

// control replays the churn boundary (pinned recompiles, coalesce, diff,
// write bubbles, commit or abort) and the scrub reloads.
func (r *replay) control() error {
	rep, spec, tr := r.rep, r.in.spec, r.tr
	images := make([]*pipeline.Image, len(r.images))
	for e, img := range r.images {
		images[e] = img.Clone()
	}
	rebuild := func(e int) func() (*pipeline.Image, error) {
		return func() (*pipeline.Image, error) { return r.images[e].Clone(), nil }
	}
	if spec.Churn != nil {
		var mgr *ctrl.Manager
		var err error
		tr.do("ctrl.New", func() int64 {
			if mgr, err = ctrl.New(r.in.router.Config(), r.tables); err == nil {
				images, err = mgr.PinnedImages()
			}
			return 1
		})
		if err != nil {
			return err
		}
		r.stats.applied = rep.BatchesApplied
		r.stats.aborted = rep.BatchesAborted
		if rep.Chaos != nil {
			r.stats.aborted += rep.Chaos.RetriedBatches
		}
		for i := 0; i < r.stats.applied+r.stats.aborted; i++ {
			vn := i % len(r.tables)
			if i < len(rep.Batches) {
				vn = rep.Batches[i].VN
			}
			if err := r.batch(mgr, images, vn, spec.Seed+int64(i), i < r.stats.applied); err != nil {
				return err
			}
		}
		rebuild = func(e int) func() (*pipeline.Image, error) {
			return func() (*pipeline.Image, error) {
				imgs, err := mgr.PinnedImages()
				if err != nil {
					return nil, err
				}
				return imgs[e], nil
			}
		}
	}
	if rep.Scrubs == 0 {
		return nil
	}
	in, err := faults.NewInjector(faults.Config{Seed: spec.Seed, SEURate: spec.SEURate}, images)
	if err != nil {
		return err
	}
	scrubber, err := ctrl.NewScrubber(ctrl.ScrubPolicy{}, in)
	if err != nil {
		return err
	}
	for s := 0; s < rep.Scrubs; s++ {
		e := 0
		if s < len(rep.SEUs) {
			e = rep.SEUs[s].Engine
		}
		tr.do("ctrl.Scrub", func() int64 {
			_, err = scrubber.Scrub(rebuild(e))
			return 1
		})
		// A scrub that used up its retry budget is an outcome the run
		// records (the engine goes dead), not a replay failure.
		if err != nil && !errors.Is(err, ctrl.ErrScrubExhausted) {
			return err
		}
	}
	return nil
}

// batch replays one hitless update: churn ops, the pinned recompile and
// diff, the write bubbles through a simulator, then commit or abort.
func (r *replay) batch(mgr *ctrl.Manager, images []*pipeline.Image, vn int, seed int64, commit bool) error {
	tr := r.tr
	var ops []update.Op
	var h *ctrl.HitlessUpdate
	var err error
	tr.do("ctrl.update.Churn", func() int64 {
		ops, err = update.Churn(mgr.Tables()[vn], r.in.spec.Churn.Ops, update.ChurnConfig{Seed: seed})
		return 1
	})
	if err != nil {
		return err
	}
	tr.do("ctrl.BeginHitlessUpdate", func() int64 {
		h, err = mgr.BeginHitlessUpdate(vn, ops)
		return 1
	})
	if err != nil {
		return err
	}
	tr.do("rib.Reference", func() int64 {
		_ = h.Table().Reference()
		return 1
	})
	e := h.Engine()
	sim := pipeline.NewSim(images[e])
	sim.EnableParityCheck()
	if err := sim.BeginUpdate(h.Image(), h.Bubbles()); err != nil {
		h.Abort()
		return err
	}
	tr.do("pipeline.InjectBubble", func() int64 {
		var n int64
		for sim.PendingBubbles() > 0 && err == nil {
			_, _, err = sim.InjectBubble()
			n++
		}
		return n
	})
	if err != nil {
		h.Abort()
		return err
	}
	if !commit {
		tr.do("ctrl.Abort", func() int64 { h.Abort(); return 1 })
		return nil
	}
	tr.do("ctrl.Commit", func() int64 {
		_, err = h.Commit()
		return 1
	})
	images[e] = h.Image()
	return err
}

// audits replays the invariant audits: a stride sample of each audited
// network's routes, its oracle answers, and pipeline.AuditImage.
func (r *replay) audits() {
	rep := r.rep
	var audits, probes int
	if c := rep.Chaos; c != nil {
		audits, probes = c.Audits, c.AuditProbes
	}
	if f := rep.Fleet; f != nil {
		audits, probes = audits+f.Audits, probes+f.AuditProbes
	}
	if audits == 0 {
		return
	}
	// Each audit probes every network its image serves; spread the run's
	// probe count over the audits as whole per-network samples.
	perAudit := (probes + audits*auditProbeCap - 1) / (audits * auditProbeCap)
	if perAudit < 1 {
		perAudit = 1
	}
	for a := 0; a < audits; a++ {
		for j := 0; j < perAudit; j++ {
			vn := (a + j) % len(r.tables)
			tbl := r.tables[vn]
			var ref *ip.Table
			r.tr.do("rib.Reference", func() int64 { ref = tbl.Reference(); return 1 })
			var ps []pipeline.Probe
			r.tr.do("ip.Lookup", func() int64 {
				stride := (tbl.Len() + auditProbeCap - 1) / auditProbeCap
				if stride < 1 {
					stride = 1
				}
				for i := 0; i < tbl.Len(); i += stride {
					addr := tbl.Routes[i].Prefix.Addr
					ps = append(ps, pipeline.Probe{Addr: addr, Want: ref.Lookup(addr)})
				}
				return int64(len(ps))
			})
			r.tr.do("pipeline.AuditImage", func() int64 {
				if res := pipeline.AuditImage(r.images[vn], ps); res.Mismatches != 0 {
					r.oracleMismatches += int64(res.Mismatches)
				}
				return 1
			})
		}
	}
}

// fleet replays placement and failover with the program's estimator: a
// memoised core.Build per (scheme, tenant list) priced by the power model.
// The placement config mirrors the fleet runner's; failover then replays the
// run's crashes, landed migrations and timeouts in cycle order, and checks
// the replayed controller against the report at every step (see
// checkFleet), so a config that drifts from the program's fails the traced
// run instead of timing a different placement.
func (r *replay) fleet() error {
	rep, spec, tr := r.rep, r.in.spec, r.tr
	cache := map[string]*core.Router{}
	build := func(sch core.Scheme, vns []int, fit bool) (*core.Router, error) {
		key := fmt.Sprintf("%d|%v", int(sch), vns)
		if rt, ok := cache[key]; ok {
			return rt, nil
		}
		cfg := r.in.router.Config()
		cfg.Scheme, cfg.K = sch, len(vns)
		tables := make([]*rib.Table, len(vns))
		for i, vn := range vns {
			tables[i] = r.tables[vn]
		}
		var rt *core.Router
		var err error
		tr.do("core.Build", func() int64 {
			rt, err = core.Build(cfg, tables)
			return 1
		})
		if err != nil {
			return nil, err
		}
		if fit {
			r.fitBuilds++
		}
		cache[key] = rt
		return rt, nil
	}
	est := func(sch core.Scheme, vns []int) (float64, error) {
		rt, err := build(sch, vns, true)
		if err != nil {
			return 0, err
		}
		var bd power.Breakdown
		tr.do("core.ModelPower", func() int64 {
			bd, err = rt.ModelPower()
			return 1
		})
		return bd.Total(), err
	}

	demands := make(map[int]fleet.Demand, len(r.tables))
	for vn := range r.tables {
		demands[vn] = fleet.Demand{LoadFrac: peakLoad(spec.Load)}
	}
	retryBase := spec.Slice / 4
	if retryBase < 1 {
		retryBase = 256
	}
	cfg := fleet.Config{
		Devices:        spec.Fleet.Devices,
		Spares:         spec.Fleet.Spares,
		SlotsPerDevice: 15,
		DeviceCapWatts: spec.DeviceCapW,
		CapWatts:       spec.CapW,
		Retry:          ctrl.Backoff{Base: retryBase, Jitter: 0.25, Seed: spec.Seed},
		MaxAttempts:    4,
		TimeoutCycles:  spec.Cycles,
		PowerUpCycles:  2 * spec.Slice,
	}
	var plan *fleet.Plan
	var ctr *fleet.Controller
	var err error
	tr.do("fleet.Place", func() int64 {
		if plan, err = fleet.Place(cfg, demands, est); err == nil {
			ctr, err = fleet.NewController(cfg, plan, demands, est)
		}
		return 1
	})
	if err != nil {
		return err
	}
	f := rep.Fleet
	if f == nil {
		return fmt.Errorf("fleet run without a fleet report")
	}
	for d, a := range plan.Devices {
		if d >= len(f.PerDevice) || !slices.Equal(a.VNs, f.PerDevice[d].PlacedVNs) {
			return fmt.Errorf("replayed placement of device %d %v differs from the run's", d, a.VNs)
		}
	}
	for _, ev := range fleetEvents(f) {
		switch {
		case ev.crash != nil:
			cr := ev.crash
			if !slices.Equal(ctr.VNs(cr.Device), cr.Victims) {
				return fmt.Errorf("crash of device %d at %d: replayed victims %v, run %v",
					cr.Device, cr.Cycle, ctr.VNs(cr.Device), cr.Victims)
			}
			tr.do("fleet.Crash", func() int64 {
				_, _, err = ctr.Crash(cr.Device, cr.Cycle)
				return 1
			})
			if err != nil {
				return fmt.Errorf("fleet.Crash(%d, %d): %w", cr.Device, cr.Cycle, err)
			}
		case ev.landed != nil:
			m := pendingFor(ctr, ev.landed.VN)
			if m == nil || m.To != ev.landed.To {
				return fmt.Errorf("migration of network %d to device %d landed at %d but is not pending in the replay",
					ev.landed.VN, ev.landed.To, ev.at)
			}
			// The landed install compiles the target's tenants plus the newcomer.
			if _, err := build(m.ToScheme, append(append([]int(nil), ctr.VNs(m.To)...), m.VN), false); err != nil {
				return err
			}
			ctr.Complete(m, ev.at)
		case ev.timeout != nil:
			if ctr.DegradedVN(ev.timeout.VN) {
				continue // the replayed crash already parked it
			}
			m := pendingFor(ctr, ev.timeout.VN)
			rec := lastMigration(f, ev.timeout.VN)
			if m == nil || rec == nil {
				return fmt.Errorf("network %d degraded at %d without a pending migration in the replay", ev.timeout.VN, ev.at)
			}
			// The run's attempt count must exhaust the replayed budget or
			// deadline at the cycle the run gave up, and the deadline sweep
			// runs every slice, so the run cannot give up later than one
			// slice past the replayed deadline.
			m.Attempts = rec.Attempts
			if rec.Attempts > cfg.MaxAttempts || ev.at > m.Deadline+spec.Slice || ctr.Fail(m, ev.at) == nil {
				return fmt.Errorf("network %d degraded at %d after %d attempts, but the replayed controller would not give up then",
					ev.timeout.VN, ev.at, rec.Attempts)
			}
		}
	}
	if err := checkFleet(ctr, f); err != nil {
		return err
	}
	r.stats.landed = f.MigrationsDone
	r.stats.migrationAttempts = f.MigrationAttempts
	r.stats.degraded = len(f.Degraded)
	return nil
}

// fleetEvent is one controller decision the fleet run reported: a device
// crash, a landed migration or a network degraded after its migration ran
// out of attempts or deadline.
type fleetEvent struct {
	at      int64
	crash   *netsim.FleetCrashRecord
	landed  *netsim.FleetMigrationRecord
	timeout *netsim.FleetDegradedRecord
}

// fleetEvents orders the report's decisions as the runner's boundary does:
// by cycle, crashes first at a shared cycle.
func fleetEvents(f *netsim.FleetReport) []fleetEvent {
	var evs []fleetEvent
	for i := range f.Crashes {
		evs = append(evs, fleetEvent{at: f.Crashes[i].Cycle, crash: &f.Crashes[i]})
	}
	for i := range f.Migrations {
		if f.Migrations[i].CommittedAt >= 0 {
			evs = append(evs, fleetEvent{at: f.Migrations[i].CommittedAt, landed: &f.Migrations[i]})
		}
	}
	for i := range f.Degraded {
		evs = append(evs, fleetEvent{at: f.Degraded[i].At, timeout: &f.Degraded[i]})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].crash != nil && evs[j].crash == nil
	})
	return evs
}

func pendingFor(ctr *fleet.Controller, vn int) *fleet.Migration {
	for _, m := range ctr.Pending() {
		if m.VN == vn {
			return m
		}
	}
	return nil
}

// lastMigration is the report's last migration record for vn that never
// landed.
func lastMigration(f *netsim.FleetReport, vn int) *netsim.FleetMigrationRecord {
	for i := len(f.Migrations) - 1; i >= 0; i-- {
		if m := &f.Migrations[i]; m.VN == vn && m.CommittedAt < 0 {
			return m
		}
	}
	return nil
}

// checkFleet compares the replayed controller's end state with the run's:
// every device's scheme and serving list, and the degraded networks in
// park order.
func checkFleet(ctr *fleet.Controller, f *netsim.FleetReport) error {
	if ctr.NumDevices() != len(f.PerDevice) {
		return fmt.Errorf("replayed fleet has %d devices, run %d", ctr.NumDevices(), len(f.PerDevice))
	}
	for d, dr := range f.PerDevice {
		if ctr.Scheme(d).String() != dr.Scheme || !slices.Equal(ctr.VNs(d), dr.VNs) {
			return fmt.Errorf("device %d: replay ends %s %v, run %s %v",
				d, ctr.Scheme(d), ctr.VNs(d), dr.Scheme, dr.VNs)
		}
	}
	degs := ctr.Degraded()
	if len(degs) != len(f.Degraded) {
		return fmt.Errorf("replay degrades %d networks, run %d", len(degs), len(f.Degraded))
	}
	for i, d := range degs {
		if d.VN != f.Degraded[i].VN {
			return fmt.Errorf("degraded network %d: replay %d, run %d", i, d.VN, f.Degraded[i].VN)
		}
	}
	return nil
}

// peakLoad is the load shape's peak arrival probability, the fleet's
// placement demand.
func peakLoad(l scenario.LoadShape) float64 {
	switch l.Kind {
	case scenario.LoadSaturate:
		return 1
	case scenario.LoadSurge, scenario.LoadRamp:
		return max(l.P0, l.P1)
	default:
		return l.P0
	}
}

type arrival struct {
	cyc     int64
	vn      int
	addr    ip.Addr
	dropped bool
}

type exit struct {
	e, vn int
	res   pipeline.Result
}

// dataPlane replays the serving loop slice by slice: the generator's
// Bernoulli arrivals and addresses, governor admission and pacing, one
// Sim.Inject per engine per cycle through traffic and drain, the reference
// oracle on every exit, and the energy meter's events.
func (r *replay) dataPlane() error {
	rep, spec, tr := r.rep, r.in.spec, r.tr
	k, engines := len(r.tables), len(r.images)
	gen, err := traffic.New(r.in.tcfg)
	if err != nil {
		return err
	}
	sims := make([]*pipeline.Sim, engines)
	for e, img := range r.images {
		sims[e] = pipeline.NewSim(img)
		sims[e].EnableParityCheck()
	}
	model, err := energy.NewModel(r.in.router.Design())
	if err != nil {
		return err
	}
	meter := energy.NewMeter(model, k)
	meter.ObserveHist = true
	var gv *scenario.GovRun
	if spec.CapW > 0 || spec.DeviceCapW > 0 {
		plant := governor.Plant{Design: r.in.router.Design(), Scheme: core.VS, K: k}
		gv, err = scenario.NewGovRun(&governor.Config{CapWatts: spec.CapW, DeviceCapWatts: spec.DeviceCapW}, plant, engines, k, nil)
		if err != nil {
			return err
		}
	}

	// Each network admits at most the lookups the run oracle-checked for
	// it, so the replayed stream has the run's per-network counts.
	budget := make([]int64, k)
	for vn := range budget {
		budget[vn] = rep.DeliveredPerVN[vn]
	}
	queues := make([][]pipeline.Request, k)
	total := rep.TrafficCycles + rep.DrainCycles
	var arr []arrival
	var exits []exit
	serves := make([]bool, spec.Slice*int64(engines))
	utilCur := make([][2]int64, engines)
	utils := make([]float64, engines)
	reloading := make([]bool, engines)
	for b := int64(0); b < total; b += spec.Slice {
		n := min(spec.Slice, total-b)
		arr = arr[:0]
		if b < rep.TrafficCycles {
			tr.do("traffic.Generator", func() int64 {
				var calls int64
				for cyc := b; cyc < b+n; cyc++ {
					p := spec.Load.At(cyc, spec.Cycles)
					for vn := 0; vn < k; vn++ {
						calls++
						if !gen.Bernoulli(p) {
							continue
						}
						if budget[vn] == 0 {
							continue
						}
						calls++
						arr = append(arr, arrival{cyc: cyc, vn: vn, addr: gen.NextFor(vn).Addr})
					}
				}
				return calls
			})
		}
		if gv != nil {
			tr.do("governor.GovRun", func() int64 {
				for i := range arr {
					arr[i].dropped = gv.AdmitArrival(arr[i].vn, arr[i].vn)
				}
				for c := int64(0); c < n; c++ {
					for e := 0; e < engines; e++ {
						serves[c*int64(engines)+int64(e)] = gv.EngineServes(e)
					}
				}
				return int64(len(arr)) + n*int64(engines)
			})
		}
		tr.do("pipeline.Inject", func() int64 {
			var calls int64
			ai := 0
			for c := int64(0); c < n; c++ {
				cyc := b + c
				for ; ai < len(arr) && arr[ai].cyc == cyc; ai++ {
					a := arr[ai]
					if a.dropped || budget[a.vn] == 0 || len(queues[a.vn]) >= spec.Queue {
						continue
					}
					budget[a.vn]--
					queues[a.vn] = append(queues[a.vn], pipeline.Request{Addr: a.addr})
				}
				for e := 0; e < engines; e++ {
					if gv != nil && !serves[c*int64(engines)+int64(e)] {
						continue
					}
					var req *pipeline.Request
					if len(queues[e]) > 0 {
						req = &queues[e][0]
						r.streams[e] = append(r.streams[e], *req)
						queues[e] = queues[e][1:]
					}
					res, done := sims[e].Inject(req)
					calls++
					if done {
						exits = append(exits, exit{e: e, vn: e, res: res})
					}
				}
			}
			return calls
		})
		tr.do("ip.Lookup", func() int64 {
			var calls int64
			for _, x := range exits {
				if x.res.Faulted {
					continue
				}
				calls++
				if r.refs[x.vn].Lookup(x.res.Addr) != x.res.NHI {
					r.oracleMismatches++
				}
			}
			return calls
		})
		tr.do("energy.Meter", func() int64 {
			for _, x := range exits {
				meter.Lookup(x.e, x.vn, x.res.LastStage)
			}
			meter.StaticSlice(n, 1)
			calls := int64(len(exits)) + 1
			if spec.SEURate > 0 {
				// The background sweep reads n words per engine per slice.
				for e := 0; e < engines; e++ {
					meter.AddWords(e, e, n)
				}
				calls += int64(engines)
			}
			return calls
		})
		exits = exits[:0]
		if gv != nil {
			tr.do("governor.GovRun", func() int64 {
				for e, s := range sims {
					utils[e], utilCur[e][0], utilCur[e][1] = scenario.UtilDelta(s.Stats(), utilCur[e][0], utilCur[e][1])
				}
				gv.Observe(b, n, utils, reloading)
				return 1
			})
		}
	}
	return nil
}

// batchHeadroom runs the batched kernel over the exact request streams the
// scalar replay injected, back to back, and returns its ns per lookup.
func (r *replay) batchHeadroom() (float64, error) {
	var busy time.Duration
	var lookups int
	for e, reqs := range r.streams {
		if len(reqs) == 0 {
			continue
		}
		b := pipeline.NewBatchSim(r.images[e])
		b.EnableParityCheck()
		var err error
		r.tr.do("pipeline.BatchSim.Run", func() int64 {
			t0 := time.Now()
			_, _, err = b.Run(reqs, 1)
			busy += time.Since(t0)
			return int64(len(reqs))
		})
		if err != nil {
			return 0, err
		}
		lookups += len(reqs)
	}
	if lookups == 0 {
		return 0, nil
	}
	return float64(busy.Nanoseconds()) / float64(lookups), nil
}

// lookupsInjected counts the requests the scalar replay fed the engines.
func (r *replay) lookupsInjected() int64 {
	var n int64
	for _, s := range r.streams {
		n += int64(len(s))
	}
	return n
}
