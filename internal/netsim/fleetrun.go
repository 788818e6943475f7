package netsim

// This file is the fleet-scenario runner behind -scenario "fleet=N[:spare=M]":
// one engine-driven run in which the placement of internal/fleet spreads the
// K virtual networks across N simulated devices — each device a router of
// its own (NV for a lone tenant, VS for isolation, VM when a per-device
// power cap forces a merge) — and the device-scale faults of
// faults.DeviceInjector (whole-device crashes, brownouts, flaky-reconfig
// devices) act on the live fleet. On a device loss the fleet.Controller
// re-places the victims onto survivors (waking spares when the actives are
// full) and this runner executes each migration as a journaled image build
// and install with bounded retry under the controller's seeded backoff;
// when the budget runs out the victim degrades — its traffic drops, never
// misforwards — and every landed install is audited against the RIB oracle.
//
// Devices serve through the same lanes and plane as RunScenario (lane.go):
// one lane per engine of a device's current router, the merged engine's
// lane serving every tenant. This file only decides which lanes exist —
// building them at placement and at each landed install, dropping them at
// a crash — and which networks are homeless. The ingress queues are
// fleet-wide, so a crashed device's held packets wait for the migration.
//
// All decisions (crash handling, attempt starts, installs, degradations)
// run at slice boundaries on the coordinating goroutine from seeded state,
// so fleet runs are byte-identical at any -j.
//
// Fleet-mode accounting approximations (documented in DESIGN §16):
//
//   - Energy is metered per device over that device's current power model
//     and each retired device meter folds into one fleet energy.Meter
//     (Meter.FoldDevice) at crash, install landing and run end, so the
//     report comes from Meter.Report with its attribution check. The
//     report's engine axis is the DEVICE axis — EngineDynFJ[d] is device
//     d's dynamic energy — because engines come and go with migrations
//     while devices are the stable identity.
//   - The engine's per-slice energy columns read zero (Engine.Energy is
//     nil); the end-of-run energy report is exact.
//   - The series power column is modeled over the initial fleet's engines;
//     spare devices' engines are unrepresented and a crashed device still
//     counts in the static floor of power.Estimate's Devices term.

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/energy"
	"vrpower/internal/faults"
	"vrpower/internal/fleet"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
)

// FleetReport is the fleet stressor's section of the scenario report.
type FleetReport struct {
	// Devices and Spares mirror the spec's fleet geometry.
	Devices int
	Spares  int
	// PerDevice is the end-of-run state of every device, including spares.
	PerDevice []FleetDeviceReport
	// Crashes is the injected device-loss schedule with its victims.
	Crashes []FleetCrashRecord
	// Migrations records every planned live migration and its outcome.
	Migrations []FleetMigrationRecord
	// Degraded lists the networks parked in degraded mode, in park order.
	Degraded []FleetDegradedRecord
	// MigrationAttempts counts install attempts started; MigrationFailures
	// the attempts the flaky-device injector killed; MigrationsDone the
	// migrations that landed. SpareActivations counts spares powered up.
	MigrationAttempts int
	MigrationFailures int
	MigrationsDone    int
	SpareActivations  int
	// Invariant-audit accounting over landed installs.
	AuditTally
}

// MeanMTTRCycles is the average crash-to-recovered latency over migrations
// that landed; 0 when none did.
func (f *FleetReport) MeanMTTRCycles() float64 {
	var sum int64
	n := 0
	for i := range f.Migrations {
		if f.Migrations[i].MTTRCycles >= 0 {
			sum += f.Migrations[i].MTTRCycles
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// FleetDeviceReport is one device's end-of-run summary.
type FleetDeviceReport struct {
	Device int
	State  string
	Scheme string
	// PlacedVNs is the initial placement; VNs the final serving list.
	PlacedVNs []int
	VNs       []int
	// EstWatts is the power model's verdict for the final tenant set (0 for
	// empty, spare or crashed devices).
	EstWatts float64
	// BrownedCycles counts service cycles lost to brownout windows.
	BrownedCycles int64
}

// FleetCrashRecord is one injected whole-device loss.
type FleetCrashRecord struct {
	Seq     int
	Device  int
	Cycle   int64
	Victims []int
}

// FleetMigrationRecord is one victim network's migration lifecycle.
type FleetMigrationRecord struct {
	VN       int
	From, To int
	ToScheme string
	// CrashedAt stamps the device loss; CommittedAt the landed install (-1
	// when the migration never landed). MTTRCycles is their difference (-1
	// when the network degraded instead).
	CrashedAt   int64
	CommittedAt int64
	MTTRCycles  int64
	// Attempts counts installs started; FailedAttempts those the injector
	// killed; Retargets times the migration lost its target mid-plan.
	Attempts       int
	FailedAttempts int
	Retargets      int
	// Writes is the landed install's image size in words.
	Writes int
}

// FleetDegradedRecord is one network parked in degraded mode.
type FleetDegradedRecord struct {
	VN     int
	At     int64
	Reason string
}

// fleetDev is one simulated device's run state: its current router and
// serving lanes, the energy meter over its current power model, a
// write-ahead journal for installs, and the in-flight install (if any).
type fleetDev struct {
	id      int
	router  *core.Router
	lanes   []*lane
	meter   *energy.Meter
	jr      *ctrl.Journal
	browned int64

	// In-flight install state.
	m       *fleet.Migration
	tok     *ctrl.OpToken
	pending *core.Router
	landAt  int64
	writes  int
	// blackout marks a whole-device reorganisation in progress (a merge
	// rebuild): arrivals drop and no engine serves until the install lands.
	blackout bool
}

// fleetRun is the fleet scenario's shared state: the serving plane, the
// placement controller, the device fault deck and the per-device run state.
type fleetRun struct {
	*plane

	cfg fleet.Config
	ctr *fleet.Controller
	inj *faults.DeviceInjector
	est fleet.Estimator

	devs []*fleetDev

	// installing guards against re-starting a migration whose install is
	// mid-flight; mrec maps each migration to its report record.
	installing map[*fleet.Migration]bool
	mrec       map[*fleet.Migration]int

	// cache memoizes per-device router builds by (scheme, tenant list).
	cache   map[string]*core.Router
	baseCfg core.Config

	frep *FleetReport

	// Composite series-power mapping: initial device d owns slots
	// engOff[d]..engOff[d]+engCnt[d] of the engine Design.
	engOff, engCnt []int
	utils          []float64

	// meter is the fleet-wide energy meter: each retired device meter folds
	// into its device's slot.
	meter *energy.Meter

	maxWords int

	powerUpAnnounced []bool
}

// buildKey memoizes router builds: compiles depend only on (scheme, tables).
func buildKey(sch core.Scheme, vns []int) string {
	return fmt.Sprintf("%d|%v", int(sch), vns)
}

// build compiles (memoized) a device router of scheme sch over the tenant
// networks' tables in serving order.
func (r *fleetRun) build(sch core.Scheme, vns []int) (*core.Router, error) {
	key := buildKey(sch, vns)
	if rt, ok := r.cache[key]; ok {
		return rt, nil
	}
	cfg := r.baseCfg
	cfg.Scheme = sch
	cfg.K = len(vns)
	tables := make([]*rib.Table, 0, len(vns))
	for _, vn := range vns {
		tables = append(tables, r.s.tables[vn])
	}
	rt, err := core.Build(cfg, tables)
	if err != nil {
		return nil, err
	}
	r.cache[key] = rt
	return rt, nil
}

// maxLoadFrac is a load shape's peak per-network arrival probability, the
// placement demand.
func maxLoadFrac(l scenario.LoadShape) float64 {
	switch l.Kind {
	case scenario.LoadSaturate:
		return 1
	case scenario.LoadSurge, scenario.LoadRamp:
		if l.P1 > l.P0 {
			return l.P1
		}
		return l.P0
	default:
		return l.P0
	}
}

// newDeviceMeter builds a fresh meter over the router's power model. Fleet
// meters live on the coordinator, so they feed the per-lookup histogram.
func (r *fleetRun) newDeviceMeter(rt *core.Router) (*energy.Meter, error) {
	em, err := energy.NewModel(rt.Design())
	if err != nil {
		return nil, err
	}
	mt := energy.NewMeter(em, r.s.k)
	mt.ObserveHist = true
	return mt, nil
}

// retireMeter folds a device's meter into the fleet meter and drops it.
// Called when the device's power model is about to change (install
// landing), when the device crashes, and at run end.
func (r *fleetRun) retireMeter(dev *fleetDev) {
	if dev.meter != nil {
		r.meter.FoldDevice(dev.id, dev.meter)
		dev.meter = nil
	}
}

// serveRouter replaces a device's lanes with one per engine of rt, serving
// vns in rt's tenant order: the merged engine all of them, per-network
// engines one each.
func (dev *fleetDev) serveRouter(rt *core.Router, vns []int) {
	vns = append([]int(nil), vns...)
	imgs := rt.Images()
	dev.lanes = make([]*lane, len(imgs))
	for e, img := range imgs {
		served := vns[e : e+1]
		if rt.Config().Scheme == core.VM {
			served = vns
		}
		dev.lanes[e] = newLane(img, e, dev.id, served)
	}
}

// refresh recomputes the per-network verdict: a network is down while
// homeless (crashed out, mid-migration, degraded) or while its device is
// blacked out by a merge rebuild.
func (r *fleetRun) refresh() {
	for vn := range r.home {
		d := r.ctr.DeviceOf(vn)
		r.home[vn] = d
		r.down[vn] = d < 0 || r.devs[d].blackout
	}
}

// degradeCleanup parks a network: its held queue drops (never misforwards)
// and the degradation is recorded.
func (r *fleetRun) degradeCleanup(d fleet.Degradation) {
	r.dropQueue(d.VN)
	r.frep.Degraded = append(r.frep.Degraded, FleetDegradedRecord{VN: d.VN, At: d.At, Reason: d.Err.Error()})
	r.s.tel.Events.Log(obs.LevelError, d.At, "vn_degraded", "vn", d.VN, "reason", d.Err.Error())
}

// syncRecords refreshes every pending migration's report record (target,
// scheme and retarget count move when a crash re-plans the queue).
func (r *fleetRun) syncRecords() {
	for _, m := range r.ctr.Pending() {
		i, ok := r.mrec[m]
		if !ok {
			continue
		}
		rec := &r.frep.Migrations[i]
		rec.To = m.To
		rec.ToScheme = m.ToScheme.String()
		rec.Retargets = m.Retargets
		rec.Attempts = m.Attempts
	}
}

// clearInstall resets a device's in-flight install state.
func (dev *fleetDev) clearInstall() {
	dev.m = nil
	dev.tok = nil
	dev.pending = nil
	dev.landAt = -1
	dev.writes = 0
	dev.blackout = false
}

// ---- fleet stressor -------------------------------------------------------

// fleetStressor drives the failure-domain lifecycle at slice boundaries:
// injected crashes first (re-planning their victims), then deadline sweeps,
// then install landings, then new attempt starts — each step's decisions
// visible to the next.
type fleetStressor struct {
	scenario.NopStressor
	r *fleetRun
}

func (fleetStressor) Name() string { return "fleet" }

func (f fleetStressor) Boundary(b int64, _ bool) error {
	r := f.r
	ctr, tel := r.ctr, r.s.tel

	// 1. Device crashes scheduled before this boundary.
	for _, cr := range r.inj.CrashesThrough(b) {
		if ctr.State(cr.Device) == fleet.DevCrashed {
			continue
		}
		dev := r.devs[cr.Device]
		victims := append([]int(nil), ctr.VNs(cr.Device)...)
		// An install mid-flight on the crashed device is void: the journal
		// aborts and the controller re-plans the migration below.
		if dev.m != nil {
			_ = dev.tok.Abort(cr.Cycle)
			delete(r.installing, dev.m)
			dev.clearInstall()
		}
		for _, l := range dev.lanes {
			r.flush(l)
		}
		r.retireMeter(dev)
		dev.lanes = nil
		dev.router = nil
		planned, degs, err := ctr.Crash(cr.Device, cr.Cycle)
		if err != nil {
			return err
		}
		tel.Events.Log(obs.LevelError, cr.Cycle, "device_crash",
			"device", cr.Device, "victims", len(victims), "migrations", len(planned), "degraded", len(degs))
		r.frep.Crashes = append(r.frep.Crashes, FleetCrashRecord{
			Seq: cr.Seq, Device: cr.Device, Cycle: cr.Cycle, Victims: victims,
		})
		for _, m := range planned {
			r.mrec[m] = len(r.frep.Migrations)
			r.frep.Migrations = append(r.frep.Migrations, FleetMigrationRecord{
				VN: m.VN, From: m.From, To: m.To, ToScheme: m.ToScheme.String(),
				CrashedAt: m.CrashedAt, CommittedAt: -1, MTTRCycles: -1,
			})
		}
		r.syncRecords()
		for _, d := range degs {
			r.degradeCleanup(d)
		}
		for d := range r.devs {
			if ctr.State(d) == fleet.DevPoweringUp && !r.powerUpAnnounced[d] {
				r.powerUpAnnounced[d] = true
				tel.Events.Log(obs.LevelInfo, cr.Cycle, "spare_powerup",
					"device", d, "ready_at", cr.Cycle+r.cfg.PowerUpCycles)
			}
		}
	}

	// 2. Deadline sweep: a pending migration past its deadline degrades
	// even if its backoff or target power-up never let an attempt start.
	for _, m := range append([]*fleet.Migration(nil), ctr.Pending()...) {
		if r.installing[m] || b <= m.Deadline {
			continue
		}
		if deg := ctr.Fail(m, b); deg != nil {
			r.s.tel.Events.Log(obs.LevelWarn, b, "migration_timeout",
				"vn", m.VN, "to", m.To, "attempts", m.Attempts)
			r.degradeCleanup(*deg)
		}
	}

	// 3. Land installs whose write window completed.
	for _, dev := range r.devs {
		if dev.m != nil && dev.landAt >= 0 && b >= dev.landAt {
			if err := r.landInstall(dev); err != nil {
				return err
			}
		}
	}

	// 4. Start due attempts (backoff elapsed, target active and idle).
	for _, m := range ctr.Due(b) {
		if r.installing[m] || r.devs[m.To].m != nil {
			continue
		}
		if err := r.beginAttempt(m, b); err != nil {
			return err
		}
	}
	return nil
}

func (f fleetStressor) Outstanding() bool {
	r := f.r
	if r.ctr.Outstanding() {
		return true
	}
	for _, dev := range r.devs {
		if dev.m != nil {
			return true
		}
	}
	return false
}

// beginAttempt starts one journaled install attempt for migration m: the
// target device's new image set is compiled, the journal records intent and
// the write window opens (one word per cycle). A flaky device may kill the
// attempt at the journal boundary; the controller then paces the retry or
// degrades the victim.
func (r *fleetRun) beginAttempt(m *fleet.Migration, b int64) error {
	ctr, tel := r.ctr, r.s.tel
	ctr.Begin(m)
	r.frep.MigrationAttempts++
	rec := &r.frep.Migrations[r.mrec[m]]
	rec.Attempts = m.Attempts
	rec.To = m.To
	rec.ToScheme = m.ToScheme.String()
	rec.Retargets = m.Retargets

	dev := r.devs[m.To]
	engIdx := len(ctr.VNs(m.To))
	if m.ToScheme == core.VM {
		engIdx = 0
	}
	tok, err := dev.jr.Begin(ctrl.OpCommit, engIdx, m.VN, b)
	if err != nil {
		return err
	}
	if r.inj.FailMigration(m.To) {
		_ = tok.Abort(b)
		r.frep.MigrationFailures++
		rec.FailedAttempts++
		tel.Events.Log(obs.LevelWarn, b, "migration_fail",
			"vn", m.VN, "to", m.To, "attempt", m.Attempts)
		if deg := ctr.Fail(m, b); deg != nil {
			r.degradeCleanup(*deg)
		}
		return nil
	}

	newVNs := append(append([]int(nil), ctr.VNs(m.To)...), m.VN)
	rt, err := r.build(m.ToScheme, newVNs)
	if err != nil {
		return err
	}
	writes := rt.Images()[engIdx].Words()
	if dev.meter == nil {
		// A woken spare (or empty device) gets its meter now, so static
		// power accrues from the install onward.
		if dev.meter, err = r.newDeviceMeter(rt); err != nil {
			return err
		}
	}
	tok.Apply(0, writes, b)
	dev.m = m
	dev.tok = tok
	dev.pending = rt
	dev.writes = writes
	dev.landAt = b + int64(writes)
	// A merge rebuild (into or out of the shared-engine scheme) rewrites
	// every serving engine: the device blacks out until the install lands.
	dev.blackout = len(dev.lanes) > 0 &&
		(m.ToScheme == core.VM || dev.router.Config().Scheme == core.VM)
	if dev.blackout {
		for _, l := range dev.lanes {
			r.flush(l)
		}
	}
	r.installing[m] = true
	tel.Events.Log(obs.LevelInfo, b, "migration_start",
		"vn", m.VN, "from", m.From, "to", m.To, "scheme", m.ToScheme.String(),
		"attempt", m.Attempts, "writes", writes, "ready_at", dev.landAt)
	return nil
}

// landInstall commits a completed install: the journal closes, the device's
// simulators follow the new image set (appending one engine for a hitless
// expansion, swapping wholesale for a merge rebuild), the energy meter is
// rebuilt over the new power model, and the landed image is audited against
// the RIB oracle before the network rejoins service.
func (r *fleetRun) landInstall(dev *fleetDev) error {
	ctr, tel := r.ctr, r.s.tel
	m := dev.m
	at := dev.landAt
	if err := dev.tok.Commit(at); err != nil {
		return err
	}
	r.retireMeter(dev)
	var err error
	if dev.meter, err = r.newDeviceMeter(dev.pending); err != nil {
		return err
	}
	engIdx := len(ctr.VNs(m.To))
	if m.ToScheme == core.VM {
		engIdx = 0
	}
	// The install's word writes are control-plane energy on the landed
	// engine, attributed to the migrating network.
	dev.meter.AddWords(engIdx, m.VN, int64(dev.writes))

	newVNs := append(append([]int(nil), ctr.VNs(m.To)...), m.VN)
	if !dev.blackout && len(dev.lanes) > 0 {
		// Per-network images depend only on their own table, so the
		// surviving engines' images are byte-identical in the new build:
		// the expansion appends one lane while the others keep serving.
		dev.lanes = append(dev.lanes, newLane(dev.pending.Images()[engIdx], engIdx, dev.id, []int{m.VN}))
	} else {
		dev.serveRouter(dev.pending, newVNs)
	}
	dev.router = dev.pending
	r.auditDevice(dev, m, newVNs, at)
	ctr.Complete(m, at)
	delete(r.installing, m)

	r.frep.MigrationsDone++
	rec := &r.frep.Migrations[r.mrec[m]]
	rec.CommittedAt = at
	rec.MTTRCycles = at - m.CrashedAt
	rec.Attempts = m.Attempts
	rec.Writes = dev.writes
	tel.Events.Log(obs.LevelInfo, at, "migration_commit",
		"vn", m.VN, "from", m.From, "to", m.To, "attempts", m.Attempts,
		"writes", dev.writes, "mttr_cycles", rec.MTTRCycles)
	dev.clearInstall()
	return nil
}

// auditDevice replays oracle-known probes through the landed image: a
// merge rebuild audits every tenant through the shared engine, a hitless
// expansion audits the new engine. Faulted probes drop (allowed); a
// mismatch is a misforward and fails the run.
func (r *fleetRun) auditDevice(dev *fleetDev, m *fleet.Migration, vns []int, at int64) {
	var img *pipeline.Image
	var probes []pipeline.Probe
	if m.ToScheme == core.VM {
		img = dev.pending.Images()[0]
		for j, vn := range vns {
			probes = append(probes, auditProbes(r.s.tables[vn], r.s.refs[vn], j)...)
		}
	} else {
		img = dev.pending.Images()[len(vns)-1]
		probes = auditProbes(r.s.tables[m.VN], r.s.refs[m.VN], 0)
	}
	res := pipeline.AuditImage(img, probes)
	r.frep.add(res)
	level := obs.LevelInfo
	if res.Mismatches > 0 {
		level = obs.LevelError
	}
	r.s.tel.Events.Log(level, at, "invariant_audit",
		"device", dev.id, "vn", m.VN, "probes", res.Probes,
		"faulted", res.Faulted, "mismatches", res.Mismatches)
}

// ---- kernel ---------------------------------------------------------------

// RunSlice executes cycles [b, b+n): shaped Bernoulli arrivals into the
// per-network ingress queues (live slices only; a homeless or blacked-out
// network's arrivals drop), then one service step per active device's lanes
// per cycle — a browned-out device sits alternate cycles out.
func (r *fleetRun) RunSlice(b, n int64, live bool) (scenario.SliceStats, error) {
	ctr := r.ctr
	r.refresh()
	from := r.delivered
	for cyc := b; cyc < b+n; cyc++ {
		if live {
			r.arrive(cyc, nil)
		}
		for _, dev := range r.devs {
			if ctr.State(dev.id) != fleet.DevActive || dev.lanes == nil || dev.blackout {
				continue
			}
			if r.inj.BrownedOut(dev.id, cyc) {
				dev.browned++
				continue
			}
			for _, l := range dev.lanes {
				if res, done := r.serve(l); done {
					r.retire(l, dev.meter, res, cyc)
				}
			}
		}
	}

	// Static leakage for every powered device with a live model.
	for _, dev := range r.devs {
		if dev.meter != nil && ctr.PoweredAt(dev.id, b) {
			dev.meter.StaticSlice(n, 1)
		}
	}

	// Slice measurement: composite utilization over the initial fleet's
	// engine slots, per-network availability.
	for i := range r.utils {
		r.utils[i] = 0
	}
	for d := 0; d < r.frep.Devices; d++ {
		dev := r.devs[d]
		if r.engCnt[d] == 0 || dev.lanes == nil {
			continue
		}
		var sum float64
		for _, l := range dev.lanes {
			sum += l.util()
		}
		mean := sum / float64(len(dev.lanes))
		for i := 0; i < r.engCnt[d]; i++ {
			r.utils[r.engOff[d]+i] = mean
		}
	}
	installs := 0
	for _, dev := range r.devs {
		if dev.m != nil {
			installs++
		}
	}
	st := r.measure(n, live, from)
	st.Util = r.utils
	st.Scrubs, st.Updates = installs, len(ctr.Pending())
	st.Recoveries, st.DegradedVNs = r.frep.MigrationsDone, len(ctr.Degraded())
	return st, nil
}

// ---- runner ---------------------------------------------------------------

// runFleetScenario runs one fleet scenario: placement, the composed load
// kernel over per-device routers, device-scale chaos, failover and the
// unified report.
func (s *System) runFleetScenario(gen *traffic.Generator, spec scenario.Spec) (ScenarioReport, error) {
	fs := spec.Fleet
	r := &fleetRun{
		plane:      s.newPlane(gen, spec),
		installing: map[*fleet.Migration]bool{},
		mrec:       map[*fleet.Migration]int{},
		cache:      map[string]*core.Router{},
		baseCfg:    s.router.Config(),
	}
	r.est = func(sch core.Scheme, vns []int) (float64, error) {
		rt, err := r.build(sch, vns)
		if err != nil {
			return 0, err
		}
		bd, err := rt.ModelPower()
		if err != nil {
			return 0, err
		}
		return bd.Total(), nil
	}

	demands := make(map[int]fleet.Demand, s.k)
	peak := maxLoadFrac(spec.Load)
	for vn := 0; vn < s.k; vn++ {
		demands[vn] = fleet.Demand{LoadFrac: peak}
	}
	retryBase := spec.Slice / 4
	if retryBase < 1 {
		retryBase = 256
	}
	cfg := fleet.Config{
		Devices:        fs.Devices,
		Spares:         fs.Spares,
		SlotsPerDevice: 15,
		DeviceCapWatts: spec.DeviceCapW,
		CapWatts:       spec.CapW,
		Retry:          ctrl.Backoff{Base: retryBase, Jitter: 0.25, Seed: spec.Seed},
		MaxAttempts:    4,
		TimeoutCycles:  spec.Cycles,
		PowerUpCycles:  2 * spec.Slice,
	}
	r.cfg = cfg
	plan, err := fleet.Place(cfg, demands, r.est)
	if err != nil {
		return ScenarioReport{}, err
	}
	ctr, err := fleet.NewController(cfg, plan, demands, r.est)
	if err != nil {
		return ScenarioReport{}, err
	}
	r.ctr = ctr

	dc := faults.DeviceConfig{Seed: spec.Seed, Devices: fs.Devices, Window: spec.Cycles}
	if spec.Chaos != nil {
		dc.Crashes = spec.Chaos.DeviceCrashes
		dc.Brownouts = spec.Chaos.Brownouts
		dc.Flaky = spec.Chaos.FlakyDevices
	}
	inj, err := faults.NewDeviceInjector(dc)
	if err != nil {
		return ScenarioReport{}, err
	}
	r.inj = inj

	rep := r.rep
	frep := &FleetReport{Devices: fs.Devices, Spares: fs.Spares}
	r.frep = frep

	total := fs.Devices + fs.Spares
	r.devs = make([]*fleetDev, total)
	r.engOff = make([]int, fs.Devices)
	r.engCnt = make([]int, fs.Devices)
	r.powerUpAnnounced = make([]bool, total)
	composite := s.router.Design()
	composite.Devices = fs.Devices
	composite.Engines = nil
	for d := 0; d < total; d++ {
		dev := &fleetDev{id: d, jr: ctrl.NewJournal(), landAt: -1}
		dev.jr.SetEventLog(s.tel.Events)
		r.devs[d] = dev
		if d >= fs.Devices {
			continue // spare: powered down, no router
		}
		r.engOff[d] = len(composite.Engines)
		a := plan.Devices[d]
		if len(a.VNs) == 0 {
			continue
		}
		rt, err := r.build(a.Scheme, a.VNs)
		if err != nil {
			return ScenarioReport{}, err
		}
		dev.router = rt
		dev.serveRouter(rt, a.VNs)
		for _, img := range rt.Images() {
			r.maxWords += img.Words()
		}
		if dev.meter, err = r.newDeviceMeter(rt); err != nil {
			return ScenarioReport{}, err
		}
		design := rt.Design()
		composite.Engines = append(composite.Engines, design.Engines...)
		r.engCnt[d] = len(design.Engines)
	}

	// The fleet meter charges nothing itself, so it needs no cost model: its
	// engine axis is the device axis, which outlives migrations.
	r.meter = &energy.Meter{
		VNDynFJ:        make([]int64, s.k),
		EngineDynFJ:    make([]int64, total),
		DeviceStaticFJ: make([]int64, total),
	}
	r.utils = make([]float64, len(composite.Engines))

	for _, w := range inj.Brownouts() {
		s.tel.Events.Log(obs.LevelWarn, w.Start, "brownout_window",
			"device", w.Device, "start", w.Start, "end", w.End)
	}

	maxDrain := 16 + 4*(r.maxWords/int(spec.Slice)+1)
	if dc.Crashes > 0 {
		var backoffSum int64
		for a := 1; a <= cfg.MaxAttempts; a++ {
			backoffSum += cfg.Retry.Delay(a)
		}
		perVictim := int64(r.maxWords)*int64(cfg.MaxAttempts) + backoffSum + cfg.PowerUpCycles
		maxDrain += dc.Crashes * (cfg.SlotsPerDevice*int(perVictim/spec.Slice+1) + 8)
	}

	eng := s.engine()
	eng.Design = composite
	eng.Cycles = spec.Cycles
	eng.SliceCycles = spec.Slice
	eng.MaxDrainSlices = maxDrain
	eng.Stressors = []scenario.Stressor{fleetStressor{r: r}}
	eng.Kernel = r
	if err := eng.Run(); err != nil {
		return ScenarioReport{}, err
	}
	rep.TrafficCycles = eng.TrafficCycles
	rep.DrainCycles = eng.DrainCycles

	rep.Recovered = len(ctr.Degraded()) == 0 && !ctr.Outstanding()
	rep.Completed = !r.Outstanding()
	if (fleetStressor{r: r}).Outstanding() {
		rep.Completed = false
	}

	// Final per-device summaries and the fleet-wide energy report.
	for _, dev := range r.devs {
		r.retireMeter(dev)
	}
	frep.SpareActivations = ctr.SpareActivations()
	frep.PerDevice = make([]FleetDeviceReport, total)
	for d := 0; d < total; d++ {
		dr := &frep.PerDevice[d]
		dr.Device = d
		dr.State = ctr.State(d).String()
		dr.Scheme = ctr.Scheme(d).String()
		if d < fs.Devices {
			dr.PlacedVNs = append([]int(nil), plan.Devices[d].VNs...)
		}
		dr.VNs = append([]int(nil), ctr.VNs(d)...)
		dr.BrownedCycles = r.devs[d].browned
		if ctr.State(d) == fleet.DevActive && len(dr.VNs) > 0 {
			w, err := r.est(ctr.Scheme(d), dr.VNs)
			if err != nil {
				return ScenarioReport{}, err
			}
			dr.EstWatts = w
		}
	}
	rep.Fleet = frep

	if err := r.finish(r.meter); err != nil {
		return ScenarioReport{}, err
	}
	return *rep, nil
}
