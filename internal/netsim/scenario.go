package netsim

// This file is the composable scenario runner behind cmd/lookupsim
// -scenario: one engine-driven run in which a shaped offered load, SEU/kill
// fault injection, hitless update churn and a power cap all act on the same
// router at the same time. It is the only slice-driven runner on a single
// device: a load-only, faults-only or churn-only run is just a spec with
// one stressor. Each adversity source is a scenario.Stressor over shared
// run state — faults registered before churn, so a scrub decision at a
// boundary is visible to the same boundary's arm decision — and the kernel
// is a sequential per-cycle loop over the shared serving path of lane.go:
// per-network Bernoulli arrivals (probability from the load shape) wait in
// bounded ingress queues, each engine's lane injects one packet per cycle
// into a persistent parity-checking simulator (after any pending write
// bubble), and every exit is checked against the reference table of its
// injection epoch. Because arrivals share one generator stream and all
// control decisions run on the coordinator, the whole composed run is a
// pure function of its seeds — byte-identical at any -j.
//
// Cross-stressor semantics (the interesting part):
//
//   - A down engine (killed, reloading, dead) blackholes its arrivals and
//     flushes its in-flight lookups; its queued packets hold for recovery.
//   - A scrub reload rebuilds from the control plane's current tables, so
//     a repair that lands after a churn commit reloads the *churned*
//     routes — repair and update compose instead of fighting.
//   - A scrub on an engine with an update in flight aborts the update
//     (the reload would clobber its shadow writes); a batch aimed at a
//     dead engine is aborted too, so the run always terminates.
//   - The governor acts at the arrival/service grain (admission drops,
//     frequency-paced service, quiescing); a reloading engine's
//     utilization is pinned by the reload flags it reports, so caps and
//     scrubs interact the way the governor expects.

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/energy"
	"vrpower/internal/faults"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/update"
)

// Update instrumentation (surfaced by cmd/lookupsim -stats).
var (
	obsUpdateBatches = obs.NewCounter("netsim.update_batches")
	obsUpdateWrites  = obs.NewCounter("netsim.update_writes")
	obsUpdateBubbles = obs.NewCounter("netsim.update_bubbles")
)

// UpdateBatch is one applied churn batch's lifecycle.
type UpdateBatch struct {
	// VN is the updated network; Engine the pipeline it rewrote (the
	// network's own for VS, the shared engine 0 for VM).
	VN     int
	Engine int
	// RawOps is the generated batch size; CoalescedOps what survived
	// last-op-wins coalescing and was actually diffed.
	RawOps       int
	CoalescedOps int
	// Writes is the image-diff word count; Bubbles the write-bubble budget
	// spent installing it.
	Writes  int
	Bubbles int
	// ArmedAt is the cycle the batch entered the data plane; DoneAt the
	// cycle its commit bubble left the last stage. Their difference is the
	// update latency under load.
	ArmedAt int64
	DoneAt  int64
}

// LatencyCycles is the arm-to-commit update latency.
func (b UpdateBatch) LatencyCycles() int64 { return b.DoneAt - b.ArmedAt }

// ScenarioReport summarises a composed run: the load, fault, churn, chaos,
// fleet and governor sections over one shared packet accounting.
type ScenarioReport struct {
	// Spec is the scenario string the run was built from; Stressors the
	// active stressor names.
	Spec      string
	Stressors []string
	Scheme    core.Scheme
	K         int
	// TrafficCycles is the offered-traffic window (rounded up to whole
	// slices); DrainCycles the tail spent finishing repairs, commits,
	// queues and in-flight lookups.
	TrafficCycles int64
	DrainCycles   int64
	SliceCycles   int64
	// Per-VN packet accounting. Dropped counts governor drops, down-engine
	// blackholing, queue overflow and faulted lookups alike.
	OfferedPerVN   []int64
	DeliveredPerVN []int64
	DroppedPerVN   []int64
	// UnavailableCyclesPerVN counts traffic cycles each network's engine
	// was down, quantised to slices — the NV/VS vs VM asymmetry readout.
	UnavailableCyclesPerVN []int64
	// NoRoute counts delivered packets that correctly resolved to no route;
	// Mismatches oracle disagreements (zero for a correct build);
	// FaultedLookups parity refusals (dropped, never misforwarded).
	NoRoute        int64
	Mismatches     int64
	FaultedLookups int64
	// MeanDelayCycles is the average arrival-to-exit latency over delivered
	// packets; BacklogPeak the deepest any ingress queue set grew.
	MeanDelayCycles float64
	BacklogPeak     int
	// Fault section (empty without faults=/kill=).
	SEUs            []SEURecord
	Kill            *KillRecord
	Scrubs          int
	ScrubAttempts   int
	ScrubsExhausted int
	// Recovered reports every engine back in service and every upset
	// repaired by run end.
	Recovered bool
	// Churn section (empty without churn=).
	Batches        []UpdateBatch
	BatchesApplied int
	// BatchesAborted counts updates cancelled by a scrub on their engine or
	// aimed at a dead engine.
	BatchesAborted int
	UpdateWrites   int64
	PlannedBubbles int64
	// Chaos is the control-plane fault/recovery section (nil without
	// chaos=): injected faults, journal recoveries, watchdog ladder
	// accounting and post-recovery invariant audits.
	Chaos *ChaosReport
	// Fleet is the multi-device section (nil without fleet=): placement,
	// device lifecycle, failover migrations and their audits. The omitempty
	// tag keeps single-device reports (and their goldens) byte-unchanged.
	Fleet *FleetReport `json:",omitempty"`
	// Completed reports that every queue, in-flight lookup, repair and
	// batch finished inside the drain bound.
	Completed bool
	// Governor is the power-envelope controller's summary for capped runs
	// (power-cap= / power-cap-device= or an attached SetGovernor config).
	Governor *governor.Report
	// Energy is the run's attributed energy breakdown.
	Energy *energy.Report
}

// Availability returns the fraction of traffic cycles network vn's engine
// was in service.
func (r *ScenarioReport) Availability(vn int) float64 {
	if r.TrafficCycles == 0 {
		return 1
	}
	return 1 - float64(r.UnavailableCyclesPerVN[vn])/float64(r.TrafficCycles)
}

// DeliveredFraction returns delivered/offered over all networks.
func (r *ScenarioReport) DeliveredFraction() float64 {
	var off, del int64
	for i := range r.OfferedPerVN {
		off += r.OfferedPerVN[i]
		del += r.DeliveredPerVN[i]
	}
	if off == 0 {
		return 1
	}
	return float64(del) / float64(off)
}

// DetectedSEUs counts upsets with a detection stamp.
func (r *ScenarioReport) DetectedSEUs() int {
	n := 0
	for i := range r.SEUs {
		if r.SEUs[i].DetectedAt >= 0 {
			n++
		}
	}
	return n
}

// RepairedSEUs counts upsets whose engine was scrubbed clean.
func (r *ScenarioReport) RepairedSEUs() int {
	n := 0
	for i := range r.SEUs {
		if r.SEUs[i].RepairedAt >= 0 {
			n++
		}
	}
	return n
}

// MTTRCycles returns the mean repair latency (injection to reload complete)
// over repaired upsets, in cycles; 0 when nothing was repaired.
func (r *ScenarioReport) MTTRCycles() float64 {
	var sum float64
	n := 0
	for i := range r.SEUs {
		if r.SEUs[i].RepairedAt >= 0 {
			sum += float64(r.SEUs[i].RepairedAt - r.SEUs[i].Cycle)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanUpdateLatencyCycles is the average arm-to-commit latency over applied
// batches; 0 when none committed.
func (r *ScenarioReport) MeanUpdateLatencyCycles() float64 {
	if len(r.Batches) == 0 {
		return 0
	}
	var sum float64
	for _, b := range r.Batches {
		sum += float64(b.LatencyCycles())
	}
	return sum / float64(len(r.Batches))
}

// scenEng is one engine's composed-run state: its serving lane, the fault
// lifecycle (engState over the serving image) and the armed-update
// lifecycle.
type scenEng struct {
	*lane
	// fs is the fault lifecycle over the serving image (down/dead flags,
	// sweep cursor, outstanding upsets, pending reload).
	fs engState
	// Armed hitless update: the handle to commit, the post-update oracle to
	// swap in at the commit bubble, and the report record under
	// construction.
	handle *ctrl.HitlessUpdate
	newRef *ip.Table
	refVN  int
	batch  UpdateBatch
	doneAt int64
	// ch is the chaos stressor's per-engine state (journal token, dealt
	// fault, crash schedule); inert without chaos=.
	ch engChaos
}

// scenRun is the composed run's shared state: the serving plane plus the
// state the fault and churn stressors act on.
type scenRun struct {
	*plane

	engines []*scenEng

	// mgr is the control plane for churn and (when churn is active) scrub
	// rebuilds; nil without churn. in/scrubber drive faults; nil without.
	mgr      *ctrl.Manager
	in       *faults.Injector
	scrubber *ctrl.Scrubber
	started  int

	// Chaos machinery (nil without chaos=): the seeded control-plane fault
	// deck, one write-ahead journal per engine, and the shared watchdog.
	ci  *faults.CtrlInjector
	jrs []*ctrl.Journal
	wd  *ctrl.Watchdog

	gv    *scenario.GovRun
	meter *energy.Meter

	maxWords int

	// Per-slice measurement scratch.
	utils       []float64
	reloadFlags []bool
}

// refresh recomputes the per-network verdict from the engines' fault state.
func (r *scenRun) refresh() {
	for vn, e := range r.home {
		fs := &r.engines[e].fs
		r.down[vn], r.dead[vn] = fs.down(), fs.dead
	}
}

// commitUpdate finishes an engine's completed hitless update: the control
// plane installs the new table and image, the fault lifecycle's serving-
// image pointer follows the flipped shadow bank (SEUs and scrub rebuilds
// must target what the engine now reads), the journal closes the op and the
// live image is audited. Upsets that landed after the commit bubble drained
// are carried onto the new bank: PreSlice applies a whole slice's upsets to
// the old bank at slice start, so one landing after the mid-slice flip
// would otherwise sit in an image no engine reads, never detected and never
// repaired.
func (r *scenRun) commitUpdate(e *scenEng) error {
	rep, tel := r.rep, r.s.tel
	h := e.handle
	if _, err := h.Commit(); err != nil {
		return err
	}
	e.fs.img = h.Image()
	for _, i := range e.fs.outstanding {
		if u := rep.SEUs[i].Upset; u.Cycle > e.doneAt {
			faults.ApplyUpset(e.fs.img, u)
		}
	}
	e.batch.DoneAt = e.doneAt
	rep.Batches = append(rep.Batches, e.batch)
	rep.BatchesApplied++
	rep.UpdateWrites += int64(e.batch.Writes)
	rep.PlannedBubbles += int64(e.batch.Bubbles)
	obsUpdateBatches.Inc()
	obsUpdateWrites.Add(int64(e.batch.Writes))
	obsUpdateBubbles.Add(int64(e.batch.Bubbles))
	tel.Events.Log(obs.LevelInfo, e.doneAt, "update_commit",
		"vn", e.batch.VN, "engine", e.batch.Engine, "writes", e.batch.Writes,
		"bubbles", e.batch.Bubbles, "latency_cycles", e.batch.LatencyCycles())
	r.chaosOnCommit(e, e.doneAt)
	e.handle = nil
	e.newRef = nil
	e.doneAt = -1
	return nil
}

// abortUpdate cancels an engine's in-flight update (scrub reload would
// clobber its shadow writes). An update whose commit bubble already drained
// — shadow bank and oracle flipped — is past the point of no return: it is
// committed instead, so the control plane's tables never diverge from what
// the engine serves.
func (r *scenRun) abortUpdate(e *scenEng, b int64) error {
	if e.handle == nil {
		return nil
	}
	if e.doneAt >= 0 {
		return r.commitUpdate(e)
	}
	r.chaosCloseOp(e, b)
	e.handle.Abort()
	r.rep.BatchesAborted++
	r.s.tel.Events.Log(obs.LevelWarn, b, "update_abort",
		"vn", e.batch.VN, "engine", e.batch.Engine, "writes", e.batch.Writes)
	e.handle = nil
	e.newRef = nil
	e.doneAt = -1
	return nil
}

// ---- fault stressor -------------------------------------------------------

// scenFaults is the composed run's fault stressor: at each boundary it lands
// finished reloads and turns detection flags into scrubs; before each slice
// it applies the kill, injects the slice's upsets and advances the
// background readback sweep.
type scenFaults struct {
	scenario.NopStressor
	r *scenRun
}

func (scenFaults) Name() string { return "faults" }

// rebuild returns the scrub rebuild closure for engine e: from the control
// plane's current (possibly churned) tables when churn is active, from the
// router's original tables otherwise.
func (f scenFaults) rebuild(e int) func() (*pipeline.Image, error) {
	r := f.r
	if r.mgr == nil {
		return r.s.rebuildEngine(e)
	}
	return func() (*pipeline.Image, error) {
		imgs, err := r.mgr.PinnedImages()
		if err != nil {
			return nil, err
		}
		return imgs[e], nil
	}
}

func (f scenFaults) install(eIdx int, e *scenEng) {
	r := f.r
	rep, tel := r.rep, r.s.tel
	fs := &e.fs
	at := fs.repairAt
	tel.Events.Log(obs.LevelInfo, at, "scrub_done", "engine", eIdx, "repaired", len(fs.outstanding))
	if fs.killed && rep.Kill != nil && rep.Kill.Engine == eIdx {
		rep.Kill.RepairedAt = at
	}
	fs.img = fs.pending
	fs.pending = nil
	fs.reloading = false
	fs.killed = false
	fs.repairAt = -1
	fs.sweepStage, fs.sweepIdx = 0, 0
	for _, i := range fs.outstanding {
		rec := &rep.SEUs[i]
		rec.RepairedAt = at
		if rec.Cycle >= at {
			rec.RepairedAt = rec.Cycle + 1
		}
		if rec.DetectedAt < 0 {
			rec.DetectedAt = rec.RepairedAt
			rec.Via = ViaReload
			obsFaultsDetected.Inc()
		}
	}
	obsFaultsRepaired.Add(int64(len(fs.outstanding)))
	fs.outstanding = fs.outstanding[:0]
	fs.detectVia = ""
	// The repaired engine serves a fresh simulator over the clean image.
	e.sim = pipeline.NewSim(fs.img)
	e.sim.EnableParityCheck()
	r.chaosOnInstall(eIdx, e, at)
}

func (f scenFaults) startScrub(eIdx int, e *scenEng, b int64) error {
	r := f.r
	rep, tel := r.rep, r.s.tel
	fs := &e.fs
	via := fs.detectVia
	fs.detectVia = ""
	for _, i := range fs.outstanding {
		if rep.SEUs[i].DetectedAt < 0 {
			rep.SEUs[i].DetectedAt = b
			rep.SEUs[i].Via = via
			obsFaultsDetected.Inc()
		}
	}
	tel.Events.Log(obs.LevelInfo, b, "scrub_start", "engine", eIdx, "via", via, "outstanding", len(fs.outstanding))
	// Going down: in-flight lookups are lost, an in-flight update aborts
	// (or, past its commit bubble, completes).
	if err := r.abortUpdate(e, b); err != nil {
		return err
	}
	r.flush(e.lane)
	// The journal's intent record lands before the first stage write.
	r.chaosScrubBegin(eIdx, e, b)
	res, err := r.scrubber.Scrub(f.rebuild(eIdx))
	rep.Scrubs++
	rep.ScrubAttempts += res.Attempts
	if err != nil {
		rep.ScrubsExhausted++
		fs.dead = true
		r.chaosScrubDead(eIdx, e, b)
		tel.Events.Log(obs.LevelError, b, "engine_dead", "engine", eIdx, "attempts", res.Attempts)
		return nil
	}
	fs.reloading = true
	fs.pending = res.Image
	fs.repairAt = b + res.LatencyCycles
	// The reload rewrites every diffed word: control-plane energy on the
	// engine, attributed to its lowest served network.
	r.meter.AddWords(eIdx, e.vns[0], int64(res.Writes))
	tel.Events.Log(obs.LevelInfo, b, "scrub_reload",
		"engine", eIdx, "attempts", res.Attempts, "writes", res.Writes,
		"latency_cycles", res.LatencyCycles, "ready_at", fs.repairAt)
	r.chaosScrubArmed(eIdx, e, b, res.LatencyCycles)
	return nil
}

func (f scenFaults) Boundary(b int64, _ bool) error {
	r := f.r
	rep := r.rep
	for eIdx, e := range r.engines {
		fs := &e.fs
		if fs.killed && rep.Kill != nil && rep.Kill.Engine == eIdx && rep.Kill.DetectedAt < 0 {
			rep.Kill.DetectedAt = b
		}
		if fs.reloading && fs.repairAt <= b {
			f.install(eIdx, e)
		}
		if !fs.dead && !fs.reloading && (fs.detectVia != "" || fs.killed) {
			if fs.detectVia == "" {
				fs.detectVia = ViaHeartbeat
			}
			if err := f.startScrub(eIdx, e, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f scenFaults) PreSlice(b, n int64, draining bool) error {
	r := f.r
	rep, tel := r.rep, r.s.tel
	if !draining {
		for eIdx, e := range r.engines {
			if r.in.KillDue(eIdx, b+n) {
				e.fs.killed = true
				rep.Kill = &KillRecord{Engine: eIdx, Cycle: r.spec.Kill.Cycle, DetectedAt: -1, RepairedAt: -1}
				tel.Events.Log(obs.LevelError, r.spec.Kill.Cycle, "engine_kill", "engine", eIdx)
				// The kill takes the pipeline's contents with it.
				r.flush(e.lane)
			}
		}
		for eIdx, e := range r.engines {
			for _, u := range r.in.UpsetsThrough(eIdx, b+n) {
				faults.ApplyUpset(e.fs.img, u)
				rep.SEUs = append(rep.SEUs, SEURecord{Upset: u, DetectedAt: -1, RepairedAt: -1})
				e.fs.outstanding = append(e.fs.outstanding, len(rep.SEUs)-1)
				tel.Events.Log(obs.LevelWarn, u.Cycle, "seu_inject",
					"engine", eIdx, "seq", u.Seq, "stage", u.Stage, "index", int(u.Index), "bit", u.Bit)
			}
		}
	}
	for eIdx, e := range r.engines {
		if e.fs.down() {
			continue
		}
		scanned, hit := e.fs.sweepStep(int(n))
		r.meter.AddWords(eIdx, e.vns[0], int64(scanned))
		if hit && e.fs.detectVia == "" {
			e.fs.detectVia = ViaSweep
		}
	}
	return nil
}

func (f scenFaults) Outstanding() bool {
	for _, e := range f.r.engines {
		fs := &e.fs
		if fs.reloading || fs.killed {
			return true
		}
		if !fs.dead && len(fs.outstanding) > 0 {
			return true
		}
	}
	return false
}

// ---- churn stressor -------------------------------------------------------

// scenChurn is the composed run's update stressor: at each boundary it
// commits a finished batch, then arms the next (update.Churn →
// ctrl.BeginHitlessUpdate → pipeline.Sim.BeginUpdate), one batch in flight
// at a time.
// It runs after the fault stressor's boundary, so it never arms an update
// on an engine that just went down.
type scenChurn struct {
	scenario.NopStressor
	r *scenRun
}

func (scenChurn) Name() string { return "churn" }

func (c scenChurn) Boundary(b int64, _ bool) error {
	r := c.r
	rep, tel := r.rep, r.s.tel
	for _, e := range r.engines {
		if e.handle == nil || e.doneAt < 0 {
			continue
		}
		if err := r.commitUpdate(e); err != nil {
			return err
		}
	}
	for _, e := range r.engines {
		if e.handle != nil {
			return nil // one batch in flight at a time
		}
	}
	churn := r.spec.Churn
	if r.started >= churn.Batches {
		return nil
	}
	vn := churn.TargetVN
	if vn < 0 {
		vn = r.started % r.s.k
	}
	target := r.engines[r.home[vn]]
	if target.fs.dead {
		// The batch's engine is gone for good: abort rather than wait
		// forever, so the run terminates.
		rep.BatchesAborted++
		tel.Events.Log(obs.LevelWarn, b, "update_abort", "vn", vn, "engine", r.home[vn], "writes", 0)
		r.started++
		return nil
	}
	if target.fs.down() {
		return nil // engine mid-repair: retry at the next boundary
	}
	ops, err := update.Churn(r.mgr.Tables()[vn], churn.Ops, update.ChurnConfig{Seed: r.spec.Seed + int64(r.started)})
	if err != nil {
		return err
	}
	h, err := r.mgr.BeginHitlessUpdate(vn, ops)
	if err != nil {
		return err
	}
	e := r.engines[h.Engine()]
	if err := e.sim.BeginUpdate(h.Image(), h.Bubbles()); err != nil {
		h.Abort()
		return err
	}
	e.handle = h
	e.newRef = h.Table().Reference()
	e.refVN = vn
	e.doneAt = -1
	e.batch = UpdateBatch{
		VN:           vn,
		Engine:       h.Engine(),
		RawOps:       h.RawOps(),
		CoalescedOps: len(h.Ops()),
		Writes:       h.Writes(),
		Bubbles:      h.Bubbles(),
		ArmedAt:      b,
	}
	tel.Events.Log(obs.LevelInfo, b, "update_arm",
		"vn", vn, "engine", h.Engine(), "raw_ops", h.RawOps(), "coalesced_ops", len(h.Ops()),
		"writes", h.Writes(), "bubbles", h.Bubbles())
	r.chaosOnArm(e, h, b)
	r.started++
	return nil
}

func (c scenChurn) Outstanding() bool {
	r := c.r
	if r.started < r.spec.Churn.Batches {
		return true
	}
	for _, e := range r.engines {
		if e.handle != nil {
			return true
		}
	}
	return false
}

// ---- kernel ---------------------------------------------------------------

// RunSlice executes cycles [b, b+n): shaped Bernoulli arrivals into the
// ingress queues (live slices only), then one service step per engine per
// cycle — bubbles first, queued lookups second — all sequentially on the
// coordinator.
func (r *scenRun) RunSlice(b, n int64, live bool) (scenario.SliceStats, error) {
	gv := r.gv
	r.refresh()
	from := r.delivered
	for cyc := b; cyc < b+n; cyc++ {
		if live {
			r.arrive(cyc, gv)
		}
		// Service: one input slot per engine per cycle; write bubbles take
		// the slot first, then the engine's queues round-robin.
		for eIdx, e := range r.engines {
			if e.fs.down() || (gv != nil && !gv.EngineServes(eIdx)) {
				continue
			}
			var res pipeline.Result
			var done bool
			bubbled := false
			if e.sim.PendingBubbles() > 0 && !e.ch.crashed {
				if e.ch.crashAtBubble >= 0 && e.sim.PendingBubbles() <= e.ch.crashAtBubble {
					// The updater dies before its commit bubble: shadow
					// writes stop, the old bank keeps serving, and the
					// watchdog rolls the torn commit back at a boundary.
					r.chaosCrash(eIdx, e, cyc)
				} else {
					if e.sim.PendingBubbles() == 1 {
						// Commit bubble: the oracle flips with the shadow bank.
						r.refs[e.refVN] = e.newRef
					}
					var err error
					res, done, err = e.sim.InjectBubble()
					if err != nil {
						return scenario.SliceStats{}, err
					}
					r.meter.Bubble(eIdx, e.batch.VN)
					bubbled = true
				}
			}
			if !bubbled {
				res, done = r.serve(e.lane)
			}
			if done && r.retire(e.lane, r.meter, res, cyc) && e.fs.detectVia == "" {
				e.fs.detectVia = ViaAccess
			}
			if e.handle != nil && e.doneAt < 0 && !e.sim.Updating() {
				e.doneAt = cyc
			}
		}
	}

	// Slice measurement for the telemetry row and the governor's sample.
	updating, downEngines := 0, 0
	for eIdx, e := range r.engines {
		r.utils[eIdx] = e.util()
		if e.handle != nil {
			updating++
		}
		if e.fs.down() {
			downEngines++
		}
		r.reloadFlags[eIdx] = e.fs.reloading
	}
	st := r.measure(n, live, from)
	st.Util, st.Reloading = r.utils, r.reloadFlags
	st.Scrubs, st.Updates = downEngines, updating
	st.Recoveries, st.DegradedVNs = r.chaosSliceStats()
	return st, nil
}

// RunScenario runs one composed scenario: the spec's load shape, fault
// schedule, update churn and power caps acting together on this system.
// The report is a pure function of the spec and the generator's seed —
// byte-identical at any -j.
func (s *System) RunScenario(gen *traffic.Generator, spec scenario.Spec) (ScenarioReport, error) {
	if spec.Fleet != nil {
		// Fleet runs re-place the networks over their own per-device
		// routers; the single-router path below does not apply.
		return s.runFleetScenario(gen, spec)
	}
	scheme := s.router.Config().Scheme
	if spec.Churn != nil && spec.Churn.TargetVN >= s.k {
		return ScenarioReport{}, fmt.Errorf("netsim: churn target network %d outside [0,%d)", spec.Churn.TargetVN, s.k)
	}
	if spec.Kill != nil && spec.Kill.Engine >= len(s.router.Images()) {
		return ScenarioReport{}, fmt.Errorf("netsim: kill engine %d with %d engines", spec.Kill.Engine, len(s.router.Images()))
	}

	r := &scenRun{plane: s.newPlane(gen, spec), meter: s.meter()}
	// The cycle loop runs on the coordinator, so the run meter can feed the
	// per-lookup energy histogram without touching any worker hot path.
	r.meter.ObserveHist = true
	rep := r.rep

	// The serving images: the control plane's pinned compilation when churn
	// is active (successive recompilations diff word-for-word), clones of
	// the router's build images otherwise.
	var images []*pipeline.Image
	if spec.Churn != nil {
		mgr, err := ctrl.New(s.router.Config(), s.tables)
		if err != nil {
			return ScenarioReport{}, err
		}
		mgr.SetEventLog(s.tel.Events)
		if images, err = mgr.PinnedImages(); err != nil {
			return ScenarioReport{}, err
		}
		r.mgr = mgr
	} else {
		for _, img := range s.router.Images() {
			images = append(images, img.Clone())
		}
	}

	var stressors []scenario.Stressor
	if spec.Chaos != nil {
		// Chaos registers FIRST: its boundary repairs torn reloads and rolls
		// crashed commits back before faults would install or churn commit.
		ci, err := faults.NewCtrlInjector(faults.CtrlConfig{
			Seed:           spec.Seed,
			Stalls:         spec.Chaos.Stalls,
			Torn:           spec.Chaos.Torn,
			FalsePositives: spec.Chaos.FalsePositives,
			Crashes:        spec.Chaos.Crashes,
		})
		if err != nil {
			return ScenarioReport{}, err
		}
		wd, err := ctrl.NewWatchdog(ctrl.WatchdogPolicy{
			Backoff: ctrl.Backoff{Base: 256, Seed: spec.Seed},
		}, spec.Slice, s.tel.Events)
		if err != nil {
			return ScenarioReport{}, err
		}
		r.ci, r.wd = ci, wd
		r.jrs = make([]*ctrl.Journal, len(images))
		for i := range r.jrs {
			r.jrs[i] = ctrl.NewJournal()
			r.jrs[i].SetEventLog(s.tel.Events)
		}
		rep.Chaos = &ChaosReport{DegradedSlicesPerVN: make([]int64, s.k)}
		stressors = append(stressors, scenChaos{r: r})
	}
	if spec.SEURate > 0 || spec.Kill != nil {
		fc := faults.Config{Seed: spec.Seed, SEURate: spec.SEURate, ReconfigFailures: spec.ReconfigFailures}
		if spec.Kill != nil {
			fc.Kill = true
			fc.KillEngine = spec.Kill.Engine
			fc.KillCycle = spec.Kill.Cycle
		}
		in, err := faults.NewInjector(fc, images)
		if err != nil {
			return ScenarioReport{}, err
		}
		scrubber, err := ctrl.NewScrubber(ctrl.ScrubPolicy{}, in)
		if err != nil {
			return ScenarioReport{}, err
		}
		scrubber.SetEventLog(s.tel.Events)
		r.in = in
		r.scrubber = scrubber
		stressors = append(stressors, scenFaults{r: r})
	}
	if spec.Churn != nil {
		stressors = append(stressors, scenChurn{r: r})
	}

	gcfg := s.gov
	if spec.CapW > 0 || spec.DeviceCapW > 0 {
		gcfg = &governor.Config{CapWatts: spec.CapW, DeviceCapWatts: spec.DeviceCapW}
	}
	gv, err := scenario.NewGovRun(gcfg, s.plant(), len(images), s.k, s.tel.Events)
	if err != nil {
		return ScenarioReport{}, err
	}
	r.gv = gv

	r.engines = make([]*scenEng, len(images))
	for e, img := range images {
		// A merged engine serves every network, a per-network engine its own.
		vns := []int{e}
		if scheme == core.VM {
			vns = make([]int, s.k)
			for vn := range vns {
				vns[vn] = vn
			}
		}
		r.engines[e] = &scenEng{lane: newLane(img, e, e, vns), fs: engState{img: img, repairAt: -1}, doneAt: -1}
		if w := img.Words(); w > r.maxWords {
			r.maxWords = w
		}
	}
	for vn := range r.home {
		r.home[vn] = s.engineOf(vn)
	}
	r.utils = make([]float64, len(images))
	r.reloadFlags = make([]bool, len(images))

	maxDrain := 16 + 4*(r.maxWords/int(spec.Slice)+1)
	if spec.Churn != nil {
		maxDrain += 8 * spec.Churn.Batches
	}
	if spec.Chaos != nil {
		// Each stall/torn replays up to a full reload latency under watchdog
		// grace; each crash waits out a deadline before its batch re-arms.
		maxDrain += spec.Chaos.Total() * (4*(r.maxWords/int(spec.Slice)+1) + 12)
	}
	eng := s.engine()
	eng.Cycles = spec.Cycles
	eng.SliceCycles = spec.Slice
	eng.MaxDrainSlices = maxDrain
	eng.Gov = gv
	eng.Stressors = stressors
	eng.Kernel = r
	eng.Energy = r.meter
	if err := eng.Run(); err != nil {
		return ScenarioReport{}, err
	}
	rep.TrafficCycles = eng.TrafficCycles
	rep.DrainCycles = eng.DrainCycles

	rep.Recovered = true
	for _, e := range r.engines {
		if e.fs.down() || len(e.fs.outstanding) > 0 {
			rep.Recovered = false
		}
	}
	// The final boundary may have declared an engine dead.
	r.refresh()
	rep.Completed = !r.Outstanding()
	for _, st := range stressors {
		if st.Outstanding() {
			rep.Completed = false
		}
	}
	if gv != nil {
		rep.Governor = gv.Report()
	}
	if err := r.finish(r.meter); err != nil {
		return ScenarioReport{}, err
	}
	r.chaosFinalize()
	return *rep, nil
}
