// Command lookupsim builds a router with real compiled lookup engines,
// drives it with generated traffic, cycle-accurately simulates every
// pipeline, and cross-checks each forwarded packet against the reference
// longest-prefix match — the end-to-end correctness harness. Independent
// engines simulate in parallel on a bounded worker pool; -j sizes it.
//
// With -faults the run becomes a robustness experiment: a seeded injector
// flips bits in the engines' memory images (and optionally kills an engine
// outright), per-stage parity and a background readback sweep detect the
// corruption, and the control plane scrubs the damaged engine back into
// service. With -churn it becomes a hitless-update experiment: seeded churn
// batches are coalesced, compiled, diffed against the serving images and
// applied as write bubbles interleaved with the live lookups — no reload,
// no blackhole. -load P drives an open-loop run at per-network load P.
// These three flag sets are sugar for a -scenario spec (printed in the
// report's Spec row), each run for -packets cycles:
//
//	-load P    load=const:P,queue=64
//	-faults    load=const:1/K,faults=seu:R[,kill=E@C],seed=<fault-seed>
//	-churn     load=const:1/K,churn=BxO[:vn=N],seed=<churn-seed>
//
// -mttr-report adds each upset's detect/repair lifecycle and -update-report
// each batch's lifecycle. Same seeds, same -j or not, same bytes.
//
// Usage:
//
//	lookupsim -scheme VM -k 4 -packets 10000 [-prefixes 1000] [-share 0.5]
//	          [-dist uniform|zipf] [-routed] [-frames] [-load 0.5]
//	          [-scenario load=...,faults=...,kill=...,reconfig-fail=...,churn=...,chaos=...,fleet=N:spare=M,power-cap=...]
//	          [-faults] [-fault-seed 1] [-seu-rate 1e-8]
//	          [-kill-engine N -kill-cycle C] [-mttr-report]
//	          [-churn] [-churn-seed 1] [-churn-batch 64] [-churn-batches 4]
//	          [-churn-vn N] [-update-report]
//	          [-trace-sample R] [-trace-buf N] [-trace-out F]
//	          [-timeseries-out F] [-events-out F] [-events-level L]
//	          [-http :addr] [-http-hold]
//	          [-power-cap W] [-power-cap-device W] [-power-cap-lift C]
//	          [-governor-report]
//	          [-j N] [-stats] [-seed 1]
//
// Telemetry: -trace-sample R flight-traces about fraction R of all lookups
// (deterministically — same seeds, same -j or not, same traces) into a ring
// of -trace-buf entries, dumped as JSONL to -trace-out. -timeseries-out
// writes the slice-quantised power/throughput/availability series as CSV;
// -events-out the structured control-plane event log as JSONL ("-" means
// stdout for any of the three). -http serves /metrics (Prometheus text),
// /timeseries.csv, /traces.jsonl, /events.jsonl and /debug/pprof/ live
// during the run; -http-hold keeps the process (and the endpoints) up after
// the run finishes, for scraping.
//
// With -power-cap (and/or -power-cap-device) the run is governed by the
// closed-loop power-envelope controller: every slice the paper's power
// models are re-evaluated on the measured utilization, and violations walk a
// strict escalation ladder — DVFS frequency stepping, engine quiescing
// (lowest-priority VNID first; the merged scheme admission-controls its
// shared pipeline instead), then brownout — with hysteretic, backoff-paced
// recovery that never oscillates. -power-cap-lift C removes the caps at
// cycle C to demonstrate recovery; -governor-report prints time-at-tier and
// per-VNID degradation. The caps govern -load, -faults and -churn runs too,
// since their sugar spec carries no power-cap= key. Same seeds, same -j or
// not, same bytes.
//
// With -scenario SPEC all of the above compose into ONE run: a comma-
// separated key=value spec selects a load shape, SEU faults, an engine
// kill, update churn, control-plane chaos and power caps together, e.g.
//
//	lookupsim -scheme VS -k 4 \
//	  -scenario load=surge,faults=seu:1e-9,churn=100x50,chaos=crash:2+stall:1,power-cap=45
//
// and the report covers every axis at once: per-VNID delivery and
// availability, SEU/scrub lifecycle, churn batch outcomes, journaled
// recovery (rollbacks/replays, watchdog ladder, invariant audits), and the
// governor's control-law summary. chaos=KIND:N[+KIND:N...] injects
// control-plane faults — crash (hitless commit dies mid-write), stall
// (scrub reload hangs), torn (reload dies half-written), falsepos (watchdog
// fires spuriously) — each recovered through the write-ahead journal to a
// defined image; the run exits nonzero if any post-recovery audit probe
// misforwards. The spec owns the stressor knobs (cycles=, seed=, queue=
// included), so combining -scenario with the legacy per-experiment flags is
// rejected — see docs/CLI.md for the full grammar. Same seeds, same -j or
// not, same bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"vrpower/internal/core"
	"vrpower/internal/energy"
	"vrpower/internal/governor"
	"vrpower/internal/netsim"
	"vrpower/internal/obs"
	"vrpower/internal/report"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

// options collects the parsed flags.
type options struct {
	scheme   string
	k        int
	packets  int
	prefixes int
	share    float64
	dist     string
	routed   bool
	frames   bool
	load     float64
	seed     int64
	scenario string

	faults     bool
	faultSeed  int64
	seuRate    float64
	killEngine int
	killCycle  int64
	mttrReport bool

	churn        bool
	churnSeed    int64
	churnBatch   int
	churnBatches int
	churnVN      int
	updateReport bool

	traceSample   float64
	traceBuf      int
	traceOut      string
	timeseriesOut string
	eventsOut     string
	eventsLevel   string
	httpAddr      string
	httpHold      bool

	powerCap       float64
	powerCapDevice float64
	powerCapLift   int64
	governorReport bool
	energyReport   bool
}

// governor builds the run's power-envelope governor configuration, or nil
// when no cap flag asked for one.
func (o *options) governor() *governor.Config {
	if o.powerCap <= 0 && o.powerCapDevice <= 0 {
		return nil
	}
	return &governor.Config{
		CapWatts:       o.powerCap,
		DeviceCapWatts: o.powerCapDevice,
		LiftCycle:      o.powerCapLift,
	}
}

// telemetry builds the run's observer bundle, or returns nil when no
// telemetry flag asked for one.
func (o *options) telemetry() *netsim.Telemetry {
	if o.traceSample <= 0 && o.traceOut == "" && o.timeseriesOut == "" &&
		o.eventsOut == "" && o.httpAddr == "" {
		return nil
	}
	t := &netsim.Telemetry{
		Series: obs.NewTimeSeries(),
		Events: obs.NewEventLog(obs.ParseLevel(o.eventsLevel)),
	}
	if o.traceSample > 0 {
		t.Sampler = obs.NewTraceSampler(o.traceSample, o.seed)
		t.Traces = obs.NewTraceRing(o.traceBuf)
	}
	return t
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lookupsim: ")
	var o options
	flag.StringVar(&o.scheme, "scheme", "VM", "router scheme: NV, VS or VM")
	flag.IntVar(&o.k, "k", 4, "number of virtual networks")
	flag.IntVar(&o.packets, "packets", 10000, "packets to forward (closed-loop batch) or traffic cycles (-load, -faults, -churn)")
	flag.IntVar(&o.prefixes, "prefixes", 1000, "routes per network")
	flag.Float64Var(&o.share, "share", 0.5, "prefix-space share across networks")
	flag.StringVar(&o.dist, "dist", "uniform", "traffic distribution: uniform or zipf")
	flag.BoolVar(&o.routed, "routed", true, "draw destinations from the routed space")
	flag.BoolVar(&o.frames, "frames", false, "drive the full frame path (parse -> lookup -> edit) instead of bare lookups")
	flag.Float64Var(&o.load, "load", 0, "per-VN offered load for an open-loop run (0 = closed-loop batch)")
	flag.StringVar(&o.scenario, "scenario", "", "composed scenario spec: comma-separated key=value stressors (load=, faults=, kill=, reconfig-fail=, churn=, chaos=, fleet=, power-cap=, ...; see docs/CLI.md)")
	flag.BoolVar(&o.faults, "faults", false, "run the fault-injection experiment (SEUs, detection, scrubbing)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the fault schedule (independent of -seed)")
	flag.Float64Var(&o.seuRate, "seu-rate", 1e-8, "SEU probability per data bit per cycle")
	flag.IntVar(&o.killEngine, "kill-engine", -1, "engine to hard-kill mid-run (-1 = none)")
	flag.Int64Var(&o.killCycle, "kill-cycle", 0, "cycle at which -kill-engine fails")
	flag.BoolVar(&o.mttrReport, "mttr-report", false, "print each upset's detect/repair lifecycle")
	flag.BoolVar(&o.churn, "churn", false, "run the hitless-update experiment (write bubbles under live traffic)")
	flag.Int64Var(&o.churnSeed, "churn-seed", 1, "seed for the churn schedule (independent of -seed)")
	flag.IntVar(&o.churnBatch, "churn-batch", 64, "route updates per churn batch")
	flag.IntVar(&o.churnBatches, "churn-batches", 4, "churn batches to apply over the run")
	flag.IntVar(&o.churnVN, "churn-vn", -1, "network every batch targets (-1 = round-robin)")
	flag.BoolVar(&o.updateReport, "update-report", false, "print each churn batch's lifecycle")
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "flight-trace sampling rate in [0,1] (0 = tracing off)")
	flag.IntVar(&o.traceBuf, "trace-buf", 4096, "flight-trace ring capacity (rounded up to a power of two)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write sampled flight traces as JSONL to this file (- = stdout)")
	flag.StringVar(&o.timeseriesOut, "timeseries-out", "", "write the per-slice telemetry series as CSV to this file (- = stdout)")
	flag.StringVar(&o.eventsOut, "events-out", "", "write the structured event log as JSONL to this file (- = stdout)")
	flag.StringVar(&o.eventsLevel, "events-level", "info", "minimum event severity to keep: debug, info, warn or error")
	flag.StringVar(&o.httpAddr, "http", "", "serve /metrics, /timeseries.csv, /traces.jsonl, /events.jsonl and /debug/pprof/ on this address (e.g. :9090)")
	flag.BoolVar(&o.httpHold, "http-hold", false, "keep the -http endpoints up after the run finishes (Ctrl-C to exit)")
	flag.Float64Var(&o.powerCap, "power-cap", 0, "fleet-wide power envelope in Watts enforced by the closed-loop governor (0 = ungoverned)")
	flag.Float64Var(&o.powerCapDevice, "power-cap-device", 0, "per-device power cap in Watts (0 = no device cap)")
	flag.Int64Var(&o.powerCapLift, "power-cap-lift", 0, "lift the caps from this cycle on, demonstrating recovery (0 = caps for the whole run)")
	flag.BoolVar(&o.governorReport, "governor-report", false, "print the governor's time-at-tier and per-VNID degradation detail")
	flag.BoolVar(&o.energyReport, "energy-report", false, "print the run's attributed energy breakdown (per VNID, per component, per device)")
	jobs := flag.Int("j", 0, "engine worker-pool size (0 = GOMAXPROCS); results are identical at any value")
	stats := flag.Bool("stats", false, "print run instrumentation to stderr on exit")
	flag.Int64Var(&o.seed, "seed", 1, "seed for tables and traffic")
	flag.Parse()

	if o.scenario != "" {
		if clash := scenarioConflicts(); len(clash) > 0 {
			log.Fatalf("-scenario composes its own stressors; drop %s and use the spec's load=/faults=/kill=/churn=/power-cap= keys instead",
				strings.Join(clash, ", "))
		}
	} else {
		o.scenario = legacySpec(o)
	}

	sweep.SetWorkers(*jobs)
	// Scope -stats to this run: flag parsing and future multi-run drivers
	// share the process-wide registry, so report the delta, not the totals.
	snap := obs.TakeSnapshot()
	err := run(o)
	if *stats {
		fmt.Fprint(os.Stderr, obs.ReportSince(snap))
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	var scheme core.Scheme
	switch o.scheme {
	case "NV":
		scheme = core.NV
	case "VS":
		scheme = core.VS
	case "VM":
		scheme = core.VM
	default:
		return fmt.Errorf("scheme %q: want NV, VS or VM", o.scheme)
	}

	set, err := rib.GenerateVirtualSet(o.k, o.prefixes, o.share, o.seed)
	if err != nil {
		return err
	}
	r, err := core.Build(core.Config{Scheme: scheme, K: o.k, ClockGating: true}, set.Tables)
	if err != nil {
		return err
	}
	sys, err := netsim.New(r, set.Tables)
	if err != nil {
		return err
	}

	tcfg := traffic.Config{K: o.k, Seed: o.seed + 1}
	if o.dist == "zipf" {
		tcfg.Dist = traffic.Zipf
		tcfg.ZipfS = 1.3
	}
	if o.routed {
		tcfg.Addr = traffic.RoutedAddr
		tcfg.Tables = set.Tables
	}
	gen, err := traffic.New(tcfg)
	if err != nil {
		return err
	}

	tel := o.telemetry()
	if tel != nil {
		sys.SetTelemetry(tel)
	}
	if gcfg := o.governor(); gcfg != nil {
		sys.SetGovernor(gcfg)
	}
	var srv *obs.Server
	if o.httpAddr != "" {
		srv, err = obs.Serve(o.httpAddr, obs.TelemetryMux(tel.Series, tel.Traces, tel.Events))
		if err != nil {
			return err
		}
		log.Printf("telemetry at http://%s/", srv.Addr())
	}
	err = dispatch(sys, gen, scheme, r, o)
	if tel != nil {
		if derr := dumpTelemetry(tel, o); derr != nil && err == nil {
			err = derr
		}
	}
	if srv != nil {
		if o.httpHold {
			log.Printf("run finished; holding -http endpoints open (-http-hold), Ctrl-C to exit")
			select {}
		}
		// Graceful teardown with a deadline: repeated smoke runs must not
		// collide on the port.
		if serr := srv.Shutdown(5 * time.Second); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// scenarioConflicts lists the explicitly-set legacy per-experiment flags
// that -scenario supersedes: the spec owns every stressor knob, so mixing
// the two would silently ignore one side.
func scenarioConflicts() []string {
	conflicting := map[string]bool{
		"faults": true, "fault-seed": true, "seu-rate": true,
		"kill-engine": true, "kill-cycle": true,
		"churn": true, "churn-seed": true, "churn-batch": true,
		"churn-batches": true, "churn-vn": true,
		"load": true, "frames": true, "packets": true,
		"power-cap": true, "power-cap-device": true, "power-cap-lift": true,
	}
	var clash []string
	flag.Visit(func(f *flag.Flag) {
		if conflicting[f.Name] {
			clash = append(clash, "-"+f.Name)
		}
	})
	return clash
}

// legacySpec renders the -load, -faults and -churn flag sets as the
// scenario spec they are sugar for, run for -packets cycles; "" when none
// was given. -faults takes precedence over -churn, and -churn over -load.
func legacySpec(o options) string {
	oneIn := strconv.FormatFloat(1/float64(o.k), 'g', -1, 64)
	var spec string
	switch {
	case o.faults:
		spec = "load=const:" + oneIn
		if o.seuRate > 0 {
			spec += ",faults=seu:" + strconv.FormatFloat(o.seuRate, 'g', -1, 64)
		}
		if o.killEngine >= 0 {
			spec += fmt.Sprintf(",kill=%d@%d", o.killEngine, o.killCycle)
		}
		spec += fmt.Sprintf(",seed=%d", o.faultSeed)
	case o.churn:
		spec = fmt.Sprintf("load=const:%s,churn=%dx%d", oneIn, o.churnBatches, o.churnBatch)
		if o.churnVN >= 0 {
			spec += fmt.Sprintf(":vn=%d", o.churnVN)
		}
		spec += fmt.Sprintf(",seed=%d", o.churnSeed)
	case o.load > 0:
		spec = "load=const:" + strconv.FormatFloat(o.load, 'g', -1, 64) + ",queue=64"
	default:
		return ""
	}
	return spec + fmt.Sprintf(",cycles=%d", o.packets)
}

// dispatch runs the experiment the flags selected.
func dispatch(sys *netsim.System, gen *traffic.Generator, scheme core.Scheme, r *core.Router, o options) error {
	if o.scenario != "" {
		return runScenario(sys, gen, scheme, o)
	}

	if o.frames {
		fr, err := gen.Frames(o.packets)
		if err != nil {
			return err
		}
		frep, err := sys.ForwardFrames(fr)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("%s frame path, K=%d, %d frames", scheme, o.k, frep.Frames),
			"Quantity", "Value")
		t.AddF("Forwarded", frep.Forwarded)
		t.AddF("Lookup mismatches", frep.Mismatches)
		t.AddF("Dropped: bad parse / unknown VN / no route / TTL",
			fmt.Sprintf("%d / %d / %d / %d", frep.BadParse, frep.UnknownVN, frep.NoRoute, frep.TTLExpired))
		fmt.Println(t.String())
		if frep.Mismatches != 0 {
			return fmt.Errorf("%d lookups disagreed with the reference LPM", frep.Mismatches)
		}
		return nil
	}

	rep, err := sys.Forward(gen.Batch(o.packets))
	if err != nil {
		return err
	}

	t := report.NewTable(
		fmt.Sprintf("%s forwarding, K=%d, %d packets", scheme, o.k, rep.Packets),
		"Quantity", "Value")
	t.AddF("Mismatches vs reference LPM", rep.Mismatches)
	t.AddF("No-route packets", rep.NoRoute)
	t.AddF("Clock (MHz)", fmt.Sprintf("%.1f", r.Fmax()))
	t.AddF("Aggregate throughput (Gbps)", fmt.Sprintf("%.1f", r.ThroughputGbps()))
	for e := range rep.PerEngine {
		st := rep.PerEngine[e]
		t.AddF(fmt.Sprintf("Engine %d load / occupancy / activity", e),
			fmt.Sprintf("%.3f / %.3f / %.3f", rep.EngineLoad[e], st.Occupancy(), st.Utilization()))
	}
	fmt.Println(t.String())
	// Batch runs have no slice clock to actuate on: the governor assesses
	// the measured utilization against the caps and reports only.
	if d, aerr := sys.AssessPower(rep); aerr != nil {
		return aerr
	} else if d != nil {
		verdict := "within cap"
		if d.Over {
			verdict = "EXCEEDS cap"
		}
		at := report.NewTable("Power assessment (batch run: observe-only)", "Quantity", "Value")
		at.AddF("Estimated power (W)", fmt.Sprintf("%.2f", d.PowerW))
		at.AddF("Fleet / device cap (W)", fmt.Sprintf("%.2f / %.2f", d.CapW, d.DeviceCapW))
		at.AddF("Verdict", verdict)
		fmt.Println(at.String())
	}
	if o.energyReport {
		printEnergy(rep.Energy)
	}
	if rep.Mismatches != 0 {
		return fmt.Errorf("%d lookups disagreed with the reference LPM", rep.Mismatches)
	}
	return nil
}

// printFleet renders the fleet stressor's section: per-device placement and
// end state, the crash schedule, every migration's lifecycle (attempts,
// retargets, MTTR), the degraded networks, and the post-install invariant
// audits.
func printFleet(f *netsim.FleetReport) {
	t := report.NewTable(
		fmt.Sprintf("Fleet stressor: %d devices + %d spares", f.Devices, f.Spares),
		"Quantity", "Value")
	t.AddF("Migrations planned / landed / attempts / failed attempts",
		fmt.Sprintf("%d / %d / %d / %d",
			len(f.Migrations), f.MigrationsDone, f.MigrationAttempts, f.MigrationFailures))
	t.AddF("Mean MTTR (cycles)", fmt.Sprintf("%.1f", f.MeanMTTRCycles()))
	t.AddF("Spares activated", f.SpareActivations)
	t.AddF("Networks degraded", len(f.Degraded))
	t.AddF("Invariant audits / probes / faulted / mismatches",
		fmt.Sprintf("%d / %d / %d / %d", f.Audits, f.AuditProbes, f.AuditFaulted, f.AuditMismatches))
	fmt.Println(t.String())

	dt := report.NewTable("Fleet devices", "Device", "State", "Scheme", "Placed VNs", "Final VNs", "Est W", "Browned cycles")
	for _, d := range f.PerDevice {
		dt.AddF(d.Device, d.State, d.Scheme,
			fmt.Sprintf("%v", d.PlacedVNs), fmt.Sprintf("%v", d.VNs),
			fmt.Sprintf("%.2f", d.EstWatts), d.BrownedCycles)
	}
	fmt.Println(dt.String())

	if len(f.Migrations) > 0 {
		mt := report.NewTable("Fleet migrations",
			"VN", "From", "To", "Scheme", "Crashed", "Committed", "MTTR", "Attempts", "Failed", "Retargets", "Writes")
		for _, m := range f.Migrations {
			committed, mttr := "-", "-"
			if m.CommittedAt >= 0 {
				committed = fmt.Sprintf("%d", m.CommittedAt)
				mttr = fmt.Sprintf("%d", m.MTTRCycles)
			}
			mt.AddF(m.VN, m.From, m.To, m.ToScheme, m.CrashedAt, committed, mttr,
				m.Attempts, m.FailedAttempts, m.Retargets, m.Writes)
		}
		fmt.Println(mt.String())
	}
	if len(f.Degraded) > 0 {
		gt := report.NewTable("Fleet degraded networks", "VN", "At", "Reason")
		for _, d := range f.Degraded {
			gt.AddF(d.VN, d.At, d.Reason)
		}
		fmt.Println(gt.String())
	}
}

// printGovernor renders a governor report: the headline control-law numbers
// always, plus time-at-tier and per-VNID degradation when detailed. All
// numbers come from the deterministic Report, so the output is byte-
// identical at any -j.
func printGovernor(g *governor.Report, detailed bool) {
	t := report.NewTable(
		fmt.Sprintf("Power governor: cap %.2f W fleet / %.2f W device, lift cycle %d",
			g.CapWatts, g.DeviceCapWatts, g.LiftCycle),
		"Quantity", "Value")
	t.AddF("Slices observed / in violation", fmt.Sprintf("%d / %d", g.Slices, g.ViolationSlices))
	t.AddF("Escalations / de-escalations / oscillations",
		fmt.Sprintf("%d / %d / %d", g.Escalations, g.Deescalations, g.Oscillations))
	conv := "never"
	if g.ConvergedAt >= 0 {
		conv = fmt.Sprintf("cycle %d", g.ConvergedAt)
	}
	t.AddF("Converged under cap", conv)
	t.AddF("Peak / final power (W)", fmt.Sprintf("%.2f / %.2f", g.PeakPowerW, g.FinalPowerW))
	t.AddF("Final rung", fmt.Sprintf("%d (%s)", g.FinalRung, g.Rungs[g.FinalRung]))
	var throttled, brownout int64
	for vn := range g.ThrottledPerVN {
		throttled += g.ThrottledPerVN[vn]
		brownout += g.BrownoutPerVN[vn]
	}
	t.AddF("Arrivals throttled / browned out", fmt.Sprintf("%d / %d", throttled, brownout))
	fmt.Println(t.String())

	if !detailed {
		return
	}
	lt := report.NewTable("Governor ladder: time at each tier", "Rung", "Name", "Cycles")
	for i, name := range g.Rungs {
		lt.AddF(i, name, g.TimeAtRung[i])
	}
	fmt.Println(lt.String())
	vt := report.NewTable("Governor per-VNID degradation", "VN", "Throttled", "Brownout")
	for vn := range g.ThrottledPerVN {
		vt.AddF(vn, g.ThrottledPerVN[vn], g.BrownoutPerVN[vn])
	}
	fmt.Println(vt.String())
}

// printEnergy renders a run's attributed energy breakdown: the headline
// totals and the Graphite-style component split always, plus the per-VNID
// and per-device attribution axes. Every number derives from the meter's
// integer femtojoule counters, so the output is byte-identical at any -j.
func printEnergy(e *energy.Report) {
	if e == nil {
		return
	}
	t := report.NewTable("Energy attribution (event-metered, integer femtojoules)", "Quantity", "Value")
	t.AddF("Total energy (J)", fmt.Sprintf("%.6e", e.TotalJ))
	t.AddF("Dynamic / static (J)", fmt.Sprintf("%.6e / %.6e", e.DynJ, e.StaticJ))
	t.AddF("Component memory / clock / control-plane (fJ)",
		fmt.Sprintf("%d / %d / %d", e.MemFJ, e.ClockFJ, e.CtrlFJ))
	t.AddF("Events: lookups / bubbles / words / transitions",
		fmt.Sprintf("%d / %d / %d / %d", e.Lookups, e.Bubbles, e.Words, e.Transitions))
	if e.DeliveredBits > 0 {
		t.AddF("Delivered bits", e.DeliveredBits)
		t.AddF("Energy per forwarded bit (J/bit)", fmt.Sprintf("%.6e", e.JPerBit))
	}
	fmt.Println(t.String())

	vt := report.NewTable("Per-VNID dynamic energy", "VN", "Dynamic (fJ)", "Share")
	var dyn int64
	for _, fj := range e.VNDynFJ {
		dyn += fj
	}
	for vn, fj := range e.VNDynFJ {
		share := 0.0
		if dyn > 0 {
			share = float64(fj) / float64(dyn)
		}
		vt.AddF(vn, fj, fmt.Sprintf("%.4f", share))
	}
	fmt.Println(vt.String())

	et := report.NewTable("Per-engine dynamic / per-device static", "Index", "Engine dyn (fJ)", "Device static (fJ)")
	rows := len(e.EngineDynFJ)
	if len(e.DeviceStaticFJ) > rows {
		rows = len(e.DeviceStaticFJ)
	}
	for i := 0; i < rows; i++ {
		engFJ, devFJ := "-", "-"
		if i < len(e.EngineDynFJ) {
			engFJ = fmt.Sprintf("%d", e.EngineDynFJ[i])
		}
		if i < len(e.DeviceStaticFJ) {
			devFJ = fmt.Sprintf("%d", e.DeviceStaticFJ[i])
		}
		et.AddF(i, engFJ, devFJ)
	}
	fmt.Println(et.String())
}

// writeOutput writes one telemetry dump to path; "-" means stdout.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpTelemetry writes the requested telemetry artifacts after the run.
func dumpTelemetry(tel *netsim.Telemetry, o options) error {
	if o.traceOut != "" {
		if err := writeOutput(o.traceOut, tel.Traces.WriteJSONL); err != nil {
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	if o.timeseriesOut != "" {
		if err := writeOutput(o.timeseriesOut, tel.Series.WriteCSV); err != nil {
			return fmt.Errorf("timeseries dump: %w", err)
		}
	}
	if o.eventsOut != "" {
		if err := writeOutput(o.eventsOut, tel.Events.WriteJSONL); err != nil {
			return fmt.Errorf("events dump: %w", err)
		}
	}
	return nil
}

// runScenario parses the -scenario spec, drives the composed run — every
// requested stressor in one slice-quantised engine — and prints the unified
// report: delivery and availability per VNID always, then a section per
// active stressor. All numbers come from the deterministic ScenarioReport,
// so the output is byte-identical at any -j.
func runScenario(sys *netsim.System, gen *traffic.Generator, scheme core.Scheme, o options) error {
	spec, err := scenario.Parse(o.scenario)
	if err != nil {
		return err
	}
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		return err
	}

	t := report.NewTable(
		fmt.Sprintf("%s composed scenario [%s], K=%d, %d traffic cycles (+%d drain), slice %d",
			scheme, strings.Join(rep.Stressors, " + "), rep.K,
			rep.TrafficCycles, rep.DrainCycles, rep.SliceCycles),
		"Quantity", "Value")
	t.AddF("Spec", rep.Spec)
	t.AddF("Load shape", spec.Load.String())
	t.AddF("Delivered fraction", fmt.Sprintf("%.4f", rep.DeliveredFraction()))
	t.AddF("Mean delay (cycles)", fmt.Sprintf("%.1f", rep.MeanDelayCycles))
	t.AddF("Backlog peak (pkts)", rep.BacklogPeak)
	t.AddF("Oracle mismatches", rep.Mismatches)
	t.AddF("No-route packets", rep.NoRoute)
	for vn := 0; vn < rep.K; vn++ {
		t.AddF(fmt.Sprintf("VN %d offered/delivered/dropped, availability", vn),
			fmt.Sprintf("%d / %d / %d, %.4f",
				rep.OfferedPerVN[vn], rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn], rep.Availability(vn)))
	}
	t.AddF("Completed", rep.Completed)
	fmt.Println(t.String())

	if spec.SEURate > 0 || spec.Kill != nil {
		ft := report.NewTable("Fault stressor", "Quantity", "Value")
		ft.AddF("SEUs injected / detected / repaired",
			fmt.Sprintf("%d / %d / %d", len(rep.SEUs), rep.DetectedSEUs(), rep.RepairedSEUs()))
		ft.AddF("Scrubs / attempts / exhausted",
			fmt.Sprintf("%d / %d / %d", rep.Scrubs, rep.ScrubAttempts, rep.ScrubsExhausted))
		ft.AddF("Mean time to repair (cycles)", fmt.Sprintf("%.1f", rep.MTTRCycles()))
		ft.AddF("Faulted lookups (dropped, not misforwarded)", rep.FaultedLookups)
		if rep.Kill != nil {
			ft.AddF(fmt.Sprintf("Engine %d kill at cycle %d", rep.Kill.Engine, rep.Kill.Cycle),
				fmt.Sprintf("detected %d, repaired %d", rep.Kill.DetectedAt, rep.Kill.RepairedAt))
		}
		ft.AddF("Recovered", rep.Recovered)
		fmt.Println(ft.String())
		if o.mttrReport && len(rep.SEUs) > 0 {
			mt := report.NewTable("SEU lifecycle (cycles)",
				"Seq", "Engine", "Stage/Index/Bit", "Injected", "Detected via", "Repaired", "TTR")
			for _, u := range rep.SEUs {
				det, repd, ttr := "-", "-", "-"
				if u.DetectedAt >= 0 {
					det = fmt.Sprintf("%d %s", u.DetectedAt, u.Via)
				}
				if u.RepairedAt >= 0 {
					repd = fmt.Sprintf("%d", u.RepairedAt)
					ttr = fmt.Sprintf("%d", u.RepairedAt-u.Cycle)
				}
				mt.AddF(u.Seq, u.Engine, fmt.Sprintf("%d/%d/%d", u.Stage, u.Index, u.Bit),
					u.Cycle, det, repd, ttr)
			}
			fmt.Println(mt.String())
		}
	}

	if spec.Churn != nil {
		ct := report.NewTable("Churn stressor", "Quantity", "Value")
		ct.AddF("Batches applied / aborted", fmt.Sprintf("%d / %d", rep.BatchesApplied, rep.BatchesAborted))
		ct.AddF("Stage writes / write bubbles", fmt.Sprintf("%d / %d", rep.UpdateWrites, rep.PlannedBubbles))
		ct.AddF("Mean update latency (cycles)", fmt.Sprintf("%.1f", rep.MeanUpdateLatencyCycles()))
		fmt.Println(ct.String())
		if o.updateReport && len(rep.Batches) > 0 {
			bt := report.NewTable("Churn batch lifecycle (cycles)",
				"Seq", "VN", "Engine", "Ops raw/coalesced", "Writes", "Bubbles", "Armed", "Committed", "Latency")
			for i, b := range rep.Batches {
				bt.AddF(i, b.VN, b.Engine, fmt.Sprintf("%d/%d", b.RawOps, b.CoalescedOps),
					b.Writes, b.Bubbles, b.ArmedAt, b.DoneAt, b.LatencyCycles())
			}
			fmt.Println(bt.String())
		}
	}

	if rep.Chaos != nil {
		ch := rep.Chaos
		xt := report.NewTable("Chaos stressor (control-plane faults)", "Quantity", "Value")
		xt.AddF("Injected crash / stall / torn / falsepos",
			fmt.Sprintf("%d / %d / %d / %d",
				ch.InjectedCrashes, ch.InjectedStalls, ch.InjectedTorn, ch.InjectedFalsePositives))
		xt.AddF("Journal rollbacks / replays", fmt.Sprintf("%d / %d", ch.Rollbacks, ch.Replays))
		xt.AddF("Journal ops begun / committed / aborted",
			fmt.Sprintf("%d / %d / %d", ch.JournalBegun, ch.JournalCommits, ch.JournalAborts))
		xt.AddF("Watchdog retries / false positives / escalations",
			fmt.Sprintf("%d / %d / %d", ch.WatchdogRetries, ch.FalsePositives, ch.Escalations))
		xt.AddF("Batches retried after rollback", ch.RetriedBatches)
		xt.AddF("Mean recovery latency (cycles)", fmt.Sprintf("%.1f", ch.MeanRecoveryCycles()))
		xt.AddF("Invariant audits / probes / faulted / mismatches",
			fmt.Sprintf("%d / %d / %d / %d", ch.Audits, ch.AuditProbes, ch.AuditFaulted, ch.AuditMismatches))
		for vn, n := range ch.DegradedSlicesPerVN {
			if n > 0 {
				xt.AddF(fmt.Sprintf("VN %d degraded slices", vn), n)
			}
		}
		fmt.Println(xt.String())
	}

	if rep.Fleet != nil {
		printFleet(rep.Fleet)
	}

	if rep.Governor != nil {
		printGovernor(rep.Governor, o.governorReport)
	}
	if o.energyReport {
		printEnergy(rep.Energy)
	}

	if rep.Mismatches != 0 {
		return fmt.Errorf("%d lookups disagreed with their epoch's reference LPM", rep.Mismatches)
	}
	if rep.Chaos != nil && rep.Chaos.AuditMismatches != 0 {
		return fmt.Errorf("%d invariant-audit probes misforwarded after recovery", rep.Chaos.AuditMismatches)
	}
	if rep.Fleet != nil && rep.Fleet.AuditMismatches != 0 {
		return fmt.Errorf("%d invariant-audit probes misforwarded after migration", rep.Fleet.AuditMismatches)
	}
	if !rep.Completed {
		return fmt.Errorf("run ended with repairs, updates or backlogs outstanding")
	}
	return nil
}
