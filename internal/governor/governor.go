// Package governor implements the closed-loop power-envelope controller:
// every slice it re-evaluates the paper's calibrated power models
// (internal/power) with *measured* per-engine utilization, compares the
// estimate against configured fleet-wide and per-device caps, and actuates
// a strict escalation ladder —
//
//  1. DVFS-style frequency stepping through fpga clock tiers (every dynamic
//     coefficient is linear in f, so power and throughput fall together),
//  2. quiescing whole engines, lowest-priority VNID first (NV additionally
//     powers the idle device off, shedding its static Watts; VS only sheds
//     the engine's dynamic share — the shared die stays lit), or, for the
//     merged scheme which cannot shed a single VNID, admission-controlling
//     the shared pipeline — the paper's VS-vs-VM isolation asymmetry,
//  3. hard brownout: every arrival dropped, with per-VNID accounting.
//
// Recovery walks the ladder back up under hysteresis: power must sit below
// a lower re-entry threshold for a hold window, a shared ctrl.Backoff pause
// must expire, and the model must predict that the higher rung stays under
// the cap (the governor owns the model, so for steady utilization the
// prediction is exact) — together these make oscillation structurally
// impossible for a stationary load. Transient spikes are first-class
// inputs: an engine mid-scrub-reload burns configuration-port power at
// full tilt while delivering nothing, so its utilization is pinned to 1.
//
// Every decision is a pure function of the observed samples; the harnesses
// call Observe from their single coordinating goroutine, so governed runs
// stay byte-identical at any worker count.
package governor

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/fpga"
	"vrpower/internal/obs"
	"vrpower/internal/power"
)

// Live gauges mirroring the most recent decision (surfaced by -stats and
// the -http /metrics endpoint during a governed run).
var (
	obsGovRung     = obs.NewGauge("governor.rung")
	obsGovPowerW   = obs.NewGauge("governor.power_w")
	obsGovCapW     = obs.NewGauge("governor.cap_w")
	obsGovFreqFrac = obs.NewGauge("governor.freq_frac")
	obsGovAdmit    = obs.NewGauge("governor.admit_frac")
	obsGovQuiesced = obs.NewGauge("governor.quiesced_engines")
)

// Config parameterises a governor. At least one cap must be positive.
type Config struct {
	// CapWatts is the fleet-wide power envelope; 0 disables the fleet cap.
	CapWatts float64
	// DeviceCapWatts caps each physical device; 0 disables per-device caps.
	DeviceCapWatts float64
	// LiftCycle removes the caps from this cycle on (a budget restored
	// mid-run — the recovery demonstration); 0 keeps them for the whole run.
	LiftCycle int64
}

// The fixed control-law constants. Recovery re-enters only while estimated
// power sits below cap×lowerFrac, after holdSlices consecutive
// under-threshold slices and once the recoveryBackoff pause (one slice's
// worth of base pause, doubling after every observed oscillation, bounded,
// with seeded jitter so simultaneous governors don't step in lockstep) has
// expired. The DVFS ladder is fpga.DefaultClockTiers; admitFracs is the
// merged scheme's descending admission ladder past the slowest clock tier.
const (
	lowerFrac  = 0.9
	holdSlices = 2
)

var (
	recoveryBackoff = ctrl.Backoff{Base: 1024, Max: 16384, Jitter: 0.25, Seed: 1}
	admitFracs      = []float64{0.75, 0.5, 0.25}
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CapWatts <= 0 && c.DeviceCapWatts <= 0 {
		return fmt.Errorf("governor: no cap configured (CapWatts and DeviceCapWatts both <= 0)")
	}
	if c.CapWatts < 0 || c.DeviceCapWatts < 0 {
		return fmt.Errorf("governor: negative cap (fleet %g, device %g)", c.CapWatts, c.DeviceCapWatts)
	}
	if c.LiftCycle < 0 {
		return fmt.Errorf("governor: lift cycle %d, want >= 0", c.LiftCycle)
	}
	return nil
}

// Plant is the controlled system: the router's calibrated power-model
// input (FMHz already at the placed fmax), its scheme, and the network
// count. The governor treats it as read-only.
type Plant struct {
	Design power.SystemDesign
	Scheme core.Scheme
	K      int
}

// Rung is one actuation point on the escalation ladder.
type Rung struct {
	// Name labels the rung in reports and events.
	Name string
	// FreqFrac is the clock fraction engines run at (1 = full fmax).
	FreqFrac float64
	// Quiesced marks engines whose clock is stopped entirely; nil = none.
	Quiesced []bool
	// AdmitFrac is the arrival fraction admitted to the shared pipeline
	// (merged-scheme rungs; 1 = admit everything).
	AdmitFrac float64
	// Brownout drops every arrival.
	Brownout bool
}

// QuiescedEngine reports whether engine e is quiesced at this rung.
func (r Rung) QuiescedEngine(e int) bool {
	return r.Quiesced != nil && e >= 0 && e < len(r.Quiesced) && r.Quiesced[e]
}

// ladder builds the scheme-specific escalation ladder: frequency tiers,
// then engine quiescing (per-engine schemes, lowest-priority VNID — the
// highest index — first) or admission control (the merged scheme), then
// brownout.
func ladder(p Plant) []Rung {
	tiers := fpga.DefaultClockTiers()
	engines := len(p.Design.Engines)
	rungs := make([]Rung, 0, len(tiers)+engines+len(admitFracs)+1)
	for i, f := range tiers {
		name := "full"
		if i > 0 {
			name = fmt.Sprintf("freq x%.2f", f)
		}
		rungs = append(rungs, Rung{Name: name, FreqFrac: f, AdmitFrac: 1})
	}
	slowest := tiers[len(tiers)-1]
	if p.Scheme == core.VM {
		// The merged engine serves all K networks from one structure: it
		// cannot shed a single VNID, only admit less of the shared flow.
		for _, a := range admitFracs {
			rungs = append(rungs, Rung{
				Name: fmt.Sprintf("admit x%.2f", a), FreqFrac: slowest, AdmitFrac: a,
			})
		}
	} else {
		// Separate engines shed whole networks, lowest priority (highest
		// VNID) first, always keeping engine 0 in service before brownout.
		for q := 1; q < engines; q++ {
			quiesced := make([]bool, engines)
			for e := engines - q; e < engines; e++ {
				quiesced[e] = true
			}
			rungs = append(rungs, Rung{
				Name:     fmt.Sprintf("quiesce vn>=%d", engines-q),
				FreqFrac: slowest, Quiesced: quiesced, AdmitFrac: 1,
			})
		}
	}
	all := make([]bool, engines)
	for e := range all {
		all[e] = true
	}
	rungs = append(rungs, Rung{Name: "brownout", FreqFrac: slowest, Quiesced: all, Brownout: true})
	return rungs
}

// Sample is one slice's measurement fed to Observe.
type Sample struct {
	// Cycle is the slice's start; Cycles its length.
	Cycle  int64
	Cycles int64
	// Util is the measured per-engine stage utilization over the slice.
	Util []float64
	// Reloading marks engines whose scrub reload was in flight this slice:
	// the configuration port burns power at full tilt while the engine
	// delivers nothing, so the governor pins their utilization to 1 — a
	// transient spike it must ride out, not learn from.
	Reloading []bool
}

// Decision is Observe's output: the measurement verdict for the slice just
// ended plus the actuation for the next one.
type Decision struct {
	// ObservedRung is the rung the sample was measured under; RungIndex and
	// Rung are the actuation chosen for the next slice.
	ObservedRung int
	RungIndex    int
	Rung         Rung
	// PowerW is the model's estimate for the observed slice; PerDeviceW its
	// per-device split.
	PowerW     float64
	PerDeviceW []float64
	// CapW/DeviceCapW are the caps active at the observation (0 once
	// lifted or when unset); Over reports a violation.
	CapW       float64
	DeviceCapW float64
	Over       bool
}

// Report is the deterministic end-of-run governor summary.
type Report struct {
	CapWatts       float64
	DeviceCapWatts float64
	LiftCycle      int64
	// Slices observed; ViolationSlices of them exceeded an active cap.
	Slices          int64
	ViolationSlices int64
	// Escalations/Deescalations count ladder moves; Oscillations counts
	// escalations undoing a just-completed de-escalation (zero under the
	// hysteresis contract).
	Escalations   int
	Deescalations int
	Oscillations  int
	// ConvergedAt is the first observed cycle from which estimated power
	// stayed under the active caps; -1 if the run ended in violation.
	ConvergedAt int64
	// PeakPowerW/FinalPowerW bracket the estimates; FinalRung is the
	// ladder position at the end of the run.
	PeakPowerW  float64
	FinalPowerW float64
	FinalRung   int
	// Rungs names the ladder; TimeAtRung is the cycles spent at each.
	Rungs      []string
	TimeAtRung []int64
	// Per-VNID degradation accounting, filled by the run's actuator:
	// Throttled counts arrivals refused by quiescing or admission control;
	// Brownout those dropped at the bottom rung. Deferred is always zero:
	// no runner defers arrivals any more, and the field stays only to keep
	// serialized reports stable.
	ThrottledPerVN []int64
	BrownoutPerVN  []int64
	DeferredPerVN  []int64
}

// Governor is the closed-loop controller. Not safe for concurrent use: the
// harnesses drive it from their single coordinating goroutine.
type Governor struct {
	cfg   Config
	plant Plant
	rungs []Rung
	cur   int
	log   *obs.EventLog

	rep         Report
	convergedAt int64
	hold        int
	lastChange  int64
	// lastMove is +1 after an escalation, -1 after a de-escalation, 0 at
	// start; an escalation while it is -1 is an oscillation.
	lastMove int
	lifted   bool
	// baseUtil remembers each engine's admission-normalised utilization
	// from when it last served — the recovery prediction's input for
	// engines a higher rung would wake back up.
	baseUtil []float64
}

// New builds a governor over the plant.
func New(cfg Config, p Plant) (*Governor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Design.Validate(); err != nil {
		return nil, fmt.Errorf("governor: plant: %w", err)
	}
	if p.K < 1 {
		return nil, fmt.Errorf("governor: plant K = %d, want >= 1", p.K)
	}
	g := &Governor{cfg: cfg, plant: p, rungs: ladder(p), convergedAt: -1}
	g.baseUtil = make([]float64, len(p.Design.Engines))
	for e, eng := range p.Design.Engines {
		g.baseUtil[e] = clamp01(eng.Utilization)
	}
	g.rep = Report{
		CapWatts:       cfg.CapWatts,
		DeviceCapWatts: cfg.DeviceCapWatts,
		LiftCycle:      cfg.LiftCycle,
		ConvergedAt:    -1,
		Rungs:          make([]string, len(g.rungs)),
		TimeAtRung:     make([]int64, len(g.rungs)),
		ThrottledPerVN: make([]int64, p.K),
		BrownoutPerVN:  make([]int64, p.K),
		DeferredPerVN:  make([]int64, p.K),
	}
	for i, r := range g.rungs {
		g.rep.Rungs[i] = r.Name
	}
	return g, nil
}

// SetEventLog attaches a structured event sink for governor decisions; nil
// detaches (the Log method is nil-safe).
func (g *Governor) SetEventLog(l *obs.EventLog) { g.log = l }

// Rungs returns the ladder length.
func (g *Governor) Rungs() int { return len(g.rungs) }

// Current returns the rung in force and its index.
func (g *Governor) Current() (Rung, int) { return g.rungs[g.cur], g.cur }

// CountThrottled charges one arrival refused by quiescing or admission
// control to network vn.
func (g *Governor) CountThrottled(vn int) {
	if vn >= 0 && vn < len(g.rep.ThrottledPerVN) {
		g.rep.ThrottledPerVN[vn]++
	}
}

// CountBrownout charges one hard-brownout drop to network vn.
func (g *Governor) CountBrownout(vn int) {
	if vn >= 0 && vn < len(g.rep.BrownoutPerVN) {
		g.rep.BrownoutPerVN[vn]++
	}
}

// capsAt returns the caps active at the given cycle (0 once lifted).
func (g *Governor) capsAt(cycle int64) (capW, devCapW float64) {
	if g.cfg.LiftCycle > 0 && cycle >= g.cfg.LiftCycle {
		return 0, 0
	}
	return g.cfg.CapWatts, g.cfg.DeviceCapWatts
}

// exceeds reports whether the estimate violates either active cap.
func exceeds(total float64, perDev []float64, capW, devCapW float64) bool {
	if capW > 0 && total > capW {
		return true
	}
	if devCapW > 0 {
		for _, w := range perDev {
			if w > devCapW {
				return true
			}
		}
	}
	return false
}

// estimateAt evaluates the power model at rung r for the given per-engine
// utilizations: the design's clock scaled by the rung's frequency fraction,
// quiesced engines contributing no dynamic power, and — when the design
// powers one device per engine (NV) — fully-quiesced devices powered off,
// shedding their static Watts too.
func (g *Governor) estimateAt(r Rung, util []float64) (total float64, perDev []float64) {
	d := g.plant.Design
	scale := d.StaticScale
	if scale == 0 {
		scale = 1
	}
	static := power.StaticWatts(d.Grade) * scale
	perDev = make([]float64, d.Devices)
	oneEach := d.Devices == len(d.Engines)
	for dev := range perDev {
		if oneEach && r.QuiescedEngine(dev) {
			continue // NV: the idle device is powered down entirely
		}
		perDev[dev] = static
	}
	f := d.FMHz * r.FreqFrac
	for e := range d.Engines {
		if r.QuiescedEngine(e) {
			continue // clock stopped: no dynamic power even without gating
		}
		u := 0.0
		if e < len(util) {
			u = clamp01(util[e])
		}
		perDev[d.EngineDevice(e)] += d.EngineDynamicWatts(e, u, f)
	}
	for _, w := range perDev {
		total += w
	}
	return total, perDev
}

// predictUnder reports whether the model predicts rung target stays under
// the lower hysteresis thresholds, using each engine's remembered
// serving-time utilization scaled by the target's admission fraction.
func (g *Governor) predictUnder(target int, lowW, devLowW float64) bool {
	if lowW <= 0 && devLowW <= 0 {
		return true // caps lifted: nothing to exceed
	}
	r := g.rungs[target]
	util := make([]float64, len(g.baseUtil))
	for e := range util {
		util[e] = clamp01(g.baseUtil[e] * r.AdmitFrac)
	}
	total, perDev := g.estimateAt(r, util)
	return !exceeds(total, perDev, lowW, devLowW)
}

// Observe feeds one slice's measurement and returns the verdict plus the
// actuation for the next slice. Escalation is immediate (one rung per
// violating slice, so convergence is bounded by the ladder length);
// de-escalation waits out the hysteresis hold, the backoff pause and the
// model's prediction.
func (g *Governor) Observe(s Sample) Decision {
	r := g.rungs[g.cur]
	observed := g.cur
	g.rep.Slices++
	g.rep.TimeAtRung[g.cur] += s.Cycles

	// Effective utilization: reloading engines pinned to 1 (transient
	// spike); serving engines also update the recovery prediction's memory.
	eff := make([]float64, len(g.baseUtil))
	for e := range eff {
		u := 0.0
		if e < len(s.Util) {
			u = clamp01(s.Util[e])
		}
		if s.Reloading != nil && e < len(s.Reloading) && s.Reloading[e] {
			u = 1
		} else if !r.QuiescedEngine(e) {
			b := u
			if r.AdmitFrac > 0 && r.AdmitFrac < 1 {
				// Deliberately unclamped: a service-saturated engine under
				// admission control reports u near 1, so the normalised
				// demand exceeds 1 — remembering that keeps the recovery
				// prediction from waking a rung the true load would
				// immediately push back over the cap.
				b = u / r.AdmitFrac
			}
			g.baseUtil[e] = b
		}
		eff[e] = u
	}

	total, perDev := g.estimateAt(r, eff)
	if total > g.rep.PeakPowerW {
		g.rep.PeakPowerW = total
	}
	g.rep.FinalPowerW = total

	capW, devCapW := g.capsAt(s.Cycle)
	if g.cfg.LiftCycle > 0 && !g.lifted && s.Cycle >= g.cfg.LiftCycle {
		g.lifted = true
		g.log.Log(obs.LevelInfo, s.Cycle, "governor_cap_lift",
			"cap_mw", mw(g.cfg.CapWatts), "device_cap_mw", mw(g.cfg.DeviceCapWatts))
	}
	over := exceeds(total, perDev, capW, devCapW)
	end := s.Cycle + s.Cycles // the decision takes effect at the next slice

	if over {
		g.rep.ViolationSlices++
		g.convergedAt = -1
		g.hold = 0
		if g.cur < len(g.rungs)-1 {
			if g.lastMove < 0 {
				g.rep.Oscillations++
				g.log.Log(obs.LevelError, end, "governor_oscillation",
					"rung", g.cur, "oscillations", g.rep.Oscillations)
			}
			g.cur++
			g.rep.Escalations++
			g.lastMove = 1
			g.lastChange = end
			g.log.Log(obs.LevelWarn, end, "governor_escalate",
				"rung", g.cur, "name", g.rungs[g.cur].Name,
				"power_mw", mw(total), "cap_mw", mw(capW))
		}
	} else {
		if g.convergedAt < 0 {
			g.convergedAt = s.Cycle
		}
		if g.cur > 0 {
			lowW, devLowW := capW*lowerFrac, devCapW*lowerFrac
			if exceeds(total, perDev, lowW, devLowW) {
				g.hold = 0 // inside the hysteresis band: hold position
			} else {
				g.hold++
				wait := recoveryBackoff.Delay(g.rep.Oscillations + 1)
				if g.hold >= holdSlices && end-g.lastChange >= wait &&
					g.predictUnder(g.cur-1, lowW, devLowW) {
					g.cur--
					g.rep.Deescalations++
					g.lastMove = -1
					g.lastChange = end
					g.hold = 0
					g.log.Log(obs.LevelInfo, end, "governor_deescalate",
						"rung", g.cur, "name", g.rungs[g.cur].Name,
						"power_mw", mw(total), "cap_mw", mw(capW))
				}
			}
		}
	}

	d := Decision{
		ObservedRung: observed,
		RungIndex:    g.cur,
		Rung:         g.rungs[g.cur],
		PowerW:       total,
		PerDeviceW:   perDev,
		CapW:         capW,
		DeviceCapW:   devCapW,
		Over:         over,
	}
	obsGovRung.SetInt(int64(g.cur))
	obsGovPowerW.Set(total)
	obsGovCapW.Set(capW)
	obsGovFreqFrac.Set(d.Rung.FreqFrac)
	obsGovAdmit.Set(d.Rung.AdmitFrac)
	quiesced := 0
	for e := range d.Rung.Quiesced {
		if d.Rung.Quiesced[e] {
			quiesced++
		}
	}
	obsGovQuiesced.SetInt(int64(quiesced))
	return d
}

// Assess evaluates the model at the full-speed rung without touching
// controller state — the observe-only path for batch runs (Forward) that
// have no slice clock to actuate on.
func (g *Governor) Assess(util []float64) Decision {
	total, perDev := g.estimateAt(g.rungs[0], util)
	capW, devCapW := g.capsAt(0)
	return Decision{
		Rung: g.rungs[0], PowerW: total, PerDeviceW: perDev,
		CapW: capW, DeviceCapW: devCapW,
		Over: exceeds(total, perDev, capW, devCapW),
	}
}

// Report returns a detached copy of the run summary.
func (g *Governor) Report() *Report {
	r := g.rep
	r.ConvergedAt = g.convergedAt
	r.FinalRung = g.cur
	r.Rungs = append([]string(nil), g.rep.Rungs...)
	r.TimeAtRung = append([]int64(nil), g.rep.TimeAtRung...)
	r.ThrottledPerVN = append([]int64(nil), g.rep.ThrottledPerVN...)
	r.BrownoutPerVN = append([]int64(nil), g.rep.BrownoutPerVN...)
	r.DeferredPerVN = append([]int64(nil), g.rep.DeferredPerVN...)
	return &r
}

// mw rounds Watts to integer milliwatts for event-log fields, keeping the
// JSONL byte-stable across platforms.
func mw(w float64) int64 { return int64(w*1000 + 0.5) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
