package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"vrpower/internal/core"
	"vrpower/internal/netsim"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
)

// Paper scale: the largest table the paper evaluates (3725 prefixes per
// virtual network), K=8 networks at prefix-space share 0.5, routed uniform
// traffic — the lookupsim defaults at -k 8 -prefixes 3725.
const (
	paperK        = 8
	paperPrefixes = 3725
	paperShare    = 0.5
)

// workload is one benchmark input: a VS router at paper scale driven by a
// composed scenario spec. The spec's cycles= and seed= keys are appended
// per run (seed from --seed), so one workload name always means the same
// shape of work. See README.md for why each workload exists.
type workload struct {
	name   string
	spec   string
	cycles int64
	// instances is how many seeds one run covers (see instanceSeed). A
	// workload whose seeds take different paths through the simulator (crash
	// times, scrubs, governor rungs) averages over several, so one run's
	// throughput does not hang on one draw.
	instances int
}

var workloads = []workload{
	// Pure data plane: open-loop Bernoulli arrivals at 0.9 per network per
	// cycle, no stressor, every slice mutation-free.
	{name: "steady_load", spec: "load=const:0.9", cycles: 16384, instances: 1},
	// Writes beside reads: SEU scrubs, hitless churn, control-plane chaos
	// and a power cap just above the steady draw. The length was chosen for
	// the steadiness of lookups_per_s and keeps most traffic slices
	// mutating (mutatingSliceFrac; see README.md): churn stops once the
	// governor starves a batch, so a longer window dilutes it.
	{name: "control_churn", spec: "load=const:0.3,faults=seu:1e-11,churn=48x64,chaos=crash:2+stall:1+torn:1,power-cap=4.9,queue=32", cycles: 131072, instances: 2},
	// The Makefile fleet flagship at paper scale: two active devices plus
	// one dark spare under device crashes, flaky reconfigs and a brownout.
	{name: "fleet_failover", spec: "load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,queue=32", cycles: 65536, instances: 3},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instanceSeed is the seed of instance i of a run given --seed: tables
// from it, traffic from it + 1, and the scenario's seed= key.
func (w workload) instanceSeed(seed int64, i int) int64 {
	return seed*int64(w.instances) + int64(i)
}

// specFor renders the workload's full scenario string for one seed.
func (w workload) specFor(seed int64) string {
	return w.spec + ",cycles=" + strconv.FormatInt(w.cycles, 10) + ",seed=" + strconv.FormatInt(seed, 10)
}

// instance is one set-up system, ready for RunScenario.
type instance struct {
	set    *rib.VirtualSet
	router *core.Router
	sys    *netsim.System
	gen    *traffic.Generator
	tcfg   traffic.Config
	spec   scenario.Spec
}

// setupStep names one timed call of the set-up chain.
type setupStep struct {
	name string
	fn   func(*instance) error
}

// setupSteps is the chain every run pays before RunScenario, in the order
// cmd/lookupsim runs it: tables from the seed, traffic from seed+1.
func setupSteps(w workload, seed int64) []setupStep {
	return []setupStep{
		{"rib.GenerateVirtualSet", func(in *instance) (err error) {
			in.set, err = rib.GenerateVirtualSet(paperK, paperPrefixes, paperShare, seed)
			return err
		}},
		{"core.Build", func(in *instance) (err error) {
			in.router, err = core.Build(core.Config{Scheme: core.VS, K: paperK, ClockGating: true}, in.set.Tables)
			return err
		}},
		{"netsim.New", func(in *instance) (err error) {
			in.sys, err = netsim.New(in.router, in.set.Tables)
			return err
		}},
		{"traffic.New", func(in *instance) (err error) {
			in.tcfg = traffic.Config{K: paperK, Seed: seed + 1, Addr: traffic.RoutedAddr, Tables: in.set.Tables}
			in.gen, err = traffic.New(in.tcfg)
			return err
		}},
		{"scenario.Parse", func(in *instance) (err error) {
			in.spec, err = scenario.Parse(w.specFor(seed))
			return err
		}},
	}
}

// verdict is the correctness accounting of one RunScenario call.
type verdict struct {
	// Lookups counts oracle-checked lookups: every pipeline exit that was
	// not a parity drop was compared against its epoch's reference table.
	Lookups int64 `json:"lookups"`
	// Attempted counts operations: oracle-checked lookups plus invariant
	// audit probes. Failed counts the ones that failed (see check).
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Correct is false when an output is wrong: a run error, a misforward,
	// a broken per-network conservation on a completed run, a missing
	// energy report or an undigestable report.
	Correct bool `json:"correct"`
	// MutatingFrac is the report's mutatingSliceFrac.
	MutatingFrac float64 `json:"mutating_frac"`
	// Digest fingerprints the whole simulated report.
	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`
}

// check applies the benchmark's per-run correctness rules to a report. A
// misforward fails its own operations; a run that breaks conservation or
// ends incomplete or unrecovered fails all of them, just as cmd/lookupsim
// exits 1 on such a run. A run that returns an error also sets Correct to
// false, since it leaves no report whose operations could be counted.
func check(rep netsim.ScenarioReport, runErr error) verdict {
	if runErr != nil {
		// The report is void, so its operations cannot be counted: the
		// run is one failed operation and its output is wrong.
		return verdict{Attempted: 1, Failed: 1, Problems: []string{"run error: " + runErr.Error()}}
	}
	var v verdict
	v.Correct = true
	var delivered int64
	for _, d := range rep.DeliveredPerVN {
		delivered += d
	}
	v.Lookups = delivered + rep.Mismatches
	v.Attempted = v.Lookups
	v.Failed = rep.Mismatches
	if rep.Mismatches != 0 {
		v.Correct = false
		v.Problems = append(v.Problems, fmt.Sprintf("%d oracle mismatches", rep.Mismatches))
	}
	if c := rep.Chaos; c != nil {
		v.Attempted += int64(c.AuditProbes)
		v.Failed += int64(c.AuditMismatches)
		if c.AuditMismatches != 0 {
			v.Correct = false
			v.Problems = append(v.Problems, fmt.Sprintf("%d chaos audit mismatches", c.AuditMismatches))
		}
	}
	if f := rep.Fleet; f != nil {
		v.Attempted += int64(f.AuditProbes)
		v.Failed += int64(f.AuditMismatches)
		if f.AuditMismatches != 0 {
			v.Correct = false
			v.Problems = append(v.Problems, fmt.Sprintf("%d fleet audit mismatches", f.AuditMismatches))
		}
	}
	if rep.Energy == nil {
		v.Correct = false
		v.Problems = append(v.Problems, "no energy report")
	}
	runFailed := false
	if !rep.Completed {
		runFailed = true
		v.Problems = append(v.Problems, "Completed=false")
	}
	if !rep.Recovered {
		runFailed = true
		v.Problems = append(v.Problems, "Recovered=false")
	}
	if rep.Completed {
		for vn := range rep.OfferedPerVN {
			if rep.OfferedPerVN[vn] != rep.DeliveredPerVN[vn]+rep.DroppedPerVN[vn] {
				runFailed = true
				v.Correct = false
				v.Problems = append(v.Problems, fmt.Sprintf("vn %d: offered %d != delivered %d + dropped %d",
					vn, rep.OfferedPerVN[vn], rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn]))
			}
		}
	}
	if runFailed {
		v.Failed = v.Attempted
	}
	if v.Attempted == 0 {
		v.Attempted, v.Failed = 1, 1
		v.Problems = append(v.Problems, "no operations")
	}
	d, err := digest(rep)
	if err != nil {
		v.Correct = false
		v.Problems = append(v.Problems, err.Error())
	}
	v.Digest = d
	v.MutatingFrac = mutatingSliceFrac(rep)
	return v
}

// mutatingSliceFrac is the share of traffic slices in which the control
// plane was changing an engine's state: a hitless batch in flight (armed
// at or before the slice's last cycle and committed at or after its first)
// or an upset between detection and repair (a scrub under way). A slice
// like that cannot be served as one batch of independent lookups. Batches
// that never commit are missing from the report and are not counted.
func mutatingSliceFrac(rep netsim.ScenarioReport) float64 {
	if rep.SliceCycles <= 0 || rep.TrafficCycles <= 0 {
		return 0
	}
	slices := rep.TrafficCycles / rep.SliceCycles
	var mutating int64
	for s := int64(0); s < slices; s++ {
		lo, hi := s*rep.SliceCycles, (s+1)*rep.SliceCycles-1
		busy := false
		for _, b := range rep.Batches {
			busy = busy || (b.ArmedAt <= hi && b.DoneAt >= lo)
		}
		for _, u := range rep.SEUs {
			busy = busy || (u.DetectedAt >= 0 && u.DetectedAt <= hi && (u.RepairedAt < 0 || u.RepairedAt >= lo))
		}
		if busy {
			mutating++
		}
	}
	return float64(mutating) / float64(slices)
}

// digest fingerprints the simulated report. The report is a pure function
// of the workload and seed, so every repetition must produce the same
// digest, and a change that only speeds the simulator up must leave it as
// it was at the parent commit.
func digest(rep netsim.ScenarioReport) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
