package main

// The traced run. The program has no spans of its own yet, so the per-layer
// breakdown is taken from outside: after one plain and one profiled
// RunScenario, the benchmark replays each layer's public calls with the
// counts the run's ScenarioReport gives and, where it can, the same seeded
// inputs (the same traffic generator seed, tables, images and churn seeds).
// Every replayed call group is a span (name, start, end, parent), batched
// per simulated slice, kept in memory and written out at exit. A layer's
// busy time is the self time of its spans; netsim.self_s is the traced
// RunScenario time minus the replayed busy time of every layer, so the
// layers and netsim.self_s sum to the run by construction, and
// trace.unexplained_frac says how much of the run no replayed layer
// accounts for.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"vrpower/internal/traffic"
)

// span is one timed call group. Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

// tracer records spans in memory.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost span, which must be id, crediting it calls.
func (t *tracer) end(id int, calls int64) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Calls = calls
}

// do runs fn inside a span and credits it the calls fn returns.
func (t *tracer) do(name string, fn func() int64) {
	id := t.begin(name)
	t.end(id, fn())
}

// totals sums self time (span minus children) by the layer prefix of each
// span name ("pipeline.Inject" → "pipeline") and by full name, and calls by
// full name, over the subtree under root.
func (t *tracer) totals(root int) (layer, name map[string]time.Duration, calls map[string]int64) {
	layer, name, calls = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int64{}
	under := map[int]bool{root: true}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if under[s.Parent] {
			under[s.ID] = true
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.ID == root || !under[s.ID] {
			continue
		}
		self := time.Duration(s.End - s.Start - child[s.ID])
		l, _, _ := strings.Cut(s.Name, ".")
		layer[l] += self
		name[s.Name] += self
		calls[s.Name] += s.Calls
	}
	return layer, name, calls
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLayers is the replayed layers whose busy time the traced run is split
// into, in print order; netsim.self_s is the remainder.
var runLayers = []string{"rib", "core", "traffic", "pipeline", "ip", "energy", "governor", "ctrl", "fleet"}

// passResult is one traced pass: the per-layer metrics plus the verdicts of
// its two RunScenario calls.
type passResult struct {
	metrics  map[string]metric
	verdicts []verdict
	shares   map[string]float64
	profile  []byte
	// extra holds printout-only figures that are not per-layer metrics.
	extra map[string]float64
}

// runTrace sets up once with spans around each set-up call, then repeats
// traced passes for the window and reports the median pass.
func runTrace(w workload, seed int64, window time.Duration, outDir string) error {
	start := time.Now()
	seed = w.instanceSeed(seed, 0)
	tr := newTracer()
	in := &instance{}
	setupID := tr.begin("setup")
	setupSelf := map[string]time.Duration{}
	for _, st := range setupSteps(w, seed) {
		id := tr.begin(st.name)
		t0 := time.Now()
		if err := st.fn(in); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		setupSelf[st.name] = time.Since(t0)
		tr.end(id, 1)
	}
	tr.end(setupID, 0)

	var passes []passResult
	// As in runEndToEnd, a pass starts only if it should end in the window.
	for len(passes) == 0 || time.Since(start)*time.Duration(len(passes)+1)/time.Duration(len(passes)) <= min(window, wallCap/2) {
		p, err := tracedPass(tr, in, setupSelf)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}

	res := result{Correct: true}
	var digests []string
	for _, p := range passes {
		for _, v := range p.verdicts {
			res.Attempted += v.Attempted
			res.Failed += v.Failed
			res.Correct = res.Correct && v.Correct
			digests = append(digests, v.Digest)
		}
	}
	for _, d := range digests {
		res.Correct = res.Correct && d == digests[0]
	}
	// Report the pass whose traced run took the median time, whole, so its
	// layers and netsim.self_s still sum to its run.
	sort.Slice(passes, func(i, j int) bool { return passes[i].extra["run_s"] < passes[j].extra["run_s"] })
	mid := passes[(len(passes)-1)/2]
	res.Metrics = mid.metrics

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	profPath := base + ".cpu.pprof"
	if err := os.WriteFile(profPath, mid.profile, 0o644); err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d: %d traced passes in %.1f s (spec %s)\n",
		w.name, seed, len(passes), time.Since(start).Seconds(), w.specFor(seed))
	fmt.Printf("  digest %s (identical across %d runs: %v)\n", digests[0], len(digests), allSame(digests))
	fmt.Printf("  spans: %s (%d spans)\n  cpu profile: %s\n", base+".spans.jsonl", len(tr.spans), profPath)
	fmt.Printf("  per-layer figures from the pass with the median traced run time\n")
	printLayers(res.Metrics, mid.extra)
	printProfile(profPath, mid.shares)
	return printJSON(res)
}

func allSame(xs []string) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// tracedPass runs one plain RunScenario, one under the CPU profiler with
// allocation counting, and the replay of every layer.
func tracedPass(tr *tracer, in *instance, setupSelf map[string]time.Duration) (passResult, error) {
	var p passResult

	gen, err := traffic.New(in.tcfg)
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	rep, runErr := in.sys.RunScenario(gen, in.spec)
	plain := time.Since(t0)
	p.verdicts = append(p.verdicts, check(rep, runErr))

	if gen, err = traffic.New(in.tcfg); err != nil {
		return p, err
	}
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runID := tr.begin("netsim.RunScenario")
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return p, err
	}
	t1 := time.Now()
	rep, runErr = in.sys.RunScenario(gen, in.spec)
	traced := time.Since(t1)
	pprof.StopCPUProfile()
	tr.end(runID, 1)
	runtime.ReadMemStats(&ms1)
	v := check(rep, runErr)
	p.verdicts = append(p.verdicts, v)
	p.profile = prof.Bytes()
	if runErr != nil {
		return p, fmt.Errorf("traced run: %w", runErr)
	}

	replayID := tr.begin("replay")
	rp, err := newReplay(tr, in, rep)
	if err != nil {
		return p, err
	}
	if err := rp.run(); err != nil {
		return p, err
	}
	tr.end(replayID, 0)
	layer, byName, calls := tr.totals(replayID)

	headID := tr.begin("headroom")
	batchNS, err := rp.batchHeadroom()
	if err != nil {
		return p, err
	}
	tr.end(headID, 0)

	var sum time.Duration
	p.shares = map[string]float64{}
	for _, l := range runLayers {
		sum += layer[l]
		p.shares[l] = layer[l].Seconds() / traced.Seconds()
	}
	netsimSelf := traced - sum
	p.shares["netsim"] = netsimSelf.Seconds() / traced.Seconds()

	lookups := float64(v.Lookups)
	if lookups == 0 {
		lookups = 1
	}
	sec := func(d time.Duration) metric { return metric{d.Seconds(), "s"} }
	count := func(n int64) metric { return metric{float64(n), "count"} }
	perCall := func(d time.Duration, n int64) metric {
		if n == 0 {
			return metric{0, "ns"}
		}
		return metric{float64(d.Nanoseconds()) / float64(n), "ns"}
	}
	frac := func(num, den int) metric {
		if den == 0 {
			return metric{1, "frac"} // nothing attempted, nothing wasted
		}
		return metric{float64(num) / float64(den), "frac"}
	}
	injects := calls["pipeline.Inject"] + calls["pipeline.InjectBubble"]
	injectBusy := byName["pipeline.Inject"] + byName["pipeline.InjectBubble"]
	st := rp.stats
	p.metrics = map[string]metric{
		"rib.generate_s":      sec(setupSelf["rib.GenerateVirtualSet"]),
		"rib.reference_calls": count(calls["rib.Reference"]),
		"rib.reference_s":     sec(layer["rib"]),
		// core.Build runs once in set-up and again for every router the
		// fleet runner compiles to test a fit or land an install.
		"core.build_calls":              count(1 + calls["core.Build"]),
		"core.build_s":                  sec(setupSelf["core.Build"] + byName["core.Build"]),
		"traffic.calls":                 count(calls["traffic.Generator"]),
		"traffic.busy_s":                sec(layer["traffic"]),
		"pipeline.inject_calls":         count(injects),
		"pipeline.inject_ns":            perCall(injectBusy, injects),
		"pipeline.busy_s":               sec(layer["pipeline"]),
		"pipeline.batch_ns":             {batchNS, "ns"},
		"pipeline.audit_calls":          count(calls["pipeline.AuditImage"]),
		"pipeline.audit_s":              sec(byName["pipeline.AuditImage"]),
		"ip.lookup_calls":               count(calls["ip.Lookup"]),
		"ip.lookup_ns":                  perCall(layer["ip"], calls["ip.Lookup"]),
		"ip.busy_s":                     sec(layer["ip"]),
		"energy.calls":                  count(calls["energy.Meter"]),
		"energy.busy_s":                 sec(layer["energy"]),
		"governor.calls":                count(calls["governor.GovRun"]),
		"governor.busy_s":               sec(layer["governor"]),
		"ctrl.update_calls":             count(calls["ctrl.BeginHitlessUpdate"] + calls["ctrl.Commit"] + calls["ctrl.Abort"]),
		"ctrl.update_s":                 sec(layer["ctrl"] - byName["ctrl.Scrub"]),
		"ctrl.commit_frac":              frac(st.applied, st.applied+st.aborted),
		"ctrl.scrub_calls":              count(calls["ctrl.Scrub"]),
		"ctrl.scrub_s":                  sec(byName["ctrl.Scrub"]),
		"ctrl.scrub_useful_frac":        frac(rep.Scrubs, rep.ScrubAttempts),
		"fleet.place_s":                 sec(layer["fleet"]),
		"fleet.fit_builds":              count(rp.fitBuilds),
		"fleet.migration_landed_frac":   frac(st.landed, st.migrationAttempts),
		"fleet.degraded_vns":            count(int64(st.degraded)),
		"netsim.self_s":                 sec(netsimSelf),
		"netsim.alloc_bytes_per_lookup": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / lookups, "B"},
		"netsim.allocs_per_lookup":      {float64(ms1.Mallocs-ms0.Mallocs) / lookups, "count"},
		"netsim.queue_delay_cycles":     {rep.MeanDelayCycles, "cycles"},
		"netsim.backlog_peak":           count(int64(rep.BacklogPeak)),
		"netsim.drain_cycles":           {float64(rep.DrainCycles), "cycles"},
		"netsim.mutating_slice_frac":    {v.MutatingFrac, "frac"},
		"trace.unexplained_frac":        {netsimSelf.Seconds() / traced.Seconds(), "frac"},
		"trace.overhead_frac":           {(traced.Seconds() - plain.Seconds()) / plain.Seconds(), "frac"},
	}
	p.extra = map[string]float64{
		"run_s":                traced.Seconds(),
		"plain_run_s":          plain.Seconds(),
		"core.build_run_s":     layer["core"].Seconds(),
		"scalar_ns_per_lookup": float64(injectBusy.Nanoseconds()) / float64(max(rp.lookupsInjected(), 1)),
	}
	return p, nil
}

// printLayers prints the split of the traced run over the replayed layers,
// which with netsim.self_s sums to the run, then every per-layer metric.
func printLayers(m map[string]metric, extra map[string]float64) {
	run := extra["run_s"]
	fmt.Printf("  traced RunScenario %.4f s (plain %.4f s, tracing overhead %+.1f%%); replayed busy time:\n",
		run, extra["plain_run_s"], 100*m["trace.overhead_frac"].Value)
	parts := []struct {
		name string
		v    float64
	}{
		{"rib.reference_s", m["rib.reference_s"].Value},
		{"core.Build (run)", extra["core.build_run_s"]},
		{"traffic.busy_s", m["traffic.busy_s"].Value},
		{"pipeline.busy_s", m["pipeline.busy_s"].Value},
		{"ip.busy_s", m["ip.busy_s"].Value},
		{"energy.busy_s", m["energy.busy_s"].Value},
		{"governor.busy_s", m["governor.busy_s"].Value},
		{"ctrl.update_s", m["ctrl.update_s"].Value},
		{"ctrl.scrub_s", m["ctrl.scrub_s"].Value},
		{"fleet.place_s", m["fleet.place_s"].Value},
		{"netsim.self_s", m["netsim.self_s"].Value},
	}
	var sum float64
	for _, p := range parts {
		sum += p.v
		fmt.Printf("    %-18s %10.4f s %6.1f%%\n", p.name, p.v, 100*p.v/run)
	}
	fmt.Printf("    %-18s %10.4f s (pipeline.busy_s includes pipeline.audit_s)\n", "sum", sum)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %16.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	if b, s := m["pipeline.batch_ns"].Value, extra["scalar_ns_per_lookup"]; b > 0 && s > 0 {
		fmt.Printf("  kernel headroom: scalar Sim %.1f ns per injected lookup (idle cycles included) vs BatchSim %.1f ns/lookup on the same stream (%.1fx)\n",
			s, b, s/b)
	}
}
