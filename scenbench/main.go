// Command scenbench is the repository's end-to-end benchmark: it drives the
// composed simulator (rib.GenerateVirtualSet → core.Build → netsim.New →
// traffic.New → scenario.Parse → System.RunScenario) at paper scale on one
// of three workloads and prints one JSON result line.
//
//	scenbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it runs passes over the workload's seeds for about S
// seconds, one child process per repetition of the whole chain, and reports
// the medians of the end-to-end metrics: lookups_per_s, setup_s and
// peak_rss_mb. With --trace 1 it runs the chain in-process, times one plain
// and one profiled RunScenario, and replays each layer's public calls from
// outside to report per-layer metrics (see trace.go). Every run checks the
// simulated report: zero misforwards, per-network conservation, Completed
// and Recovered, an energy report, and one digest per seed across its
// repetitions.
//
// Run it through run.sh, which builds it inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repResult is what one child repetition reports to the parent.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	verdict
}

const (
	// minPasses runs every instance at least twice, so its digest is
	// compared across repetitions.
	minPasses = 2
	// minSetups is the fewest set-ups a run's setup_s median rests on.
	minSetups = 15
	// wallCap stops starting repetitions well inside the 180 s a run may
	// take, whatever --seconds asks for.
	wallCap = 120 * time.Second
)

func main() {
	workloadName := flag.String("workload", "", "workload name: steady_load, control_churn or fleet_failover")
	seed := flag.Int64("seed", 1, "seed for tables, traffic and the scenario spec")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer replay trace")
	rep := flag.Bool("rep", false, "internal: run one untraced repetition and print its JSON")
	setupOnly := flag.Bool("setup-only", false, "internal: with --rep, stop after set-up")
	outDir := flag.String("out", ".bench_build/trace", "directory for the traced run's spans and CPU profile")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	w, err := findWorkload(*workloadName)
	if err != nil {
		fail(err)
	}
	switch {
	case *rep:
		err = runRep(w, *seed, *setupOnly)
	case *trace == 0:
		err = runEndToEnd(w, *seed, time.Duration(*seconds)*time.Second)
	case *trace == 1:
		err = runTrace(w, *seed, time.Duration(*seconds)*time.Second, *outDir)
	default:
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "scenbench:", err)
	os.Exit(1)
}

// runRep is one untraced repetition in its own process, so that its peak
// RSS is the footprint of exactly one set-up plus one RunScenario.
func runRep(w workload, seed int64, setupOnly bool) error {
	t0 := time.Now()
	in := &instance{}
	for _, st := range setupSteps(w, seed) {
		if err := st.fn(in); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	setup := time.Since(t0)
	if setupOnly {
		return printJSON(repResult{SetupS: setup.Seconds()})
	}
	t1 := time.Now()
	rep, runErr := in.sys.RunScenario(in.gen, in.spec)
	run := time.Since(t1)
	return printJSON(repResult{SetupS: setup.Seconds(), RunS: run.Seconds(), verdict: check(rep, runErr)})
}

// spawnRep runs one repetition as a child process and returns its report
// and peak resident set in MiB.
func spawnRep(w workload, seed int64, setupOnly bool) (repResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, 0, err
	}
	cmd := exec.Command(exe, "--rep", "--setup-only="+strconv.FormatBool(setupOnly),
		"--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, 0, fmt.Errorf("repetition: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return repResult{}, 0, fmt.Errorf("repetition output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return repResult{}, 0, fmt.Errorf("no rusage for repetition")
	}
	return r, float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// runEndToEnd runs passes over the workload's instances, each repetition
// in its own child process, until the window has passed (at least two
// passes, so every instance's digest is compared across repetitions). One
// pass's throughput is its lookups over its RunScenario seconds; the
// reported figure is the median over passes. Set-up time and peak RSS are
// medians over all repetitions.
func runEndToEnd(w workload, seed int64, window time.Duration) error {
	start := time.Now()
	var rates, setups, rss []float64
	digests := make([][]string, w.instances)
	mutating := make([]float64, w.instances)
	res := result{Correct: true}
	problems := map[string]bool{}
	passes := 0
	// A pass starts only if it is expected to end inside the window, so a
	// run takes about the window whatever the pass length.
	for passes < minPasses || time.Since(start)*time.Duration(passes+1)/time.Duration(passes) <= min(window, wallCap) {
		var lookups int64
		var runS float64
		for i := 0; i < w.instances; i++ {
			r, mb, err := spawnRep(w, w.instanceSeed(seed, i), false)
			if err != nil {
				return err
			}
			lookups += r.Lookups
			runS += r.RunS
			setups = append(setups, r.SetupS)
			rss = append(rss, mb)
			digests[i] = append(digests[i], r.Digest)
			mutating[i] = r.MutatingFrac
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			res.Correct = res.Correct && r.Correct
			for _, p := range r.Problems {
				problems[p] = true
			}
		}
		rates = append(rates, float64(lookups)/runS)
		passes++
	}
	// Long passes leave few set-ups; top them up with set-up-only children
	// so the set-up median always rests on several cold starts.
	for i := 0; len(setups) < minSetups; i++ {
		r, _, err := spawnRep(w, w.instanceSeed(seed, i%w.instances), true)
		if err != nil {
			return err
		}
		setups = append(setups, r.SetupS)
	}
	res.Metrics = map[string]metric{
		"lookups_per_s": {median(rates), "1/s"},
		"setup_s":       {median(setups), "s"},
		"peak_rss_mb":   {median(rss), "MiB"},
	}
	same := true
	for _, d := range digests {
		same = same && allSame(d)
	}
	res.Correct = res.Correct && same

	fmt.Printf("workload %s seed %d: %d passes over %d instances in %.1f s (spec %s)\n",
		w.name, seed, passes, w.instances, time.Since(start).Seconds(), w.specFor(w.instanceSeed(seed, 0)))
	for _, name := range []string{"lookups_per_s", "setup_s", "peak_rss_mb"} {
		m := res.Metrics[name]
		fmt.Printf("  %-14s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  (medians: lookups_per_s over %d passes, setup_s over %d set-ups, peak_rss_mb over %d runs)\n",
		passes, len(setups), len(rss))
	fmt.Printf("  %-14s %14.6f (%d failed / %d attempted operations)\n",
		"failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for i, d := range digests {
		verdict := "identical across repetitions"
		if !allSame(d) {
			verdict = "MISMATCH across repetitions: " + strings.Join(d, " ")
		}
		fmt.Printf("  digest seed %d: %s (%s); mutating traffic slices %.1f%%\n",
			w.instanceSeed(seed, i), d[0], verdict, 100*mutating[i])
	}
	for _, p := range sortedKeys(problems) {
		fmt.Printf("  problem: %s\n", p)
	}
	return printJSON(res)
}

func printJSON(v any) error {
	out, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
