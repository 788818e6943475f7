package main

// The smoke table: every flagship lookupsim run, executed the way a user
// runs it (flag parsing, exit status, stdout and the dump files of the real
// command) once at -j 1 and once at -j 8. Each case must exit 0, produce
// byte-identical stdout, series CSV and event log at both worker counts
// (plus flight traces where the case samples them), and show the lifecycle
// its composition must produce in the report and the event log.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeMainEnv, when set, makes the test binary run lookupsim's main
// instead of the tests: the smoke cases re-execute the test binary as the
// lookupsim command.
const smokeMainEnv = "LOOKUPSIM_SMOKE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(smokeMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeCase is one flagship run and what its output must show.
type smokeCase struct {
	name string
	// args is the lookupsim command line without -j and the dump paths;
	// every case dumps the series CSV and the event log.
	args []string
	// traces adds -trace-out to the dumps compared across -j.
	traces bool
	// report lists patterns some report line must match (grep semantics).
	report []string
	// events lists event names the log must carry, absent names it must
	// not.
	events, absent []string
	// seriesHeader is a substring the series CSV header must contain.
	seriesHeader string
}

var smokeCases = []smokeCase{
	{
		// Fault injection (SEUs plus an engine kill) with flight tracing,
		// the slice series and the event log all on.
		name: "telemetry",
		args: []string{"-scheme", "VS", "-k", "3", "-packets", "16384", "-faults",
			"-seu-rate", "3e-9", "-kill-engine", "1", "-kill-cycle", "4000",
			"-trace-sample", "0.02"},
		traces: true,
	},
	{
		// A VS router under a power cap set below its steady-state draw
		// (4.9 W at load 0.9; cap 4.6 W), lifted mid-run: the closed loop
		// must escalate, converge and recover to the full-speed rung.
		name: "governor",
		args: []string{"-scheme", "VS", "-k", "3", "-load", "0.9", "-packets", "32768",
			"-power-cap", "4.6", "-power-cap-lift", "16384", "-governor-report"},
		report: []string{`Converged under cap`, `0 \(full\)`},
		events: []string{"governor_escalate", "governor_deescalate"},
	},
	{
		// Surge load, SEU faults, an engine kill, update churn and a power
		// cap in one run.
		name: "scenario",
		args: []string{"-scheme", "VS", "-k", "3",
			"-scenario", "load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11",
			"-governor-report", "-update-report"},
		report: []string{`load \+ faults \+ churn \+ power-cap`, `Recovered.*true`, `Completed.*true`},
		events: []string{"engine_kill", "scrub_done", "update_commit"},
	},
	{
		// The crash-consistency flagship with energy attribution on: every
		// control-plane fault class (crash-before-commit, reload stall, torn
		// write, watchdog false positive) beside surge load, SEU scrubs,
		// churn and a power cap. lookupsim exits nonzero if a post-recovery
		// audit probe misforwards, so the case also gates the
		// drop-never-misforward invariant.
		name: "chaos+energy",
		args: []string{"-scheme", "VS", "-k", "3",
			"-scenario", "load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,power-cap=38,chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11",
			"-governor-report", "-update-report", "-energy-report"},
		report: []string{`load \+ faults \+ chaos \+ churn \+ power-cap`, `Completed.*true`,
			`Energy attribution`, `Per-VNID dynamic energy`, `Energy per forwarded bit`},
		events: []string{"chaos_inject", "crash_before_commit", "recovery_rollback",
			"recovery_replay", "invariant_audit"},
		seriesHeader: "dyn_j,static_j,j_per_bit",
	},
	{
		// The N+1-spare failover flagship: eight networks over two devices
		// plus a dark spare, both actives crashed in sequence (the first
		// crash's victims migrate to the survivor, then the spare takes the
		// whole fleet), two flaky reconfigurers and a brownout window. Every
		// network must end recovered; lookupsim exits nonzero if a
		// post-migration audit probe misforwards.
		name: "fleet",
		args: []string{"-scheme", "VS", "-k", "8",
			"-scenario", "load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=65536,queue=32,seed=2"},
		report: []string{`load \+ fleet \+ chaos`, `Completed.*true`},
		events: []string{"device_crash", "spare_powerup", "migration_fail",
			"migration_commit", "invariant_audit"},
		absent: []string{"vn_degraded"},
	},
}

func TestSmoke(t *testing.T) {
	for _, c := range smokeCases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			j1 := runSmoke(t, c, "1")
			j8 := runSmoke(t, c, "8")
			report := readSmoke(t, j1, "report.txt")
			dumps := []string{"report.txt", "timeseries.csv", "events.jsonl"}
			if c.traces {
				dumps = append(dumps, "traces.jsonl")
			}
			for _, name := range dumps {
				if d := lineDiff(readSmoke(t, j1, name), readSmoke(t, j8, name)); d != "" {
					t.Errorf("%s differs between -j 1 and -j 8 at %s\nreport head:\n%s", name, d, reportHead(report))
				}
			}
			for _, pat := range c.report {
				if !regexp.MustCompile(pat).Match(report) {
					t.Errorf("no report line matches %q; report head:\n%s", pat, reportHead(report))
				}
			}
			seen := eventNames(t, readSmoke(t, j1, "events.jsonl"))
			for _, ev := range c.events {
				if !seen[ev] {
					t.Errorf("event log has no %q event; report head:\n%s", ev, reportHead(report))
				}
			}
			for _, ev := range c.absent {
				if seen[ev] {
					t.Errorf("event log has a %q event; report head:\n%s", ev, reportHead(report))
				}
			}
			if c.seriesHeader != "" {
				series := readSmoke(t, j1, "timeseries.csv")
				if header, _, _ := bytes.Cut(series, []byte("\n")); !bytes.Contains(header, []byte(c.seriesHeader)) {
					t.Errorf("series header %q lacks %q", header, c.seriesHeader)
				}
			}
		})
	}
}

// runSmoke runs the case as lookupsim at -j jobs with its dumps in a fresh
// directory, keeps stdout there as report.txt, and returns the directory.
// A nonzero exit fails the case with stderr and the report head.
func runSmoke(t *testing.T, c smokeCase, jobs string) string {
	t.Helper()
	dir := t.TempDir()
	args := append([]string{"-j", jobs}, c.args...)
	args = append(args,
		"-timeseries-out", filepath.Join(dir, "timeseries.csv"),
		"-events-out", filepath.Join(dir, "events.jsonl"))
	if c.traces {
		args = append(args, "-trace-out", filepath.Join(dir, "traces.jsonl"))
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), smokeMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if werr := os.WriteFile(filepath.Join(dir, "report.txt"), stdout.Bytes(), 0o644); werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatalf("lookupsim -j %s %s: %v\nstderr:\n%s\nreport head:\n%s",
			jobs, strings.Join(c.args, " "), err, stderr.String(), reportHead(stdout.Bytes()))
	}
	return dir
}

func readSmoke(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lineDiff returns "" when a and b are identical, else the first line
// where they differ and both versions of it.
func lineDiff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	la, lb = append(la, "<EOF>"), append(lb, "<EOF>")
	i := 0
	for la[i] == lb[i] {
		i++
	}
	return fmt.Sprintf("line %d:\n-j 1: %s\n-j 8: %s", i+1, la[i], lb[i])
}

// reportHead returns the report's first 40 lines.
func reportHead(report []byte) string {
	lines := strings.SplitAfter(string(report), "\n")
	if len(lines) > 40 {
		lines = lines[:40]
	}
	return strings.Join(lines, "")
}

// eventNames returns the set of "event" fields in a JSONL event log.
func eventNames(t *testing.T, log []byte) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(log))
	for {
		var ev struct {
			Event string `json:"event"`
		}
		err := dec.Decode(&ev)
		if err == io.EOF {
			return seen
		}
		if err != nil {
			t.Fatalf("event log: %v", err)
		}
		seen[ev.Event] = true
	}
}
