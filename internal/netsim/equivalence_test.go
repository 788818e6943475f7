package netsim

// Equivalence goldens: every runner configuration below must keep producing
// byte-identical reports AND byte-identical telemetry dumps (traces, time
// series, events) at any worker count. forward_vm is the one-shot batch;
// the load_*, faults_* and updates_* cases are the lookupsim -load, -faults
// and -churn presets as RunScenario specs (same scheme, stressor and
// governor mix as the harnesses they replaced); the scenario_* cases are
// full compositions. If one of these tests fails after a change, the change
// altered observable behaviour: fix the code, do not regenerate the goldens
// casually. Every case's energy section must also satisfy the attribution
// invariant.
//
// Regenerate (only for an intentional, documented behaviour change):
//
//	go test ./internal/netsim -run TestHarnessEquivalenceGoldens -update-equivalence

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/governor"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
)

var updateEquivalence = flag.Bool("update-equivalence", false, "rewrite the harness equivalence goldens")

// dumpJSON renders a report deterministically (struct field order).
func dumpJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// equivalenceCase runs one harness configuration and renders everything
// observable: the report as JSON plus all three telemetry dumps.
type equivalenceCase struct {
	name string
	run  func(t *testing.T, tel *Telemetry) string // returns the report JSON
}

func equivalenceCases() []equivalenceCase {
	return []equivalenceCase{
		{"forward_vm", func(t *testing.T, tel *Telemetry) string {
			s, tables := buildSystem(t, core.VM, 3)
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			rep, err := s.Forward(gen(t, 3, tables, 4000))
			if err != nil {
				t.Fatal(err)
			}
			return dumpJSON(t, rep)
		}},
		{"load_vs", func(t *testing.T, tel *Telemetry) string {
			s, _ := buildSystem(t, core.VS, 3)
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			return dumpJSON(t, runSpec(t, s, 41, "load=const:0.8,queue=64,cycles=6244"))
		}},
		{"load_vm_governed", func(t *testing.T, tel *Telemetry) string {
			s, _ := buildSystem(t, core.VM, 3)
			s.SetTelemetry(tel)
			s.SetGovernor(&governor.Config{CapWatts: capBelowSteady(s, 1, 0.35)})
			defer s.SetGovernor(nil)
			defer s.SetTelemetry(nil)
			return dumpJSON(t, runSpec(t, s, 37, "load=const:0.3,queue=16,cycles=12288"))
		}},
		{"faults_vs_kill", func(t *testing.T, tel *Telemetry) string {
			s, _ := buildSystem(t, core.VS, 3)
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			const cycles = 8 * 1024
			return dumpJSON(t, runSpec(t, s, 29, "load=const:%s,faults=seu:%g,kill=0@2000,seed=5,cycles=%d",
				oneIn(3), seuRateFor(s, 3, cycles), cycles))
		}},
		{"faults_vm_governed", func(t *testing.T, tel *Telemetry) string {
			s, _ := buildSystem(t, core.VM, 3)
			s.SetTelemetry(tel)
			s.SetGovernor(&governor.Config{CapWatts: capBelowSteady(s, 1.0/3, 0.5)})
			defer s.SetGovernor(nil)
			defer s.SetTelemetry(nil)
			const cycles = 16 * 1024
			return dumpJSON(t, runSpec(t, s, 43, "load=const:%s,faults=seu:%g,seed=7,cycles=%d",
				oneIn(3), seuRateFor(s, 3, cycles), cycles))
		}},
		{"updates_vs", func(t *testing.T, tel *Telemetry) string {
			s, _ := buildSystem(t, core.VS, 3)
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			return dumpJSON(t, runSpec(t, s, 23, "load=const:%s,churn=4x64,seed=1,cycles=8192", oneIn(3)))
		}},
		{"updates_vs_governed", func(t *testing.T, tel *Telemetry) string {
			s, _ := buildSystem(t, core.VS, 3)
			s.SetTelemetry(tel)
			s.SetGovernor(&governor.Config{CapWatts: capBelowSteady(s, 1.0/3, 0.5), LiftCycle: 8 * 1024})
			defer s.SetGovernor(nil)
			defer s.SetTelemetry(nil)
			return dumpJSON(t, runSpec(t, s, 23, "load=const:%s,churn=4x64,seed=1,cycles=16384", oneIn(3)))
		}},
		{"updates_vm", func(t *testing.T, tel *Telemetry) string {
			s, _ := buildSystem(t, core.VM, 3)
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			return dumpJSON(t, runSpec(t, s, 29, "load=const:%s,churn=4x64,seed=1,cycles=8192", oneIn(3)))
		}},
		{"scenario_chaos", func(t *testing.T, tel *Telemetry) string {
			// The full composition: surge load, SEU scrubs, churn, a power
			// cap, and every control-plane fault class — crash-before-commit,
			// reload stall, torn write, watchdog false positive — recovered
			// through the journal in one run.
			s, _ := buildSystem(t, core.VS, 3)
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			spec, err := scenario.Parse(
				"load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,power-cap=38," +
					"chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.RunScenario(faultGen(t, s, 17), spec)
			if err != nil {
				t.Fatal(err)
			}
			return dumpJSON(t, rep)
		}},
		{"scenario_fleet", func(t *testing.T, tel *Telemetry) string {
			// Fleet failure domains: four networks bin-packed over two devices
			// plus a dark spare, one device crash mid-run, a flaky reconfig
			// target exercising the retry/backoff ladder, and a brownout
			// window — every victim re-placed by live migration.
			s, _ := buildSystem(t, core.VS, 4)
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			spec, err := scenario.Parse(
				"load=const:0.4,fleet=2:spare=1,chaos=devcrash:1+flaky:2+brownout:1,cycles=16384,queue=32,seed=11")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.RunScenario(faultGen(t, s, 17), spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed {
				checkBalance(t, rep)
			}
			return dumpJSON(t, rep)
		}},
	}
}

// TestHarnessEquivalenceGoldens runs every case at -j1 and -j8 and requires
// the full observable output — report JSON, trace/series/event dumps — to be
// byte-identical to the recorded snapshot at both worker counts, and the
// report's energy breakdown to satisfy the attribution invariant.
func TestHarnessEquivalenceGoldens(t *testing.T) {
	defer sweep.SetWorkers(0)
	for _, c := range equivalenceCases() {
		t.Run(c.name, func(t *testing.T) {
			var rendered string
			for i, workers := range []int{1, 8} {
				sweep.SetWorkers(workers)
				tel := testTelemetry(0.05, 99)
				repJSON := c.run(t, tel)
				checkAttribution(t, repJSON)
				traces, series, events := dumps(t, tel)
				got := strings.Join([]string{
					"== report ==", repJSON,
					"== traces ==", traces,
					"== series ==", series,
					"== events ==", events,
				}, "\n")
				if i == 0 {
					rendered = got
					continue
				}
				if got != rendered {
					t.Fatalf("%s: output differs between -j1 and -j8", c.name)
				}
			}
			path := filepath.Join("testdata", "equiv_"+c.name+".golden")
			if *updateEquivalence {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update-equivalence): %v", path, err)
			}
			if rendered != string(want) {
				t.Errorf("%s drifted from the recorded snapshot (%d vs %d bytes).\nIf this change is intentional, regenerate with -update-equivalence and call it out in the PR.\n--- got (first 2000 bytes) ---\n%.2000s",
					c.name, len(rendered), len(want), rendered)
			}
		})
	}
}
