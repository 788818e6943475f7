package scenario

// Fuzz harness for the spec parser (go test -fuzz=FuzzParse). The parser is
// the one component fed operator-typed strings, so it must never panic and
// must uphold two properties on every input: (1) a spec that parses is
// internally consistent (validated fields in range), and (2) a parsed
// spec's Stressors list matches its populated sections.

import (
	"strings"
	"testing"
)

func FuzzParse(f *testing.F) {
	// Seed corpus: every key, every load shape, every chaos kind, plus the
	// malformed shapes the table tests pin.
	seeds := []string{
		"load=saturate",
		"load=const:0.5",
		"load=surge:0.3:0.9:100:200",
		"load=burst:0.6:128:0.25",
		"load=ramp:0:1",
		"faults=seu:1e-9,kill=1@5000",
		"churn=100x50:vn=2",
		"load=surge,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11",
		"load=const:0.4,faults=seu:1e-9,churn=10x32,chaos=crash:3+stall:2+torn:1+falsepos:1",
		"chaos=crash:1",
		"load=saturate,",
		",,",
		"load=const:0.5,load=saturate",
		"power-cap=45,power-cap-device=12,slice=512",
		"kill=0@50000",
		"=",
		"a=b=c",
		"load=const:0.4,fleet=4:spare=1,chaos=devcrash:1+brownout:2+flaky:1",
		"fleet=2",
		"fleet=2:spare=0,power-cap=40",
		"fleet=0",
		"fleet=2:x=1",
		"fleet=2,chaos=devcrash:3",
		"fleet=2,faults=seu:1e-9",
		"chaos=devcrash:1",
		"kill=0@100,reconfig-fail=3",
		"reconfig-fail=1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			// Errors must carry the package prefix so they read well in
			// CLI output.
			if !strings.HasPrefix(err.Error(), "scenario: ") {
				t.Fatalf("Parse(%q) error without prefix: %v", spec, err)
			}
			return
		}
		// A spec that parses must be runnable: validated fields in range.
		if s.Cycles < 1 || s.Slice < 1 || s.Queue < 1 {
			t.Fatalf("Parse(%q) accepted out-of-range dims: %+v", spec, s)
		}
		if s.SEURate < 0 || s.SEURate >= 1 {
			t.Fatalf("Parse(%q) accepted SEU rate %g", spec, s.SEURate)
		}
		if s.Kill != nil && (s.Kill.Engine < 0 || s.Kill.Cycle < 0 || s.Kill.Cycle >= s.Cycles) {
			t.Fatalf("Parse(%q) accepted kill %+v with cycles %d", spec, s.Kill, s.Cycles)
		}
		if s.ReconfigFailures < 0 || (s.ReconfigFailures > 0 && s.SEURate <= 0 && s.Kill == nil) {
			t.Fatalf("Parse(%q) accepted reconfig-fail=%d without a scrub carrier", spec, s.ReconfigFailures)
		}
		if s.Churn != nil && (s.Churn.Batches < 1 || s.Churn.Ops < 1) {
			t.Fatalf("Parse(%q) accepted churn %+v", spec, s.Churn)
		}
		if s.Chaos != nil {
			if s.Chaos.Total() < 1 {
				t.Fatalf("Parse(%q) accepted empty chaos", spec)
			}
			if s.Chaos.Crashes > 0 && s.Churn == nil {
				t.Fatalf("Parse(%q) accepted crashes without churn", spec)
			}
			if s.Chaos.Stalls+s.Chaos.Torn+s.Chaos.FalsePositives > 0 && s.SEURate <= 0 && s.Kill == nil {
				t.Fatalf("Parse(%q) accepted scrub chaos without faults/kill", spec)
			}
			if s.Chaos.DeviceTotal() > 0 && s.Fleet == nil {
				t.Fatalf("Parse(%q) accepted device chaos without fleet", spec)
			}
		}
		if s.Fleet != nil {
			if s.Fleet.Devices < 1 || s.Fleet.Spares < 0 {
				t.Fatalf("Parse(%q) accepted fleet %+v", spec, s.Fleet)
			}
			if s.Chaos != nil {
				if s.Chaos.CtrlTotal() > 0 {
					t.Fatalf("Parse(%q) accepted control-plane chaos on a fleet run", spec)
				}
				if s.Chaos.DeviceCrashes > s.Fleet.Devices {
					t.Fatalf("Parse(%q) accepted %d crashes over %d devices", spec, s.Chaos.DeviceCrashes, s.Fleet.Devices)
				}
			}
			if s.SEURate > 0 || s.Kill != nil || s.ReconfigFailures > 0 || s.Churn != nil {
				t.Fatalf("Parse(%q) accepted single-device stressors on a fleet run: %+v", spec, s)
			}
		}
		// The stressor list must mirror the populated sections.
		names := map[string]bool{}
		for _, n := range s.Stressors() {
			names[n] = true
		}
		if !names["load"] {
			t.Fatalf("Parse(%q): stressors missing load", spec)
		}
		if names["faults"] != (s.SEURate > 0 || s.Kill != nil) ||
			names["chaos"] != (s.Chaos != nil) ||
			names["churn"] != (s.Churn != nil) ||
			names["fleet"] != (s.Fleet != nil) ||
			names["power-cap"] != (s.CapW > 0 || s.DeviceCapW > 0) {
			t.Fatalf("Parse(%q): stressors %v inconsistent with spec %+v", spec, s.Stressors(), s)
		}
	})
}
