package netsim

// Guard rails around the energy columns: testdata/pre_energy/ holds an
// energy-free snapshot of the equivalence goldens — forward_vm as captured
// before the energy layer existed, the scenario-spec cases as their current
// goldens minus the energy additions — and this test proves each golden
// differs from its snapshot ONLY by those additions: the report gains
// exactly the Energy section, the series gains exactly the
// dyn_j/static_j/j_per_bit columns, and traces and events are byte-identical.
// Regenerating the goldens for an energy-only change therefore keeps this
// test green, while a change to anything else must update both files. The
// attribution invariant itself is checked on every equivalence case by
// checkAttribution.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// energyColumns are the series columns the energy layer added.
var energyColumns = map[string]bool{"dyn_j": true, "static_j": true, "j_per_bit": true}

// splitGolden parses the four-section golden format written by the
// equivalence test.
func splitGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	cur := ""
	var buf []string
	flush := func() {
		if cur != "" {
			sections[cur] = strings.Join(buf, "\n")
		}
		buf = buf[:0]
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==") {
			flush()
			cur = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")
			continue
		}
		buf = append(buf, line)
	}
	flush()
	for _, want := range []string{"report", "traces", "series", "events"} {
		if _, ok := sections[want]; !ok {
			t.Fatalf("%s: missing section %q", path, want)
		}
	}
	return sections
}

// stripEnergySeries removes the energy columns from a series CSV dump.
func stripEnergySeries(t *testing.T, csv string) string {
	t.Helper()
	lines := strings.Split(csv, "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], "dyn_j") {
		return csv
	}
	header := strings.Split(lines[0], ",")
	keep := make([]int, 0, len(header))
	for i, col := range header {
		if !energyColumns[col] {
			keep = append(keep, i)
		}
	}
	out := make([]string, 0, len(lines))
	for li, line := range lines {
		if line == "" {
			out = append(out, line)
			continue
		}
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("series row %d has %d cells, header has %d", li, len(cells), len(header))
		}
		kept := make([]string, 0, len(keep))
		for _, i := range keep {
			kept = append(kept, cells[i])
		}
		out = append(out, strings.Join(kept, ","))
	}
	return strings.Join(out, "\n")
}

// sumInt64s totals a JSON []any of numbers decoded via json.Number.
func sumInt64s(t *testing.T, v any) int64 {
	t.Helper()
	arr, ok := v.([]any)
	if !ok {
		t.Fatalf("want JSON array, got %T", v)
	}
	var sum int64
	for _, e := range arr {
		n, err := e.(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	return sum
}

func asInt64(t *testing.T, v any) int64 {
	t.Helper()
	n, err := v.(json.Number).Int64()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEnergyGoldensAdditive diffs each equivalence golden that has a
// preserved pre-energy snapshot against it: stripped of the energy columns
// and the Energy report section, they must match exactly.
func TestEnergyGoldensAdditive(t *testing.T) {
	olds, err := filepath.Glob(filepath.Join("testdata", "pre_energy", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(olds) == 0 {
		t.Fatal("no pre-energy goldens found")
	}
	for _, oldPath := range olds {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(oldPath), "equiv_"), ".golden")
		t.Run(name, func(t *testing.T) {
			oldSec := splitGolden(t, oldPath)
			newSec := splitGolden(t, filepath.Join("testdata", filepath.Base(oldPath)))

			if newSec["traces"] != oldSec["traces"] {
				t.Errorf("traces changed — the energy layer must not disturb flight tracing")
			}
			if newSec["events"] != oldSec["events"] {
				t.Errorf("events changed — the energy layer must not disturb the event log")
			}
			if got := stripEnergySeries(t, newSec["series"]); got != oldSec["series"] {
				t.Errorf("series changed beyond the dyn_j/static_j/j_per_bit columns:\n--- stripped new ---\n%.1000s\n--- old ---\n%.1000s", got, oldSec["series"])
			}

			var oldRep, newRep map[string]any
			decode := func(s string, into *map[string]any) {
				dec := json.NewDecoder(strings.NewReader(s))
				dec.UseNumber()
				if err := dec.Decode(into); err != nil {
					t.Fatal(err)
				}
			}
			decode(oldSec["report"], &oldRep)
			decode(newSec["report"], &newRep)
			if newRep["Energy"] == nil {
				t.Fatal("regenerated report has no Energy section")
			}
			delete(newRep, "Energy")
			if !reflect.DeepEqual(oldRep, newRep) {
				t.Errorf("report changed beyond the Energy section")
			}
		})
	}
}

// checkAttribution decodes a rendered report's Energy section and asserts
// the attribution invariant on it: per-VNID and per-engine dynamic sums
// equal the component decomposition, and the run recorded some energy.
func checkAttribution(t *testing.T, repJSON string) {
	t.Helper()
	var rep map[string]any
	dec := json.NewDecoder(strings.NewReader(repJSON))
	dec.UseNumber()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	e, ok := rep["Energy"].(map[string]any)
	if !ok {
		t.Fatal("report has no Energy section")
	}
	dyn := asInt64(t, e["mem_fj"]) + asInt64(t, e["clock_fj"]) + asInt64(t, e["ctrl_fj"])
	if vn := sumInt64s(t, e["vn_dyn_fj"]); vn != dyn {
		t.Errorf("ΣVN dynamic %d fJ != component total %d fJ", vn, dyn)
	}
	if eng := sumInt64s(t, e["engine_dyn_fj"]); eng != dyn {
		t.Errorf("ΣEngine dynamic %d fJ != component total %d fJ", eng, dyn)
	}
	if dyn <= 0 {
		t.Errorf("report recorded no dynamic energy (%d fJ) — meter not wired?", dyn)
	}
}
