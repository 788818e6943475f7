package netsim

// Telemetry tests: the acceptance bar is byte-identical trace, time-series
// and event dumps between -j1 and -j8 for the same seeds, and zero effect
// of an attached Telemetry bundle on the run reports themselves.

import (
	"reflect"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/obs"
	"vrpower/internal/sweep"
)

// testTelemetry builds a fresh full bundle: sampler at rate with the given
// seed, a ring sized well above the expected sample volume (the byte-level
// determinism guarantee needs retained-set == sampled-set), debug-level
// events.
func testTelemetry(rate float64, seed int64) *Telemetry {
	return &Telemetry{
		Sampler: obs.NewTraceSampler(rate, seed),
		Traces:  obs.NewTraceRing(1 << 14),
		Series:  obs.NewTimeSeries(),
		Events:  obs.NewEventLog(obs.LevelDebug),
	}
}

// dumps renders the three telemetry sinks to strings.
func dumps(t *testing.T, tel *Telemetry) (traces, series, events string) {
	t.Helper()
	var tb, sb, eb strings.Builder
	if err := tel.Traces.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tel.Series.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tel.Events.WriteJSONL(&eb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), sb.String(), eb.String()
}

// runDumps runs one harness once per worker count with a fresh bundle and
// fails unless every dump is byte-identical across worker counts and the
// probe reports at least one non-empty sink.
func runDumps(t *testing.T, name string, run func(tel *Telemetry)) (traces, series, events string) {
	t.Helper()
	defer sweep.SetWorkers(0)
	var ref [3]string
	for i, workers := range []int{1, 8} {
		sweep.SetWorkers(workers)
		tel := testTelemetry(0.05, 99)
		run(tel)
		tr, se, ev := dumps(t, tel)
		if i == 0 {
			ref = [3]string{tr, se, ev}
			continue
		}
		if tr != ref[0] {
			t.Errorf("%s: trace dump differs between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", name, ref[0], tr)
		}
		if se != ref[1] {
			t.Errorf("%s: time-series dump differs between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", name, ref[1], se)
		}
		if ev != ref[2] {
			t.Errorf("%s: event dump differs between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", name, ref[2], ev)
		}
	}
	return ref[0], ref[1], ref[2]
}

func TestForwardTelemetryDeterministicAcrossWorkers(t *testing.T) {
	s, tables := buildSystem(t, core.VM, 3)
	pkts := gen(t, 3, tables, 4000)
	traces, _, _ := runDumps(t, "Forward", func(tel *Telemetry) {
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		if _, err := s.Forward(pkts); err != nil {
			t.Fatal(err)
		}
	})
	if traces == "" {
		t.Fatal("Forward sampled no traces at rate 0.05 over 4000 packets")
	}
	if !strings.Contains(traces, `"outcome":"forward"`) {
		t.Errorf("no forward outcome in traces:\n%.400s", traces)
	}
	if !strings.Contains(traces, `"visits":[{"stage":0`) {
		t.Errorf("traces missing stage visits:\n%.400s", traces)
	}
}

func TestFaultRunTelemetryDeterministicAcrossWorkers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	const cycles = 8 * 1024
	traces, series, events := runDumps(t, "faults preset", func(tel *Telemetry) {
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		runSpec(t, s, 29, "load=const:%s,faults=seu:%g,kill=0@2000,seed=5,cycles=%d",
			oneIn(3), seuRateFor(s, 3, cycles), cycles)
	})
	if traces == "" || series == "" || events == "" {
		t.Fatalf("fault run left a sink empty: traces=%d series=%d events=%d bytes",
			len(traces), len(series), len(events))
	}
	for _, want := range []string{"engine_kill", "seu_inject", "scrub_start"} {
		if !strings.Contains(events, `"event":"`+want+`"`) {
			t.Errorf("fault events missing %q:\n%s", want, events)
		}
	}
	head := series[:strings.IndexByte(series, '\n')]
	if head != "cycle,power_w,throughput_gbps,backlog_pkts,scrubs_active,updates_active,recoveries,degraded_vns,cap_w,gov_rung,dyn_j,static_j,j_per_bit,avail_vn00,avail_vn01,avail_vn02" {
		t.Errorf("series header drifted: %s", head)
	}
	// The kill must be visible in the series as lost availability.
	if !strings.Contains(series, ",0,") && !strings.Contains(series, ",0\n") {
		t.Errorf("killed engine never showed as unavailable:\n%s", series)
	}
}

func TestUpdateRunTelemetryDeterministicAcrossWorkers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	traces, series, events := runDumps(t, "churn preset", func(tel *Telemetry) {
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		runSpec(t, s, 23, "load=const:%s,churn=4x64,seed=1,cycles=8192", oneIn(3))
	})
	if traces == "" || series == "" || events == "" {
		t.Fatalf("update run left a sink empty: traces=%d series=%d events=%d bytes",
			len(traces), len(series), len(events))
	}
	for _, want := range []string{"update_arm", "update_commit", "lifecycle_update"} {
		if !strings.Contains(events, `"event":"`+want+`"`) {
			t.Errorf("update events missing %q:\n%s", want, events)
		}
	}
}

func TestLoadTestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	var slice int64
	_, series, _ := runDumps(t, "load preset", func(tel *Telemetry) {
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		slice = runSpec(t, s, 41, "load=const:0.8,queue=64,cycles=4096").SliceCycles
	})
	if strings.Count(series, "\n") < 1+int(4096/slice) {
		t.Errorf("load test recorded too few series rows:\n%s", series)
	}
}

// TestTelemetryDoesNotChangeReports: instrumentation must never change
// behaviour — the report of a run with a full bundle attached equals the
// report of a bare run. The kill and SEU case covers sampled drops at a
// down engine, which must not draw from the shared traffic stream.
func TestTelemetryDoesNotChangeReports(t *testing.T) {
	for _, c := range []struct {
		scheme core.Scheme
		gseed  int64
		spec   string
	}{
		{core.VM, 29, "load=const:" + oneIn(3) + ",churn=4x64,seed=7,cycles=8192"},
		{core.VS, 17, "load=const:0.5,faults=seu:2e-9,kill=1@3000,cycles=16384,queue=32,seed=11"},
	} {
		s, _ := buildSystem(t, c.scheme, 3)
		bare := runSpec(t, s, c.gseed, "%s", c.spec)
		s.SetTelemetry(testTelemetry(0.1, 3))
		observed := runSpec(t, s, c.gseed, "%s", c.spec)
		s.SetTelemetry(nil)
		if !reflect.DeepEqual(bare, observed) {
			t.Errorf("%s %s: attaching telemetry changed the report:\nbare offered %v\nobserved offered %v",
				c.scheme, c.spec, bare.OfferedPerVN, observed.OfferedPerVN)
		}
	}
}
