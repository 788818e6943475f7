// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the exact rows/series via internal/experiments,
// logged with -v), the ablation benches DESIGN.md calls out, and raw
// performance benchmarks of the substrates.
//
// Run: go test -bench=. -benchmem
package vrpower_test

import (
	"sync"
	"testing"

	"vrpower"
	"vrpower/internal/experiments"
	"vrpower/internal/report"
)

// logOnce renders a figure/table into the benchmark log a single time.
var logged sync.Map

func logOnceF(b *testing.B, key, text string) {
	if _, dup := logged.LoadOrStore(key, true); !dup {
		b.Log("\n" + text)
	}
}

func BenchmarkTableII(b *testing.B) {
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = experiments.TableII()
	}
	logOnceF(b, "tableII", t.String())
}

func BenchmarkTableIII(b *testing.B) {
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = experiments.TableIII()
	}
	logOnceF(b, "tableIII", t.String())
}

func BenchmarkTrieCalibration(b *testing.B) {
	var t *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.TrieCalibration()
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnceF(b, "triecal", t.String())
}

func BenchmarkFig2(b *testing.B) {
	var f *report.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig2()
	}
	logOnceF(b, "fig2", f.String())
}

func BenchmarkFig3(b *testing.B) {
	var f *report.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig3()
	}
	logOnceF(b, "fig3", f.String())
}

func BenchmarkFig4(b *testing.B) {
	var ptr, nhi *report.Figure
	var err error
	for i := 0; i < b.N; i++ {
		ptr, nhi, err = experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnceF(b, "fig4", ptr.String()+"\n"+nhi.String())
	// Headline: separate pointer memory at K=30 (Mb).
	sep := ptr.Series[len(ptr.Series)-1]
	b.ReportMetric(sep.Y[len(sep.Y)-1], "sepPtrMb@K30")
}

func benchGradeFigure(b *testing.B, key string, gen func(vrpower.SpeedGrade) (*report.Figure, error)) map[string]*report.Figure {
	out := map[string]*report.Figure{}
	for _, g := range vrpower.Grades() {
		var f *report.Figure
		var err error
		for i := 0; i < b.N; i++ {
			f, err = gen(g)
			if err != nil {
				b.Fatal(err)
			}
		}
		logOnceF(b, key+g.String(), f.String())
		out[g.String()] = f
	}
	return out
}

func BenchmarkFig5(b *testing.B) {
	figs := benchGradeFigure(b, "fig5", experiments.Fig5)
	nv := figs["-2"].Series[0]
	b.ReportMetric(nv.Y[len(nv.Y)-1], "NV@K15_W")
	vs := figs["-2"].Series[1]
	b.ReportMetric(vs.Y[len(vs.Y)-1], "VS@K15_W")
}

func BenchmarkFig6(b *testing.B) {
	figs := benchGradeFigure(b, "fig6", experiments.Fig6)
	vs := figs["-2"].Series[0]
	b.ReportMetric(vs.Y[0]-vs.Y[len(vs.Y)-1], "VSdrop_W")
}

func BenchmarkFig7(b *testing.B) {
	figs := benchGradeFigure(b, "fig7", experiments.Fig7)
	worst := 0.0
	for _, f := range figs {
		for _, s := range f.Series {
			for _, y := range s.Y {
				if y < 0 {
					y = -y
				}
				if y > worst {
					worst = y
				}
			}
		}
	}
	b.ReportMetric(worst, "worstErrPct")
}

func BenchmarkFig8(b *testing.B) {
	figs := benchGradeFigure(b, "fig8", experiments.Fig8)
	for _, s := range figs["-2"].Series {
		switch s.Name {
		case "VS":
			b.ReportMetric(s.Y[len(s.Y)-1], "VS@K15_mW/Gbps")
		case "VM(α=20%)":
			b.ReportMetric(s.Y[len(s.Y)-1], "VM20@K15_mW/Gbps")
		}
	}
}

// --- Ablation benches (DESIGN.md Section 5) ---

func analyticRouter(b *testing.B, cfg vrpower.Config, alpha float64) *vrpower.Router {
	b.Helper()
	prof, err := vrpower.PaperProfile()
	if err != nil {
		b.Fatal(err)
	}
	r, err := vrpower.BuildAnalytic(cfg, prof, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationStageMapping compares pipeline depths: shallower
// pipelines fold more levels per stage (wider memories, slower clock, less
// logic power); 33 stages maps levels one-to-one.
func BenchmarkAblationStageMapping(b *testing.B) {
	for _, stages := range []int{8, 16, 28, 33} {
		b.Run(itoa(stages), func(b *testing.B) {
			var total, fmax float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VS, K: 8, Stages: stages, ClockGating: true,
				}, 0)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				total, fmax = p.Total(), r.Fmax()
			}
			b.ReportMetric(total, "W")
			b.ReportMetric(fmax, "MHz")
		})
	}
}

// BenchmarkAblationBRAMPacking compares 18 Kb vs 36 Kb block packing for
// the merged scheme (Table III's two block models).
func BenchmarkAblationBRAMPacking(b *testing.B) {
	for _, mode := range []vrpower.BRAMMode{vrpower.BRAM18Mode, vrpower.BRAM36Mode} {
		b.Run(mode.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VM, K: 8, Mode: mode, ClockGating: true,
				}, 0.2)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				total = p.Total()
			}
			b.ReportMetric(total, "W")
		})
	}
}

// BenchmarkAblationClockGating quantifies Section IV's idle gating: without
// it, every engine burns full-rate dynamic power regardless of duty cycle.
func BenchmarkAblationClockGating(b *testing.B) {
	for _, gating := range []bool{true, false} {
		name := "gated"
		if !gating {
			name = "ungated"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VS, K: 8, ClockGating: gating,
				}, 0)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				total = p.Total()
			}
			b.ReportMetric(total, "W")
		})
	}
}

// BenchmarkAblationNHILayout compares the paper's inline K-wide leaf
// vectors against an indirect shared-vector-table layout on a high-overlap
// merge.
func BenchmarkAblationNHILayout(b *testing.B) {
	set, err := vrpower.GenerateVirtualSet(6, 1000, 0.9, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := vrpower.MergeTables(set.Tables)
	if err != nil {
		b.Fatal(err)
	}
	m.LeafPush()
	layouts := map[string]vrpower.MemLayout{
		"inline":   vrpower.DefaultLayout(),
		"indirect": {PtrBits: 18, NHIBits: 8, IndirectNHI: true},
	}
	for name, layout := range layouts {
		b.Run(name, func(b *testing.B) {
			var nhi int64
			for i := 0; i < b.N; i++ {
				r, err := vrpower.Build(vrpower.Config{
					Scheme: vrpower.VM, K: 6, Layout: layout, ClockGating: true,
				}, set.Tables)
				if err != nil {
					b.Fatal(err)
				}
				nhi = r.NHIBits()
			}
			b.ReportMetric(float64(nhi)/1024, "NHI_Kb")
		})
	}
}

// BenchmarkAblationSimExec compares the two lookup cores on the same
// stream: the cycle-accurate Sim (one register shift per cycle) against the
// batched BatchSim (per-stage sweeps over the flat snapshot).
func BenchmarkAblationSimExec(b *testing.B) {
	set, err := vrpower.GenerateVirtualSet(4, 1000, 0.5, 5)
	if err != nil {
		b.Fatal(err)
	}
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VM, K: 4, ClockGating: true}, set.Tables)
	if err != nil {
		b.Fatal(err)
	}
	img := r.Images()[0]
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 4, Seed: 6, Addr: vrpower.RoutedAddr, Tables: set.Tables,
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := gen.Requests(4096)
	// Simulator construction is hoisted and iterations Reset, so the timed
	// loop measures lookups, not NewSim plus stats allocation.
	b.Run("cycleloop", func(b *testing.B) {
		sim := vrpower.NewSim(img)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Reset()
			if _, _, err := sim.Run(reqs, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	})
	b.Run("batched", func(b *testing.B) {
		sim := vrpower.NewBatchSim(img)
		res := make([]vrpower.Result, 0, len(reqs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Reset()
			var err error
			if res, _, err = sim.RunAppend(res[:0], reqs, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	})
}

// --- Substrate performance benches ---

func BenchmarkGenerateTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := vrpower.Generate("bench", vrpower.DefaultGen(3725, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrieBuildAndPush(b *testing.B) {
	tbl, err := vrpower.Generate("bench", vrpower.DefaultGen(3725, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := vrpower.BuildTrie(tbl.Routes)
		tr.LeafPush()
	}
}

func BenchmarkMergeBuild(b *testing.B) {
	set, err := vrpower.GenerateVirtualSet(8, 1000, 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vrpower.MergeTables(set.Tables); err != nil {
			b.Fatal(err)
		}
	}
}

// pipelineLookupFixture builds the full-table image and request stream the
// pipeline lookup benches share.
func pipelineLookupFixture(b *testing.B) (*vrpower.Image, []vrpower.Request) {
	b.Helper()
	tbl, err := vrpower.Generate("bench", vrpower.DefaultGen(3725, 1))
	if err != nil {
		b.Fatal(err)
	}
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VS, K: 1, ClockGating: true}, []*vrpower.Table{tbl})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 1, Seed: 8, Addr: vrpower.RoutedAddr, Tables: []*vrpower.Table{tbl},
	})
	if err != nil {
		b.Fatal(err)
	}
	return r.Images()[0], gen.Requests(8192)
}

// BenchmarkPipelineLookup is the repo's headline lookup metric (ROADMAP
// item 2, gated in CI by `make bench-gate`): the batched, data-oriented
// engine on the paper's full 3725-prefix table. Construction is hoisted and
// iterations Reset, so the timed loop measures lookups; the untraced
// batched path must report 0 allocs/op.
func BenchmarkPipelineLookup(b *testing.B) {
	img, reqs := pipelineLookupFixture(b)
	sim := vrpower.NewBatchSim(img)
	res := make([]vrpower.Result, 0, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Reset()
		var err error
		if res, _, err = sim.RunAppend(res[:0], reqs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkPipelineLookupScalar is the cycle-accurate oracle on the same
// fixture — the before/after reference for the batched speedup and the
// second bench the CI gate tracks.
func BenchmarkPipelineLookupScalar(b *testing.B) {
	img, reqs := pipelineLookupFixture(b)
	sim := vrpower.NewSim(img)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Reset()
		if _, _, err := sim.Run(reqs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

func BenchmarkAnalyticSweep(b *testing.B) {
	prof, err := vrpower.PaperProfile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 15; k++ {
			r, err := vrpower.BuildAnalytic(vrpower.Config{
				Scheme: vrpower.VM, K: k, ClockGating: true,
			}, prof, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.ModelPower(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// itoa formats n without strconv. It works in negatives so math.MinInt
// (whose magnitude overflows int) formats correctly too.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if !neg {
		n = -n
	}
	var buf [21]byte // sign + 20 digits covers 64-bit ints
	i := len(buf)
	for n < 0 {
		i--
		buf[i] = byte('0' - n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkAblationBalancedMapping compares the plain fold-into-stage-0
// level mapping against the memory-balanced partition (paper refs [7,8])
// on the block-heavy merged scheme.
func BenchmarkAblationBalancedMapping(b *testing.B) {
	for _, balanced := range []bool{false, true} {
		name := "plain"
		if balanced {
			name = "balanced"
		}
		b.Run(name, func(b *testing.B) {
			var fmax, eff float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VM, K: 12, ClockGating: true, Balanced: balanced,
				}, 0.2)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				fmax = r.Fmax()
				eff = vrpower.MilliwattsPerGbps(p.Total(), r.ThroughputGbps())
			}
			b.ReportMetric(fmax, "MHz")
			b.ReportMetric(eff, "mW/Gbps")
		})
	}
}

// BenchmarkAblationHybridMemory compares BRAM-only stage memories (the
// paper's simplifying assumption in Section V-B) against the hybrid that
// maps small stages to distributed RAM, avoiding near-empty 18 Kb blocks.
func BenchmarkAblationHybridMemory(b *testing.B) {
	for _, thr := range []int64{0, 4096} {
		name := "bram-only"
		if thr > 0 {
			name = "hybrid-4Kb"
		}
		b.Run(name, func(b *testing.B) {
			var mem float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VS, K: 8, ClockGating: true, DistRAMThreshold: thr,
				}, 0)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				mem = p.Memory
			}
			b.ReportMetric(mem*1e3, "memory_mW")
		})
	}
}

// --- Extension experiment benches ---

func BenchmarkExtensionStride(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.StrideComparison()
		if err != nil {
			b.Fatal(err)
		}
		s = tbl.String()
	}
	logOnceF(b, "stride", s)
}

func BenchmarkExtensionTCAM(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.TCAMComparison()
		if err != nil {
			b.Fatal(err)
		}
		s = tbl.String()
	}
	logOnceF(b, "tcam", s)
}

func BenchmarkExtensionUpdates(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.UpdateCost()
		if err != nil {
			b.Fatal(err)
		}
		s = tbl.String()
	}
	logOnceF(b, "updates", s)
}

func BenchmarkExtensionDeviceFit(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.DeviceFit()
		if err != nil {
			b.Fatal(err)
		}
		s = tbl.String()
	}
	logOnceF(b, "devicefit", s)
}

func BenchmarkExtensionQoS(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.QoSIsolation()
		if err != nil {
			b.Fatal(err)
		}
		s = tbl.String()
	}
	logOnceF(b, "qos", s)
}

func BenchmarkExtensionBraiding(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.BraidingComparison()
		if err != nil {
			b.Fatal(err)
		}
		s = tbl.String()
	}
	logOnceF(b, "braiding", s)
}

func BenchmarkExtensionLoadSweep(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		f, err := experiments.LoadSweep()
		if err != nil {
			b.Fatal(err)
		}
		s = f.String()
	}
	logOnceF(b, "loadsweep", s)
}

// --- More substrate performance benches ---

func BenchmarkTCAMLookup(b *testing.B) {
	tbl, err := vrpower.Generate("bench", vrpower.DefaultGen(3725, 1))
	if err != nil {
		b.Fatal(err)
	}
	tc := vrpower.BuildTCAM(tbl)
	addrs := make([]vrpower.Addr, 1024)
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{K: 1, Seed: 2, Addr: vrpower.RoutedAddr, Tables: []*vrpower.Table{tbl}})
	if err != nil {
		b.Fatal(err)
	}
	for i := range addrs {
		addrs[i] = gen.Next().Addr
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkMultibitLookup(b *testing.B) {
	tbl, err := vrpower.Generate("bench", vrpower.DefaultGen(3725, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, stride := range []int{1, 4, 8} {
		mt, err := vrpower.BuildMultibit(tbl.Routes, stride)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(itoa(stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mt.Lookup(vrpower.Addr(uint32(i) * 2654435761))
			}
		})
	}
}

func BenchmarkBraidBuild(b *testing.B) {
	set, err := vrpower.GenerateVirtualSet(4, 800, 0.3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vrpower.BraidTables(set.Tables); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerDRR(b *testing.B) {
	s, err := vrpower.NewScheduler(vrpower.SchedConfig{K: 8, QueueCap: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		s.Enqueue(vrpower.SchedPacket{VN: i % 8, Bytes: 40 + i%1460})
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if _, ok := s.Dequeue(); !ok {
			b.StopTimer()
			for j := 0; j < 1<<16; j++ {
				s.Enqueue(vrpower.SchedPacket{VN: j % 8, Bytes: 40 + j%1460})
			}
			b.StartTimer()
		}
		n++
	}
	_ = n
}

func BenchmarkFrameParse(b *testing.B) {
	src, _ := vrpower.ParseAddr("10.0.0.1")
	dst, _ := vrpower.ParseAddr("192.168.1.1")
	buf, err := vrpower.BuildFrame(vrpower.MAC{2, 0, 0, 0, 0, 1}, vrpower.MAC{2, 0, 0, 0, 0, 2}, 7, 0, src, dst, 64, 26)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vrpower.ParseFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChurnDiff(b *testing.B) {
	tbl, err := vrpower.Generate("bench", vrpower.DefaultGen(1000, 4))
	if err != nil {
		b.Fatal(err)
	}
	ops, err := vrpower.GenerateChurn(tbl, 100, 5)
	if err != nil {
		b.Fatal(err)
	}
	build := func(tb *vrpower.Table) *vrpower.Image {
		r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VS, K: 1, ClockGating: true}, []*vrpower.Table{tb})
		if err != nil {
			b.Fatal(err)
		}
		return r.Images()[0]
	}
	before := build(tbl)
	after := build(vrpower.ApplyChurn(tbl, ops))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vrpower.DiffImages(before, after); err != nil {
			b.Fatal(err)
		}
	}
}
