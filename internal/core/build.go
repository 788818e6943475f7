package core

import (
	"fmt"

	"vrpower/internal/fpga"
	"vrpower/internal/merge"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// Build constructs a router of cfg.Scheme from the K routing tables:
// tables → (merged) leaf-pushed tries → compiled pipeline images → placed
// design with its achievable clock and power-model input.
func Build(cfg Config, tables []*rib.Table) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.K {
		return nil, fmt.Errorf("core: %d tables for K = %d", len(tables), cfg.K)
	}

	var images []*pipeline.Image
	switch cfg.Scheme {
	case NV, VS:
		for _, tbl := range tables {
			tr := trie.Build(tbl.Routes)
			tr.LeafPush()
			var img *pipeline.Image
			var err error
			if cfg.Balanced {
				sm, serr := trie.NewBalancedStageMap(cfg.Stages, perLevelBits(cfg.Layout, tr.Stats().PerLevel, 1))
				if serr != nil {
					return nil, serr
				}
				img, err = pipeline.CompileMapped(tr, sm)
			} else {
				img, err = pipeline.Compile(tr, cfg.Stages)
			}
			if err != nil {
				return nil, err
			}
			images = append(images, img)
		}
	case VM:
		m, err := merge.Build(tables)
		if err != nil {
			return nil, err
		}
		m.LeafPush()
		var img *pipeline.Image
		if cfg.Balanced {
			sm, serr := trie.NewBalancedStageMap(cfg.Stages, perLevelBits(cfg.Layout, m.Stats().PerLevel, m.K()))
			if serr != nil {
				return nil, serr
			}
			img, err = pipeline.CompileMergedMapped(m, sm)
		} else {
			img, err = pipeline.CompileMerged(m, cfg.Stages)
		}
		if err != nil {
			return nil, err
		}
		images = []*pipeline.Image{img}
	}

	engines := make([]power.EngineDesign, len(images))
	var ptrBits, nhiBits int64
	for i, img := range images {
		engines[i] = power.EngineDesign{
			StageBits:   cfg.Layout.AllStageBits(img),
			Utilization: engineUtilization(cfg.Scheme, cfg.K),
		}
		p, n := cfg.Layout.PointerAndNHIBits(img)
		ptrBits += p
		nhiBits += n
	}
	r, err := assemble(cfg, engines)
	if err != nil {
		return nil, err
	}
	r.images = images
	r.ptrBits = ptrBits
	r.nhiBits = nhiBits
	return r, nil
}

// levelBits is the stage-memory formula for one trie level: two child
// pointers per internal node and a k-wide NHI vector per leaf.
func levelBits(l pipeline.MemLayout, lv trie.Level, k int) (ptr, nhi int64) {
	return int64(lv.Internal) * 2 * int64(l.PtrBits), int64(lv.Leaves) * int64(k) * int64(l.NHIBits)
}

// perLevelBits sizes every level of a trie with k-wide leaves: the input to
// the balanced (min-max memory) stage partition.
func perLevelBits(l pipeline.MemLayout, perLevel []trie.Level, k int) []int64 {
	bits := make([]int64, len(perLevel))
	for i, lv := range perLevel {
		ptr, nhi := levelBits(l, lv, k)
		bits[i] = ptr + nhi
	}
	return bits
}

// engineCount returns the number of lookup engines a scheme builds for k
// networks: one per network for NV and VS, one shared engine for VM.
func engineCount(s Scheme, k int) int {
	if s == VM {
		return 1
	}
	return k
}

// engineUtilization returns µ for one engine under Assumption 1: NV and VS
// engines each see 1/K of the traffic; the VM engine time-shares all of it.
func engineUtilization(s Scheme, k int) float64 {
	if s == VM {
		return 1
	}
	return 1 / float64(k)
}

// assemble computes per-device resources, places the design, derives the
// achievable clock and finalises the power-model input.
func assemble(cfg Config, engines []power.EngineDesign) (*Router, error) {
	devices := 1
	if cfg.Scheme == NV {
		devices = cfg.K
	}
	enginesPerDevice := len(engines) / devices

	// Logic: the measured uni-bit PE per stage (Section V-C).
	pe := fpga.UnibitPE()
	used := fpga.Resources{
		FFs:    enginesPerDevice * cfg.Stages * pe.FFs,
		LUTs:   enginesPerDevice * cfg.Stages * pe.LUTs(),
		IOPins: fpga.ShellPins + enginesPerDevice*fpga.EnginePins,
	}
	// BRAM blocks per device and the per-stage congestion driver; stages
	// under the hybrid threshold map to distributed RAM (LUT RAM) instead.
	maxPerStage := 0
	blocksPerDevice := 0
	for i := 0; i < enginesPerDevice; i++ {
		for _, bits := range engines[i].StageBits {
			if cfg.DistRAMThreshold > 0 && bits > 0 && bits <= cfg.DistRAMThreshold {
				quanta := (bits + power.DistRAMQuantumBits - 1) / power.DistRAMQuantumBits
				used.DistRAMBits += quanta * power.DistRAMQuantumBits
				used.LUTs += int(quanta) // one 64-bit LUT RAM per quantum
				continue
			}
			n := cfg.Mode.BlocksFor(bits)
			blocksPerDevice += n
			if n > maxPerStage {
				maxPerStage = n
			}
		}
	}
	if cfg.Mode == fpga.BRAM36Mode {
		used.BRAM36 = blocksPerDevice
	} else {
		used.BRAM18 = blocksPerDevice
	}

	pl, err := fpga.Place(cfg.Device, cfg.Grade, used, cfg.Stages, maxPerStage, enginesPerDevice)
	if err != nil {
		return nil, err
	}
	fmax := cfg.Timing.Fmax(pl)

	design := power.SystemDesign{
		Grade:                cfg.Grade,
		Mode:                 cfg.Mode,
		FMHz:                 fmax,
		Devices:              devices,
		Engines:              engines,
		ClockGating:          cfg.ClockGating,
		DistRAMThresholdBits: cfg.DistRAMThreshold,
		StaticScale:          cfg.Device.AreaScale(),
	}
	if err := design.Validate(); err != nil {
		return nil, err
	}
	return &Router{cfg: cfg, design: design, placement: pl, fmax: fmax}, nil
}
