package core

import (
	"fmt"

	"vrpower/internal/merge"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// TableProfile is the per-level shape of one network's leaf-pushed trie,
// the input to the analytic memory model. The paper evaluates with all K
// tables of equal size (Assumption 2), so one profile describes every
// network.
type TableProfile struct {
	// PerLevel holds internal/leaf node counts per trie level.
	PerLevel []trie.Level
	Nodes    int
	Leaves   int
	Height   int
}

// ProfileOf extracts the profile of a routing table's leaf-pushed trie.
func ProfileOf(tbl *rib.Table) TableProfile {
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	s := tr.Stats()
	return TableProfile{PerLevel: s.PerLevel, Nodes: s.Nodes, Leaves: s.Leaves, Height: s.Height}
}

// PaperProfile generates the reference profile of Section V-E: a synthetic
// table calibrated to the paper's published 3725-prefix Potaroo snapshot
// (9726 trie nodes, 16127 after leaf pushing).
func PaperProfile() (TableProfile, error) {
	tbl, err := rib.Generate("paper", rib.DefaultGen(3725, 1))
	if err != nil {
		return TableProfile{}, err
	}
	return ProfileOf(tbl), nil
}

// MemoryDemand evaluates the analytic memory model for one scheme without
// placing it on a device — the Fig. 4 computation, which sweeps K beyond
// what the device can host. It returns the pointer (internal node) and NHI
// (leaf vector) memory in bits.
//
// NV and VS store K independent tries: pointers and 1-wide NHI scale with K.
// VM stores one merged trie: per level, K tries' nodes merge down by the
// sharing model T = K·m/(1+(K−1)α), but every merged leaf carries a K-wide
// NHI vector (Section V-D) — the pointer-saving vs NHI-growth trade-off the
// paper highlights.
func MemoryDemand(cfg Config, prof TableProfile, alpha float64) (ptrBits, nhiBits int64, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if alpha < 0 || alpha > 1 {
		return 0, 0, fmt.Errorf("core: alpha %g outside [0,1]", alpha)
	}
	engines := int64(engineCount(cfg.Scheme, cfg.K))
	for _, lv := range prof.PerLevel {
		p, n := analyticLevelBits(cfg, lv, alpha)
		ptrBits += engines * p
		nhiBits += engines * n
	}
	return ptrBits, nhiBits, nil
}

// analyticLevelBits is one engine's pointer and NHI memory for profile level
// lv: the table's own level for an NV/VS engine, and for the VM engine the
// K tables' level merged by the sharing model, each merged leaf carrying a
// K-wide NHI vector.
func analyticLevelBits(cfg Config, lv trie.Level, alpha float64) (ptr, nhi int64) {
	if cfg.Scheme != VM {
		return levelBits(cfg.Layout, lv, 1)
	}
	mi := merge.AnalyticNodes(cfg.K, float64(lv.Internal), alpha)
	ml := merge.AnalyticNodes(cfg.K, float64(lv.Leaves), alpha)
	return int64(mi * 2 * float64(cfg.Layout.PtrBits)), int64(ml * float64(cfg.K) * float64(cfg.Layout.NHIBits))
}

// BuildAnalytic constructs a router from the analytic memory model instead
// of concrete tables: stage memories come from the profile (scaled by the
// sharing model for VM), then placement, timing and power proceed exactly
// as in Build. This is the fast path behind the Fig. 5–8 sweeps, mirroring
// how the paper parameterises merging by α directly because "merging
// efficiency cannot be determined in advance" (Section V-E).
func BuildAnalytic(cfg Config, prof TableProfile, alpha float64) (*Router, error) {
	ptrBits, nhiBits, err := MemoryDemand(cfg, prof, alpha)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	bits := make([]int64, len(prof.PerLevel))
	for level, lv := range prof.PerLevel {
		p, n := analyticLevelBits(cfg, lv, alpha)
		bits[level] = p + n
	}
	var sm trie.StageMap
	if cfg.Balanced {
		// Balanced partitioning sees the engine's per-level memory.
		sm, err = trie.NewBalancedStageMap(cfg.Stages, bits)
	} else {
		sm, err = trie.NewStageMap(cfg.Stages, prof.Height)
	}
	if err != nil {
		return nil, err
	}
	stageBits := make([]int64, cfg.Stages)
	for level, b := range bits {
		stageBits[sm.Stage(level)] += b
	}
	engines := make([]power.EngineDesign, engineCount(cfg.Scheme, cfg.K))
	for i := range engines {
		engines[i] = power.EngineDesign{
			StageBits:   stageBits,
			Utilization: engineUtilization(cfg.Scheme, cfg.K),
		}
	}
	r, err := assemble(cfg, engines)
	if err != nil {
		return nil, err
	}
	r.ptrBits = ptrBits
	r.nhiBits = nhiBits
	return r, nil
}
