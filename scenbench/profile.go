package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// profileShares groups a CPU profile's flat (self) time by module with
// `go tool pprof -top`: vrpower/internal/<module> for the program's own
// packages, "runtime" for the Go runtime (GC, scheduler, allocation) and
// "other" for the rest of the standard library.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		flat[moduleOf(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("empty profile")
	}
	for m := range flat {
		flat[m] /= total
	}
	return flat, nil
}

// moduleOf maps a profiled function name to its module.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "vrpower/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") {
		return "runtime"
	}
	return "other"
}

// replayLayerOf maps a profiled module to the replayed layer its self time
// should land in.
var replayLayerOf = map[string]string{
	"rib": "rib", "core": "core", "traffic": "traffic", "pipeline": "pipeline",
	"ip": "ip", "energy": "energy", "governor": "governor", "ctrl": "ctrl",
	"update": "ctrl", "fleet": "fleet", "netsim": "netsim", "scenario": "netsim",
}

// printProfile prints profiled self time by module beside the replayed
// share of each layer, so that a replay that misattributes time shows.
func printProfile(path string, replayed map[string]float64) {
	prof, err := profileShares(path)
	if err != nil {
		fmt.Printf("  profile cross-check unavailable: %v\n", err)
		return
	}
	byLayer := map[string]float64{}
	for m, s := range prof {
		byLayer[layerName(m)] += s
	}
	fmt.Println("  profile cross-check: replayed share of the traced run beside profiled share of CPU samples")
	fmt.Printf("    %-10s %9s %9s\n", "layer", "replayed", "profiled")
	for _, l := range append(append([]string{}, runLayers...), "netsim") {
		fmt.Printf("    %-10s %8.1f%% %8.1f%%\n", l, 100*replayed[l], 100*byLayer[l])
		delete(byLayer, l)
	}
	rest := make([]string, 0, len(byLayer))
	for l := range byLayer {
		rest = append(rest, l)
	}
	sort.Strings(rest)
	for _, l := range rest {
		fmt.Printf("    %-10s %9s %8.1f%%\n", l, "-", 100*byLayer[l])
	}
}

func layerName(module string) string {
	if l, ok := replayLayerOf[module]; ok {
		return l
	}
	return module
}
