package experiments

import (
	"fmt"

	"awgsim/internal/metrics"
)

// AblationBenchmarks picks one representative of each synchronization
// class: a contended test-and-set mutex (resume-count prediction matters),
// a FIFO ticket lock (stall/switch decisions dominate), and the two
// tree-barrier flavours (latency-sensitive resume-all).
func AblationBenchmarks() []string {
	return []string{"SPM_G", "FAM_G", "TB_LG", "LFTB_LG"}
}

// Ablation quantifies AWG's design choices (the DESIGN.md ablation index):
// full AWG against AWG without stall-period prediction, AWG without
// resume-count prediction, and AWG with the SyncMon cache disabled
// (everything virtualized through the Monitor Log), in the oversubscribed
// scenario where the mechanisms interact. Values are speedups over the
// Timeout policy, like Figure 15. Every variant claims IFP, so batch fails
// the experiment rather than render a deadlocked cell.
func Ablation(o Options) (*metrics.Table, error) {
	iters := fig15Iters(o)
	variants := []string{"AWG", "AWG-nostall", "AWG-nopredict", "AWG-nocache"}
	var cells []cell
	for _, b := range AblationBenchmarks() {
		cells = append(cells, cell{bench: b, policy: "Timeout", oversub: true, iters: iters})
		for _, v := range variants {
			cells = append(cells, cell{bench: b, policy: v, oversub: true, iters: iters})
		}
	}
	grid, err := o.batch(cells)
	if err != nil {
		return nil, fmt.Errorf("ablation %w", err)
	}
	t := metrics.NewTable("Ablation: AWG variants, oversubscribed, speedup vs Timeout",
		append([]string{"Benchmark"}, variants...)...)
	geo := make(map[string][]float64)
	for _, b := range AblationBenchmarks() {
		base := grid[cell{bench: b, policy: "Timeout", oversub: true, iters: iters}]
		row := []any{b}
		for _, v := range variants {
			s := grid[cell{bench: b, policy: v, oversub: true, iters: iters}].Speedup(base)
			geo[v] = append(geo[v], s)
			row = append(row, s)
		}
		t.AddRow(row...)
	}
	grow := []any{"GeoMean"}
	for _, v := range variants {
		grow = append(grow, metrics.GeoMean(geo[v]))
	}
	t.AddRow(grow...)
	return t, nil
}
