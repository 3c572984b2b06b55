// Package main_test is the repository's benchmark harness: one testing.B
// benchmark per table and figure of the paper. Each benchmark regenerates
// its experiment (at reduced "quick" scale so `go test -bench=.` stays
// tractable) and reports the experiment's headline number as a custom
// metric. For full-scale regeneration use `go run ./cmd/awgexp`.
package main_test

import (
	"strconv"
	"strings"
	"testing"

	"awgsim/awg"
	"awgsim/internal/experiments"
	"awgsim/internal/metrics"
)

var quick = experiments.Options{Quick: true}

func runExperiment(b *testing.B, id string) *metrics.Table {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab, err = e.Run(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// lastRowMetric extracts a named column from the final (GeoMean) row.
func lastRowMetric(tab *metrics.Table, col string) float64 {
	lines := strings.Split(strings.TrimSpace(tab.String()), "\n")
	header := strings.Fields(lines[1])
	last := strings.Fields(lines[len(lines)-1])
	for i, h := range header {
		if h == col && i < len(last) {
			if v, err := strconv.ParseFloat(last[i], 64); err == nil {
				return v
			}
		}
	}
	return 0
}

func BenchmarkTable1Config(b *testing.B)          { runExperiment(b, "table1") }
func BenchmarkTable2Characteristics(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig5ContextSize(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkFig6Signatures(b *testing.B)        { runExperiment(b, "fig6") }

func BenchmarkFig7SleepSweep(b *testing.B)     { runExperiment(b, "fig7") }
func BenchmarkFig8TimeoutSweep(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9WaitEfficiency(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFig11Breakdown(b *testing.B)     { runExperiment(b, "fig11") }
func BenchmarkFig13CPStructures(b *testing.B)  { runExperiment(b, "fig13") }

func BenchmarkFig14NonOversubscribed(b *testing.B) {
	tab := runExperiment(b, "fig14")
	b.ReportMetric(lastRowMetric(tab, "AWG"), "AWGgeomean-speedup")
}

func BenchmarkFig15Oversubscribed(b *testing.B) {
	tab := runExperiment(b, "fig15")
	b.ReportMetric(lastRowMetric(tab, "AWG"), "AWGgeomean-vs-Timeout")
}

// BenchmarkSingleRun* time one simulation each, the unit of cost every
// experiment is built from.
func benchmarkSingleRun(b *testing.B, bench, policy string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := awg.Run(awg.Config{Benchmark: bench, Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("deadlocked")
		}
		b.ReportMetric(float64(res.Cycles), "simcycles")
	}
}

func BenchmarkSingleRunSPMGBaseline(b *testing.B) { benchmarkSingleRun(b, "SPM_G", "Baseline") }
func BenchmarkSingleRunSPMGAWG(b *testing.B)      { benchmarkSingleRun(b, "SPM_G", "AWG") }
func BenchmarkSingleRunTBLGAWG(b *testing.B)      { benchmarkSingleRun(b, "TB_LG", "AWG") }

func BenchmarkAblation(b *testing.B)  { runExperiment(b, "ablation") }
func BenchmarkPriority(b *testing.B)  { runExperiment(b, "priority") }
func BenchmarkOversweep(b *testing.B) { runExperiment(b, "oversweep") }
func BenchmarkFaults(b *testing.B)    { runExperiment(b, "faults") }
