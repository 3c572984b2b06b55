// Package metrics defines the result and statistics types shared by the
// simulator, the experiment harnesses, and the public API, plus the small
// numeric helpers (geometric mean, normalization) the paper's figures use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// WGBreakdown is one work-group's execution-time split, the quantity
// Figure 11 plots (normalized to the Timeout policy).
type WGBreakdown struct {
	Running uint64 // cycles spent executing or moving data
	Waiting uint64 // cycles spent inside synchronization wait episodes
}

// SyncVarStats is a run's synchronization characterization over all its
// variables, the raw material for Table 2's columns.
type SyncVarStats struct {
	// Conditions sums, over word-aligned variables, each one's distinct
	// waited-for values.
	Conditions int
	// MaxWaiters is the peak number of WGs waiting at once on any one
	// (addr, want) condition.
	MaxWaiters int
	// UpdatesPerCond is the mean, over met wait episodes, of the write
	// atomics to the episode's word between its begin and its met.
	UpdatesPerCond float64
}

// Counters is a run's scheduling, monitor-occupancy and predictor
// activity. The machine, its policy, the SyncMon and the CP bump it in
// place (gpu.Machine.Count), and Result embeds it, so its fields are
// Result's and encode in this order.
type Counters struct {
	// Scheduling activity.
	SwitchesOut, SwitchesIn uint64
	Stalls                  uint64
	Resumes                 uint64 // WGs woken by the policy
	WastedResumes           uint64 // woken WGs whose retry failed (contention / sporadic wakeups)
	Timeouts                uint64 // waits ended by a timeout rather than a notification

	// SyncMon / CP occupancy, for Figure 13 and the hardware-overhead table.
	MaxConditions   int // peak waiting conditions tracked (SyncMon + spill)
	MaxWaitingWGs   int // peak waiting WGs tracked
	MaxMonitoredVar int // peak distinct monitored addresses
	MaxLogEntries   int // peak Monitor Log occupancy
	LogSpills       uint64
	LogRejects      uint64 // waiting atomics bounced because the log was full (Mesa retries)

	// AWG predictor activity.
	PredictAll, PredictOne uint64
	BloomResets            uint64
}

// Result is everything one simulation run reports.
type Result struct {
	Benchmark string
	Policy    string

	Cycles     uint64 // kernel runtime in simulated cycles
	Deadlocked bool   // progress watchdog fired (expected for Baseline oversubscribed)
	Completed  int    // WGs that ran to completion

	// Diagnosis explains a deadlocked run: per-WG state, the blocking
	// (address, expected) conditions, queue and monitor occupancy. Nil for
	// completed runs. Results compare equal only when they share the same
	// diagnosis object; compare deadlocked runs field-by-field instead.
	Diagnosis *Diagnosis `json:",omitempty"`

	// Instruction/traffic counters.
	Atomics      uint64 // dynamic atomic instructions (global + local)
	BankWait     uint64 // cycles atomics queued at L2 banks
	ContextBytes uint64 // WG context save/restore traffic

	// Per-WG execution breakdown.
	Breakdown WGBreakdown // summed over WGs
	// MaxWait is the longest single wait episode any WG endured, a
	// fairness/latency-tail indicator (FIFO ticket locks bound it; herd
	// resume policies do not).
	MaxWait uint64

	// Scheduling, SyncMon/CP occupancy and AWG predictor activity.
	Counters

	// Benchmark characterization (Table 2).
	SyncVars int
	VarStats SyncVarStats

	ContextKB float64 // WG context size (Fig. 5)
}

// Speedup reports how much faster this run is than base (base.Cycles /
// r.Cycles). It returns 0 when either run deadlocked or has no cycles.
func (r Result) Speedup(base Result) float64 {
	if r.Deadlocked || base.Deadlocked || r.Cycles == 0 || base.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// NormalizedRuntime reports r.Cycles / base.Cycles, the Y axis of Figures 7
// and 8. Returns 0 when undefined.
func (r Result) NormalizedRuntime(base Result) float64 {
	if r.Deadlocked || base.Deadlocked || base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// GeoMean returns the geometric mean of the positive entries of xs; zero and
// negative entries (deadlocks, undefined ratios) are skipped, mirroring how
// the paper reports geomeans over defined bars only.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table renders rows of labelled values as an aligned text table, used by
// the awgexp tool to print each figure's data series.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; each cell is formatted with %v, floats with 3
// significant digits.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if v == 0 {
				row[i] = "-"
			} else {
				row[i] = fmt.Sprintf("%.3g", v)
			}
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows reports the number of data rows added so far.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// SortRowsBy sorts data rows by the given column index (string order).
func (t *Table) SortRowsBy(col int) {
	sort.SliceStable(t.rows, func(i, j int) bool { return t.rows[i][col] < t.rows[j][col] })
}
