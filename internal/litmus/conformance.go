package litmus

import (
	"fmt"
	"sort"
	"strings"

	"awgsim/internal/fault"
	"awgsim/internal/kernels"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// Cell is one simulated (pattern, policy, occupancy) outcome annotated
// with the oracle verdicts for that pattern at that capacity.
type Cell struct {
	Pattern int // index into the sweep's pattern slice
	Policy  string
	Occ     string
	Cap     int

	Result metrics.Result
	Err    error

	// Must[m] reports whether the pattern must terminate under model m at
	// this cell's capacity.
	Must [4]bool
}

// Failed reports whether the run did not complete: construction/verify
// error or a diagnosed (or undiagnosed) stall.
func (c Cell) Failed() bool { return c.Err != nil || c.Result.Deadlocked }

// Violation is one conformance failure: the strongest claim broken by a
// cell, plus whether it is the expected shape for a policy that never
// promised IFP.
type Violation struct {
	Cell  Cell
	Model Model
	// Expected marks the documented outcome: a non-IFP policy (per
	// fault.ProvidesIFP) failing a pattern only IFP requires. Everything
	// else is a harness-confirmed bug.
	Expected bool
	Detail   string
}

// Sweep is one full conformance run.
type Sweep struct {
	Patterns   []kernels.Litmus
	Policies   []string
	Occupancy  []Occupancy
	Cells      []Cell
	Violations []Violation
}

// Conformance runs every pattern x policy x occupancy cell through the
// session pool and checks each against the four progress-model oracles.
// The oracles' verdicts depend on the pattern and the capacity alone, so
// they are decided once per (pattern, occupancy) and shared by its
// policies' cells. Each distinct run, a (pattern name, policy, capacity)
// triple, simulates once: occupancies whose Cap coincide, and patterns
// Generate repeats, copy that run's outcome, accounted by sim.Reuse. Each
// distinct name also builds once: its jobs share the immutable kernel
// (spec, program, Verify) through Config.Kernel, so the pool's workers
// read one build. The memo is local to the call, like the run table.
// budget is the per-run cycle cap (0 = RunConfig's default); workers <= 0
// selects GOMAXPROCS.
func Conformance(patterns []kernels.Litmus, policies []string, occs []Occupancy, budget uint64, workers int) *Sweep {
	n := len(patterns) * len(policies) * len(occs)
	s := &Sweep{Patterns: patterns, Policies: policies, Occupancy: occs, Cells: make([]Cell, 0, n)}
	type run struct {
		name, policy string
		wgCap        int
	}
	runs := make(map[run]int, n) // index into jobs
	jobs := make([]sim.Job, 0, n)
	jobOf := make([]int, 0, n)   // per cell, the job it takes its outcome from
	copied := make([]bool, 0, n) // per cell, whether an earlier cell ran that job
	names := make([]string, len(patterns))
	built := make(map[string]*kernels.Benchmark, len(patterns))
	// byOcc holds the pattern's cell per occupancy, less its policy.
	byOcc := make([]Cell, len(occs))
	for pi, l := range patterns {
		name := l.Encode()
		names[pi] = name
		for oi, occ := range occs {
			c := Cell{Pattern: pi, Occ: occ.Name, Cap: occ.Cap(l.NumWGs())}
			for _, m := range Models() {
				c.Must[m] = MustTerminate(l, m, c.Cap)
			}
			byOcc[oi] = c
		}
		for _, pol := range policies {
			for _, cell := range byOcc {
				cell.Policy = pol
				s.Cells = append(s.Cells, cell)
				j, ok := runs[run{name, pol, cell.Cap}]
				if !ok {
					j = len(jobs)
					runs[run{name, pol, cell.Cap}] = j
					cfg := shareBuild(runConfig(name, l.NumWGs(), pol, cell.Cap, budget), built)
					jobs = append(jobs, sim.Job{Config: cfg})
				}
				jobOf = append(jobOf, j)
				copied = append(copied, ok)
			}
		}
	}
	outs := sim.RunAllWorkers(jobs, workers)
	for i := range s.Cells {
		out := outs[jobOf[i]]
		if copied[i] {
			sim.Reuse(out.Result)
		}
		c := &s.Cells[i]
		c.Result, c.Err = out.Result, out.Err
		s.check(c, names[c.Pattern])
	}
	return s
}

// shareBuild hands cfg the kernel its benchmark name builds, building each
// name once into built. A Result names its benchmark after the kernel
// spec, which carries the same name, so the run is unchanged. A name whose
// build fails keeps its name-based config, so each of its runs reports the
// construction error itself.
func shareBuild(cfg sim.Config, built map[string]*kernels.Benchmark) sim.Config {
	b, seen := built[cfg.Benchmark]
	if !seen {
		var err error
		if b, err = kernels.Build(cfg.Benchmark, cfg.Params); err != nil {
			b = nil
		}
		built[cfg.Benchmark] = b
	}
	if b != nil {
		cfg.Benchmark = ""
		cfg.Kernel, cfg.Init, cfg.Verify = &b.Spec, b.Init, b.Verify
	}
	return cfg
}

// check appends cell's conformance violations, if any. A cell can break at
// most one model claim meaningfully — the strongest one it fails — but a
// *hang* (stall without a structured diagnosis) and a *corruption*
// (completing a pattern no fair scheduler completes, caught by the
// benchmark's Verify and surfaced as Err on a completed run) are always
// violations regardless of the oracles. name is the pattern's encoding.
func (s *Sweep) check(c *Cell, name string) {
	if !c.Failed() {
		return // completed and verified; nothing to report
	}
	if c.Err == nil && c.Result.Deadlocked && c.Result.Diagnosis == nil {
		s.Violations = append(s.Violations, Violation{
			Cell: *c, Model: IFP,
			Detail: fmt.Sprintf("%s on %s at occ=%s: stalled without a diagnosis", c.Policy, name, c.Occ),
		})
		return
	}
	// Strongest broken model first: a pattern every OBE scheduler finishes
	// is a stronger indictment than one only IFP promises.
	for _, m := range []Model{OBE, HSA, LinOcc, IFP} {
		if !c.Must[m] {
			continue
		}
		v := Violation{
			Cell: *c, Model: m,
			Expected: m == IFP && onlyIFPMust(c.Must) && !fault.ProvidesIFP(c.Policy),
			Detail: fmt.Sprintf("%s on %s at occ=%s (cap %d): must terminate under %s, got %s",
				c.Policy, name, c.Occ, c.Cap, m, outcomeString(c)),
		}
		s.Violations = append(s.Violations, v)
		return
	}
	if c.Err != nil {
		// Failed a pattern no model requires terminating — only an error
		// (e.g. a construction failure) is reportable; a diagnosed stall
		// on a broken pattern is the correct outcome.
		s.Violations = append(s.Violations, Violation{
			Cell: *c, Model: IFP,
			Detail: fmt.Sprintf("%s on %s at occ=%s: %v", c.Policy, name, c.Occ, c.Err),
		})
	}
}

// onlyIFPMust reports whether IFP is the only model requiring termination.
func onlyIFPMust(must [4]bool) bool {
	return must[IFP] && !must[OBE] && !must[HSA] && !must[LinOcc]
}

func outcomeString(c *Cell) string {
	switch {
	case c.Err != nil:
		return fmt.Sprintf("error: %v", c.Err)
	case c.Result.Deadlocked && c.Result.Diagnosis != nil:
		return "diagnosed stall (" + c.Result.Diagnosis.Summary() + ")"
	case c.Result.Deadlocked:
		return "undiagnosed stall"
	}
	return "completed"
}

// Unexpected returns the violations that are not documented non-IFP
// outcomes — the ones that must each be fixed in-tree.
func (s *Sweep) Unexpected() []Violation {
	var out []Violation
	for _, v := range s.Violations {
		if !v.Expected {
			out = append(out, v)
		}
	}
	return out
}

// Matrix reduces the sweep to the conformance table: one row per policy x
// occupancy, one column per progress model, each cell "pass a/b" where b
// counts the patterns that model requires terminating at that occupancy
// and a counts how many the policy completed. Expected non-IFP failures
// render as "no-IFP"; unexpected violations as "FAIL".
func (s *Sweep) Matrix(title string) *metrics.Table {
	type key struct {
		policy, occ string
		model       Model
	}
	must := map[key]int{}
	pass := map[key]int{}
	expected := map[key]bool{}
	failed := map[key]bool{}
	for _, c := range s.Cells {
		for _, m := range Models() {
			if !c.Must[m] {
				continue
			}
			k := key{c.Policy, c.Occ, m}
			must[k]++
			if !c.Failed() {
				pass[k]++
			}
		}
	}
	for _, v := range s.Violations {
		k := key{v.Cell.Policy, v.Cell.Occ, v.Model}
		if v.Expected {
			expected[k] = true
		} else {
			failed[k] = true
		}
	}
	cols := []string{"Policy", "Occupancy"}
	for _, m := range Models() {
		cols = append(cols, m.String())
	}
	t := metrics.NewTable(title, cols...)
	for _, pol := range s.Policies {
		for _, occ := range s.Occupancy {
			row := []any{pol, occ.Name}
			for _, m := range Models() {
				k := key{pol, occ.Name, m}
				cell := fmt.Sprintf("pass %d/%d", pass[k], must[k])
				switch {
				case failed[k]:
					cell = fmt.Sprintf("FAIL %d/%d", pass[k], must[k])
				case expected[k]:
					cell = fmt.Sprintf("no-IFP %d/%d", pass[k], must[k])
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Summary renders the violation list, expected outcomes last, pattern
// text truncated for readability; deterministic for equal sweeps.
func (s *Sweep) Summary() string {
	if len(s.Violations) == 0 {
		return "no violations"
	}
	vs := append([]Violation(nil), s.Violations...)
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].Expected != vs[j].Expected {
			return !vs[i].Expected
		}
		return vs[i].Detail < vs[j].Detail
	})
	var b strings.Builder
	for _, v := range vs {
		tag := "VIOLATION"
		if v.Expected {
			tag = "expected"
		}
		fmt.Fprintf(&b, "[%s] %s\n", tag, v.Detail)
	}
	return strings.TrimRight(b.String(), "\n")
}
