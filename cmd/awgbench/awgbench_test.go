package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// tinyRun is one traced in-process run of a shrunken workload.
func tinyRun(t *testing.T, workload string, workers int) *report {
	t.Helper()
	o := options{workload: workload, seed: 1, minPasses: 1, workers: workers, trace: true, traceDir: t.TempDir(), tiny: true}
	var log strings.Builder
	r, err := run(o, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || r.failed > 0 || r.attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, r.correct, r.attempted, r.failed, log.String())
	}
	return r
}

// resultUnits parses the closing JSON line into name -> unit.
func resultUnits(t *testing.T, r *report, trace bool) map[string]string {
	t.Helper()
	line, err := r.resultLine(trace)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("result line lacks a key: %s", line)
	}
	units := map[string]string{}
	for name, v := range out.Metrics {
		if v.Value == nil {
			t.Fatalf("metric %s has no value: %s", name, line)
		}
		units[name] = v.Unit
	}
	return units
}

func specUnits(ms []specMetric) map[string]string {
	units := map[string]string{}
	for _, m := range ms {
		units[m.Name] = m.Unit
	}
	return units
}

func exactCounts(r *report) map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.metrics {
		if m.exact {
			out[m.name] = m.value
		}
	}
	return out
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range loadSpec(t).Workloads {
		names = append(names, w.Name)
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
}

// TestWorkloads runs every workload at a tiny size. It checks that the
// result line carries exactly BENCHMARK.json's metrics with their units,
// and that exact counts and the result digest repeat across two runs and
// across pool widths 1 and 2.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 2)
			for _, c := range []struct {
				trace bool
				want  []specMetric
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				if got, want := resultUnits(t, a, c.trace), specUnits(c.want); !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: result metrics %v, BENCHMARK.json has %v", c.trace, got, want)
				}
			}
			counts := exactCounts(a)
			if len(counts) == 0 {
				t.Fatal("no exact counts reported")
			}
			for _, workers := range []int{2, 1} {
				b := tinyRun(t, name, workers)
				if b.digest != a.digest {
					t.Errorf("workers=%d: digest %s, first run %s", workers, b.digest, a.digest)
				}
				if got := exactCounts(b); !reflect.DeepEqual(got, counts) {
					t.Errorf("workers=%d: exact counts differ\n got %v\nwant %v", workers, got, counts)
				}
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", minPasses: 1, workers: 1}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
