package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestMain(m *testing.M) {
	// The benchmark re-executes its own binary for each measured run; under
	// `go test` that binary is this test binary.
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	benchSpec
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// exactCounts are per-layer values of the default seed that depend only
// on the workload's inputs. Drift means the workload changed, not the
// speed.
var exactCounts = map[string]map[string]float64{
	"sweep-matfree": {
		"core.grid_points":    3072,
		"solver.newton_iters": 34,
	},
	"service-repeat": {
		"la.fill_factor":         9.747532894736842,
		"la.lu_nnz":              142236,
		"core.grid_points":       384,
		"core.jacobian_nnz":      14592,
		"solver.newton_iters":    1.8,
		"server.cache_hit_ratio": 0.8,
	},
}

// TestSmoke runs every workload of BENCHMARK.json at minimal length, with
// and without tracing, and checks that every output check passes, that
// every metric BENCHMARK.json names is printed with its unit, and that
// every per-layer metric it names is measured by some workload.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	measured := map[string]bool{}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				res, prov := smokeRun(t, w.Name, trace)
				for _, name := range prov.LayersMeasured {
					measured[name] = true
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if trace == "1" {
					for name, v := range exactCounts[w.Name] {
						if got := res.Metrics[name].Value; got != v {
							t.Errorf("%s = %v, want exactly %v", name, got, v)
						}
					}
				}
			})
		}
	}
	for _, m := range bf.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}

type provenance struct {
	LayersMeasured []string `json:"layers_measured"`
}

func smokeRun(t *testing.T, workload, trace string) (result, provenance) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--smoke", "--trace", trace, "--trace-dir", t.TempDir(), "--spec", "../BENCHMARK.json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("output checks: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
	}
	var prov provenance
	for _, l := range lines {
		if p, ok := strings.CutPrefix(l, "provenance "); ok {
			if err := json.Unmarshal([]byte(p), &prov); err != nil {
				t.Fatalf("provenance line: %v", err)
			}
		}
	}
	return res, prov
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, p := tailPercentile(xs)
	if v != 90 || p != 90 {
		t.Errorf("100 samples: got %v at p%v, want 90 at p90", v, p)
	}
	v, p = tailPercentile([]float64{3, 1, 2})
	if v != 3 || p != 100 {
		t.Errorf("3 samples: got %v at p%v, want the maximum", v, p)
	}
}

func TestCovered(t *testing.T) {
	// Children [0,4) and [2,6) overlap; with [8,9) they cover 7 of [0,10).
	tree := obs.Tree([]obs.SpanRecord{
		{ID: 1, Name: "parent", Duration: 10},
		{ID: 2, Parent: 1, Name: "a", Duration: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 2, Duration: 4},
		{ID: 4, Parent: 1, Name: "c", Start: 8, Duration: 1},
	})
	if got := covered(tree[0]); got != 7 {
		t.Errorf("covered = %v, want 7", got)
	}
}
