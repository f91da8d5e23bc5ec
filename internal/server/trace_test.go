package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/solver"
)

// TestTraceEndpoint submits a traced deck, fetches the span tree, and checks
// the acceptance identity: the per-iteration convergence records sum exactly
// to the job's reported Newton iterations.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})

	// Warm the cache with an untraced run first: the traced submit must
	// bypass the lookup and actually solve.
	resp := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced simulate: %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck, "trace": true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced simulate: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("traced submit served from cache (X-Cache=%s): trace would be empty", got)
	}
	id := resp.Header.Get("X-Job-ID")
	var result struct {
		Jobs []struct {
			NewtonIters int `json:"newton_iters"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	wantIters := 0
	for _, jr := range result.Jobs {
		wantIters += jr.NewtonIters
	}
	if wantIters == 0 {
		t.Fatal("deck solved with zero Newton iterations; test deck is broken")
	}

	tr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", tr.StatusCode)
	}
	var tresp TraceResponse
	if err := json.NewDecoder(tr.Body).Decode(&tresp); err != nil {
		t.Fatal(err)
	}
	if len(tresp.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	gotIters := 0
	for _, ce := range tresp.Convergence {
		if ce.Name != "newton.solve" {
			t.Fatalf("convergence entry on span %q, want newton.solve", ce.Name)
		}
		if len(ce.Records) == 0 {
			t.Fatalf("span %d has an empty convergence record set", ce.Span)
		}
		for i, rec := range ce.Records {
			if rec.Iter != i+1 {
				t.Fatalf("span %d record %d: iter %d", ce.Span, i, rec.Iter)
			}
		}
		gotIters += len(ce.Records)
	}
	if gotIters != wantIters {
		t.Fatalf("convergence records sum to %d iterations, job reported %d", gotIters, wantIters)
	}

	// An untraced job must 404 with a hint, not serve an empty trace.
	resp = postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck, "no_cache": true})
	untracedID := resp.Header.Get("X-Job-ID")
	resp.Body.Close()
	tr2, err := http.Get(ts.URL + "/v1/jobs/" + untracedID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr2.Body.Close()
	if tr2.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced job trace: %d, want 404", tr2.StatusCode)
	}
}

// TestMetricsExportGMRESFallbacksAndHalvings is the regression test for the
// counters that used to exist in solver.Stats but never reached /metrics:
// it scrapes the endpoint and fails if the exposition drops them.
func TestMetricsExportGMRESFallbacksAndHalvings(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.metrics.gmresFalls.Add(3)
	s.metrics.halvings.Add(7)
	s.metrics.linearIters.Add(41)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"mpde_solver_gmres_fallbacks_total 3\n",
		"mpde_solver_damping_halvings_total 7\n",
		"mpde_solver_linear_iters_total 41\n",
		"# TYPE mpde_solver_gmres_fallbacks_total counter",
		"# TYPE mpde_solver_damping_halvings_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWriteMetricsJSONIntegerExact pins the integer-exact JSON rendering:
// the old %g formatting collapsed counters past 2^53 and emitted e-notation.
func TestWriteMetricsJSONIntegerExact(t *testing.T) {
	cases := []struct {
		name string
		pt   metricPoint
		want string
	}{
		{"small counter", intPoint("m_a", "", false, 42), `"m_a": 42`},
		{"zero", intPoint("m_b", "", false, 0), `"m_b": 0`},
		{"above 2^53", intPoint("m_c", "", false, 9007199254740993), `"m_c": 9007199254740993`},
		{"max int64", intPoint("m_d", "", false, math.MaxInt64), `"m_d": 9223372036854775807`},
		{"float gauge", floatPoint("m_e", "", true, 0.5), `"m_e": 0.5`},
		{"float seconds", floatPoint("m_f", "", false, 1.25e-3), `"m_f": 0.00125`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			writeMetricsJSON(&buf, []metricPoint{tc.pt}, nil)
			if !strings.Contains(buf.String(), tc.want) {
				t.Fatalf("rendered %q, want it to contain %q", buf.String(), tc.want)
			}
			var m map[string]json.Number
			if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
				t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
			}
		})
	}

	// The Prometheus text form must be integer-exact too.
	var buf bytes.Buffer
	writeProm(&buf, []metricPoint{intPoint("m_big", "h", false, 9007199254740993)}, nil)
	if !strings.Contains(buf.String(), "m_big 9007199254740993\n") {
		t.Fatalf("prom rendering lost integer precision: %s", buf.String())
	}
}

// statsSeries maps each counter field of solver.Stats and analysis.Stats to
// the /metrics series that exports it. Field names differ where the two
// structs spell the same counter differently (Iterations, NewtonIters).
var statsSeries = map[string]string{
	"Iterations":       "mpde_solver_newton_iters_total",
	"NewtonIters":      "mpde_solver_newton_iters_total",
	"Halvings":         "mpde_solver_damping_halvings_total",
	"LinearIters":      "mpde_solver_linear_iters_total",
	"Factorizations":   "mpde_solver_factorizations_total",
	"Refactorizations": "mpde_solver_refactorizations_total",
	"PatternReuse":     "mpde_solver_pattern_reuse_total",
	"OperatorApplies":  "mpde_solver_operator_applies_total",
	"PrecondBuilds":    "mpde_solver_precond_builds_total",
	"GMRESFallbacks":   "mpde_solver_gmres_fallbacks_total",
	"BatchReuse":       "mpde_solver_batch_reuse_total",
	"RejectedSteps":    "mpde_solver_step_rejections_total",
	"Refinements":      "mpde_solver_grid_refinements_total",
	"AssemblyTime":     "mpde_solver_assembly_seconds_total",
	"FactorTime":       "mpde_solver_factor_seconds_total",
}

// statsUnexported names the numeric Stats fields deliberately left out of
// /metrics, with the reason.
var statsUnexported = map[string]string{
	"Residual":      "per-solve convergence detail, visible in traces",
	"StepNorm":      "per-solve convergence detail, visible in traces",
	"FillFactor":    "per-factorization diagnostic, not a meaningful sum",
	"JacobianEvals": "duplicate of Factorizations+Refactorizations, and not threaded through sweep.JobResult",
	"AcceptedSteps": "derivable from TimeSteps minus RejectedSteps",
	"PatternBuilds": "complement of PatternReuse; reuse is the signal",
	"TimeSteps":     "grid/solve-shape descriptor, not load",
	"Unknowns":      "grid/solve-shape descriptor, not load",
	"GridPoints":    "grid/solve-shape descriptor, not load",
	"FinalN1":       "grid/solve-shape descriptor, not load",
	"FinalN2":       "grid/solve-shape descriptor, not load",
}

// statsParityGaps walks the numeric fields of types and reports each one
// that neither maps to a series present in names nor has an unexported
// reason, and each entry of series or unexported that names no such field.
func statsParityGaps(types []reflect.Type, series, unexported map[string]string, names map[string]bool) []string {
	var gaps []string
	seen := map[string]bool{}
	for _, typ := range types {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int64, reflect.Float64:
			default:
				continue // bools, slices: not numeric counters
			}
			seen[f.Name] = true
			metric, ok := series[f.Name]
			switch {
			case ok && !names[metric]:
				gaps = append(gaps, fmt.Sprintf("%s.%s maps to %q but snapshot() has no such point", typ, f.Name, metric))
			case !ok && unexported[f.Name] == "":
				gaps = append(gaps, fmt.Sprintf("%s.%s is numeric but neither exported at /metrics nor allowlisted with a reason", typ, f.Name))
			}
		}
	}
	for _, m := range []map[string]string{series, unexported} {
		for name := range m {
			if !seen[name] {
				gaps = append(gaps, fmt.Sprintf("parity entry %s names no numeric Stats field", name))
			}
		}
	}
	sort.Strings(gaps)
	return gaps
}

// TestSolverStatsMetricsParity walks solver.Stats and analysis.Stats by
// reflection and asserts every numeric field either has a /metrics point or
// an allowlist reason — so a new counter cannot silently stay unexported.
func TestSolverStatsMetricsParity(t *testing.T) {
	s := New(Options{Logf: t.Logf})
	names := map[string]bool{}
	for _, p := range s.metrics.snapshot(s.cache, s.start, s.coord.Stats()) {
		names[p.Name] = true
	}
	types := []reflect.Type{reflect.TypeOf(solver.Stats{}), reflect.TypeOf(analysis.Stats{})}
	for _, g := range statsParityGaps(types, statsSeries, statsUnexported, names) {
		t.Error(g)
	}
}

// TestStatsParityGaps pins what the parity walk flags on a fixture struct:
// an orphan field, a field mapped under an alias to a missing series, and
// allowlist entries that are missing or stale.
func TestStatsParityGaps(t *testing.T) {
	type fixture struct {
		Iterations   int           // exported under the newton_iters alias
		Orphan       int           // neither exported nor allowlisted
		Residual     float64       // allowlisted
		AssemblyTime time.Duration // exported as seconds
		Converged    bool          // not numeric: ignored
	}
	types := []reflect.Type{reflect.TypeOf(fixture{})}
	series := map[string]string{
		"Iterations":   "mpde_solver_newton_iters_total",
		"AssemblyTime": "mpde_solver_assembly_seconds_total",
	}
	names := map[string]bool{"mpde_solver_newton_iters_total": true, "mpde_solver_assembly_seconds_total": true}
	for _, tc := range []struct {
		name       string
		names      map[string]bool
		unexported map[string]string
		want       string
	}{
		{"orphan field", names,
			map[string]string{"Residual": "r"},
			"fixture.Orphan is numeric but neither exported"},
		{"aliased field without its series", map[string]bool{"mpde_solver_assembly_seconds_total": true},
			map[string]string{"Residual": "r", "Orphan": "o"},
			`fixture.Iterations maps to "mpde_solver_newton_iters_total"`},
		{"allowlisted field dropped from the allowlist", names,
			map[string]string{"Orphan": "o"},
			"fixture.Residual is numeric but neither exported"},
		{"stale allowlist entry", names,
			map[string]string{"Residual": "r", "Orphan": "o", "Gone": "g"},
			"parity entry Gone names no numeric Stats field"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gaps := statsParityGaps(types, series, tc.unexported, tc.names)
			if len(gaps) != 1 || !strings.Contains(gaps[0], tc.want) {
				t.Fatalf("gaps = %q, want exactly one containing %q", gaps, tc.want)
			}
		})
	}
	if gaps := statsParityGaps(types, series, map[string]string{"Residual": "r", "Orphan": "o"}, names); len(gaps) != 0 {
		t.Fatalf("complete parity reported gaps: %q", gaps)
	}
}

// TestHistogramExposition checks the Prometheus histogram invariants on the
// rendered text: cumulative buckets, +Inf bucket equal to _count, and a
// _sum consistent with the observations.
func TestHistogramExposition(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, v := range []float64{0.0004, 0.003, 0.08, 2.0} {
		s.metrics.jobDuration.Observe(v)
	}
	s.metrics.newtonPer.Observe(7)
	s.metrics.gmresPer.Observe(0)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	for _, h := range []string{"mpde_job_duration_seconds", "mpde_solver_newton_iters", "mpde_solver_gmres_iters_per_solve"} {
		if !strings.Contains(body, "# TYPE "+h+" histogram\n") {
			t.Fatalf("missing histogram TYPE line for %s", h)
		}
		prev := int64(-1)
		var infCount, count int64 = -1, -1
		for _, line := range strings.Split(body, "\n") {
			switch {
			case strings.HasPrefix(line, h+"_bucket{"):
				n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
				if err != nil {
					t.Fatalf("bad bucket line %q: %v", line, err)
				}
				if n < prev {
					t.Fatalf("%s buckets not cumulative: %q after %d", h, line, prev)
				}
				prev = n
				if strings.Contains(line, `le="+Inf"`) {
					infCount = n
				}
			case strings.HasPrefix(line, h+"_count "):
				count, _ = strconv.ParseInt(strings.TrimPrefix(line, h+"_count "), 10, 64)
			}
		}
		if infCount < 0 || count < 0 {
			t.Fatalf("%s missing +Inf bucket or _count", h)
		}
		if infCount != count {
			t.Fatalf("%s +Inf bucket %d != _count %d", h, infCount, count)
		}
	}
	if !strings.Contains(body, fmt.Sprintf("mpde_job_duration_seconds_count %d\n", 4)) {
		t.Fatalf("job duration count wrong:\n%s", body)
	}

	// The JSON form carries _sum/_count.
	m := metricsSnapshot(t, ts.URL)
	if got := m["mpde_job_duration_seconds_count"]; got != 4 {
		t.Fatalf("JSON histogram count = %v, want 4", got)
	}
	wantSum := 0.0004 + 0.003 + 0.08 + 2.0
	if got := m["mpde_job_duration_seconds_sum"]; math.Abs(got-wantSum) > 1e-12 {
		t.Fatalf("JSON histogram sum = %v, want %v", got, wantSum)
	}
}

// TestDebugHandlerServesPprof mounts the opt-in debug mux and checks the
// pprof index responds.
func TestDebugHandlerServesPprof(t *testing.T) {
	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}
