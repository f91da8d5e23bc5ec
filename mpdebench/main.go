// Command mpdebench is the repository benchmark. It drives two workloads
// through the simulator's Go APIs, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer split (--trace 1) as the
// last line of standard output:
//
//	sweep-matfree   one sweep.Run of the Fig. 3–5 balanced mixer over 8 RF
//	                amplitudes per request: 64×48, linear=matfree, warm
//	                start, 2 sweep workers at GOMAXPROCS=2. Batched line LU,
//	                GMRES, exact J·v and the sweep pool carry the work.
//	service-repeat  one POST /v1/simulate per request against an in-process
//	                server (MaxConcurrent=1, SweepWorkers=1) on a loopback
//	                listener. 80% of requests repeat an earlier deck, so
//	                the median is a cache hit and the tail a 24×16 solve.
//
// Each workload has one closed-loop caller and runs in a child process of
// its own, so peak RSS and GOMAXPROCS belong to that workload alone. With
// --trace 1 the benchmark runs the workload twice, untraced and traced,
// each for half of --seconds; the ratio of the two medians is the tracing
// overhead. The metric names and units come from BENCHMARK.json; a
// per-layer metric that a workload never exercises reads 0.
//
// Usage, from the repository root:
//
//	bash mpdebench/run.sh --workload sweep-matfree --seed 1 --seconds 50 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// childEnv selects child mode: "untraced" or "traced" measures one
// workload in this process. The parent sets it when it re-executes itself.
const childEnv = "MPDEBENCH_CHILD"

// deadline bounds a whole invocation, children included.
const deadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceDir string
	specPath string
	writeRef string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("mpdebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run a fixed, minimal number of requests (the benchmark's own tests)")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "where traced runs write their Chrome trace")
	fs.StringVar(&cfg.specPath, "spec", "BENCHMARK.json", "the benchmark definition that names the printed metrics and their units")
	fs.StringVar(&cfg.writeRef, "write-reference", "", "recompute the default-seed reference outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.writeRef != "" {
		return cfg, nil
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mpdebench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	switch {
	case cfg.writeRef != "":
		err = writeReference(ctx, cfg.writeRef)
	case os.Getenv(childEnv) != "":
		err = runChild(ctx, cfg, os.Getenv(childEnv) == "traced", stdout)
	default:
		err = runParent(ctx, cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mpdebench:", err)
		return 1
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the names
// and units of the metrics it prints.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	spec, err := loadSpec(cfg.specPath)
	if err != nil {
		return err
	}
	var runs []*childResult
	if cfg.trace {
		// Untraced and traced halves in separate processes: the traced one
		// gives the split, their medians the tracing overhead.
		half := cfg.seconds / 2
		for _, traced := range []bool{false, true} {
			c, err := spawnChild(ctx, cfg, half, traced, stderr)
			if err != nil {
				return err
			}
			runs = append(runs, c)
		}
	} else {
		c, err := spawnChild(ctx, cfg, cfg.seconds, false, stderr)
		if err != nil {
			return err
		}
		runs = append(runs, c)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, c := range runs {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		for _, f := range c.Failures {
			fmt.Fprintf(stdout, "FAILED %s: %s\n", c.Workload, f)
		}
	}
	res.Correct = res.Failed == 0

	base := runs[0]
	tail, tailPct := tailPercentile(base.LatencyS)
	prov := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"requests": len(base.LatencyS), "request_s_p50_n": len(base.LatencyS),
		"request_s_tail_percentile": tailPct, "request_s_tail_n": len(base.LatencyS),
		"setups": len(base.SetupS),
	}
	for k, v := range base.Env {
		prov[k] = v
	}

	var values map[string]float64
	named := spec.EndToEnd
	if !cfg.trace {
		values = map[string]float64{
			"setup_s":              median(base.SetupS),
			"request_s_p50":        median(base.LatencyS),
			"request_s_tail":       tail,
			"requests_per_s":       float64(len(base.LatencyS)) / base.WallS,
			"peak_rss_mb":          base.PeakRSSMB,
			"alloc_mb_per_request": base.AllocBytes / (1 << 20) / float64(base.Attempted),
		}
	} else {
		traced := runs[1]
		values = traced.Layers
		values["obs.overhead_frac"] = median(traced.LatencyS)/median(base.LatencyS) - 1
		named = spec.PerLayer
		measured := make([]string, 0, len(values))
		for name := range values {
			measured = append(measured, name)
		}
		sort.Strings(measured)
		prov["layers_measured"] = measured
		printSpanTable(stdout, traced)
	}
	// Every value computed must be named, and every end-to-end metric named
	// must be computed; a named per-layer metric this workload never
	// exercises reads 0.
	units := map[string]string{}
	for _, m := range named {
		units[m.Name] = m.Unit
		v, ok := values[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s names end-to-end metric %s, which the benchmark does not compute", cfg.specPath, m.Name)
		}
		res.Metrics[m.Name] = metric{v, m.Unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %s is not named in %s", name, cfg.specPath)
		}
	}

	provJSON, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)
	fmt.Fprintf(stdout, "request_s_tail is p%.1f of n=%d requests\n", tailPct, len(base.LatencyS))
	printMetricTable(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// spawnChild re-executes this program in child mode and decodes the last
// line of its standard output.
func spawnChild(ctx context.Context, cfg config, seconds float64, traced bool, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	args := []string{
		"--workload", cfg.workload,
		"--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(seconds),
		"--trace-dir", cfg.traceDir,
	}
	if cfg.trace {
		args = append(args, "--trace", "1")
	}
	if cfg.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child (%s): %w", cfg.workload, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var c childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return nil, fmt.Errorf("%s child (%s) output: %w", cfg.workload, mode, err)
	}
	if len(c.LatencyS) == 0 || len(c.SetupS) == 0 || c.WallS <= 0 {
		return nil, errors.New(cfg.workload + " child completed no request")
	}
	return &c, nil
}

func printMetricTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printSpanTable(w io.Writer, c *childResult) {
	fmt.Fprintf(w, "%-24s %10s %14s %14s   (traced run, per request)\n", "span", "count", "total_s", "self_s")
	for _, s := range c.Spans {
		fmt.Fprintf(w, "%-24s %10.2f %14.6g %14.6g\n", s.Name, s.Count, s.TotalS, s.SelfS)
	}
}
