package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// defaultSeed is the seed whose outputs reference.json pins.
const defaultSeed = 1

// runner is one workload's request loop body.
type runner interface {
	// setup builds the inputs and runs one untimed cold request of each
	// request shape; it may be called several times, the last one wins.
	setup(ctx context.Context) error
	// next builds the inputs of timed request i (untimed).
	next(i int) any
	// do runs one request: the only timed step.
	do(ctx context.Context, in any) (any, error)
	// check verifies request i's output outside the timed interval and
	// accounts its per-layer counters.
	check(ctx context.Context, i int, in, out any, lat time.Duration) error
	// layers reports the per-layer metrics over the n checked requests; it
	// runs in --trace 1 children only.
	layers(ctx context.Context, n int) (map[string]float64, error)
	// env reports the worker counts the workload pinned.
	env() map[string]any
	close()
}

type workload struct {
	procs int // GOMAXPROCS of the child process
	// block makes timed requests run in whole blocks, so a request mix
	// defined per block (service-repeat's 4 hits per miss) is exact.
	block  int
	setups int // set-ups per run; setup_s is their median
	smoke  int // timed requests in --smoke mode
	// newRunner builds the workload's inputs from seed; perLayer says the
	// run reports the per-layer split, so checks may also account it.
	newRunner func(seed int64, perLayer bool) runner
}

var workloads = map[string]workload{
	"sweep-matfree":  {procs: 2, block: 1, setups: 5, smoke: 1, newRunner: newSweepMatfree},
	"service-repeat": {procs: 2, block: 5, setups: 15, smoke: 5, newRunner: newServiceRepeat},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// childResult is what a child process reports to the parent.
type childResult struct {
	Workload   string             `json:"workload"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	SetupS     []float64          `json:"setup_s"`
	LatencyS   []float64          `json:"latency_s"`
	WallS      float64            `json:"wall_s"` // the timed loop's wall time
	AllocBytes float64            `json:"alloc_bytes"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Spans      []spanStat         `json:"spans,omitempty"`
	Env        map[string]any     `json:"env"`
}

const maxReportedFailures = 5

func runChild(ctx context.Context, cfg config, traced bool, stdout io.Writer) error {
	w := workloads[cfg.workload]
	runtime.GOMAXPROCS(w.procs)
	r := w.newRunner(cfg.seed, cfg.trace)
	defer r.close()
	res := &childResult{Workload: cfg.workload}

	// Only --trace 0 reports setup_s; the others need one cold set-up.
	setups := w.setups
	if cfg.smoke || cfg.trace {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		if err := r.setup(ctx); err != nil {
			return fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}

	var rec *obs.Recorder
	rctx := ctx
	if traced {
		rec = obs.NewRecorderLimit(1 << 20)
		rctx = obs.WithRecorder(ctx, rec)
	}
	fail := func(i int, err error) {
		res.Failed++
		if len(res.Failures) < maxReportedFailures {
			res.Failures = append(res.Failures, fmt.Sprintf("request %d: %v", i, err))
		}
	}
	runFor := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.smoke {
			if i == w.smoke {
				break
			}
		} else if i%w.block == 0 && i > 0 && time.Since(start) >= runFor {
			break
		}
		in := r.next(i)
		a0 := allocatedBytes()
		t0 := time.Now()
		out, err := r.do(rctx, in)
		lat := time.Since(t0)
		res.AllocBytes += float64(allocatedBytes() - a0)
		res.Attempted++
		if err != nil {
			fail(i, err)
			continue
		}
		if err := r.check(rctx, i, in, out, lat); err != nil {
			fail(i, err)
			continue
		}
		res.LatencyS = append(res.LatencyS, lat.Seconds())
	}
	res.WallS = time.Since(start).Seconds()
	res.PeakRSSMB = peakRSSMB()

	if cfg.trace {
		layers, err := r.layers(ctx, len(res.LatencyS))
		if err != nil {
			return fmt.Errorf("%s per-layer metrics: %w", cfg.workload, err)
		}
		res.Layers = layers
	}
	if traced {
		layers := res.Layers
		spans := rec.Snapshot()
		n := float64(len(res.LatencyS))
		res.Spans = spanTable(spans, n)
		layers["obs.spans_per_request"] = float64(len(spans)) / n
		// The sweep engine makes the analysis.Run calls, inside the
		// program's analysis span.
		if run := spanSeconds(res.Spans, "analysis.qpss"); run > 0 {
			layers["analysis.run_s"] = run
		}
		if err := writeTrace(cfg, spans); err != nil {
			return err
		}
	}
	res.Env = map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	for k, v := range r.env() {
		res.Env[k] = v
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func writeTrace(cfg config, spans []obs.SpanRecord) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat is one span name's share of a traced run, per request.
type spanStat struct {
	Name   string  `json:"name"`
	Count  float64 `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanTable sums each span name's duration and self time — its duration
// minus the part of its interval that child spans cover — per request.
func spanTable(spans []obs.SpanRecord, n float64) []spanStat {
	by := map[string]*spanStat{}
	var walk func(nodes []*obs.SpanNode)
	walk = func(nodes []*obs.SpanNode) {
		for _, nd := range nodes {
			s := by[nd.Name]
			if s == nil {
				s = &spanStat{Name: nd.Name}
				by[nd.Name] = s
			}
			s.Count++
			s.TotalS += nd.Duration.Seconds()
			s.SelfS += (nd.Duration - covered(nd)).Seconds()
			walk(nd.Children)
		}
	}
	walk(obs.Tree(spans))
	out := make([]spanStat, 0, len(by))
	for _, s := range by {
		s.Count /= n
		s.TotalS /= n
		s.SelfS /= n
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalS > out[j].TotalS })
	return out
}

// covered is the length of the union of nd's children's intervals, which
// may overlap when children run on parallel workers.
func covered(nd *obs.SpanNode) time.Duration {
	var total, end time.Duration
	for _, c := range nd.Children { // ordered by start
		s, e := c.Start, c.Start+c.Duration
		if s < end {
			s = end
		}
		if e > s {
			total += e - s
		}
		if e > end {
			end = e
		}
	}
	return total
}

// spanSeconds totals the duration of the spans named name.
func spanSeconds(spans []spanStat, name string) float64 {
	for _, s := range spans {
		if s.Name == name {
			return s.TotalS
		}
	}
	return 0
}

func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0
	}
	return v / 1024
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

// procField returns the trimmed value after the first line starting with
// key in a /proc file, or "" when absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, key) {
			v := strings.TrimPrefix(line, key)
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
		}
	}
	return ""
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentile returns the highest order statistic with at least ten
// samples above it, and its percentile rank. Below eleven samples it
// falls back to the maximum.
func tailPercentile(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// relClose is the goldens' tolerance: 1e-12 absolute plus 1e-6 relative.
func relClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12+1e-6*math.Abs(want)
}
