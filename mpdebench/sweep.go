package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/ckts"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sweep"
)

// mixerBits is the bit-modulated RF pattern of the Figs. 3–5 mixer, with
// its PRBS7 start state drawn from the workload seed.
func mixerBits(seed int64) []bool {
	return rf.PRBS7(uint8(1+uint64(seed)%127), 8)
}

// sweepWorkers is the sweep pool size: one per core of the 2-core
// machine the benchmark was sized on, pinned instead of NumCPU.
const sweepWorkers = 2

// sweepMatfree runs the mixer over 8 RF amplitudes per request with
// matrix-free Newton and warm start: batched line-block LU, GMRES, exact
// J·v and the sweep pool, instead of one large LU.
type sweepMatfree struct {
	bits  []bool
	amps  []float64
	ref   *reference
	first []outcome // the cold sweep's answers; every sweep must repeat them

	n                                   float64
	factor, asm, unattributed           float64
	facts, refacts, reuse               float64
	gmresIters, gmresFalls, gmresSolves float64
	ops, precs, iters, halvings         float64
	warmIters, warmJobs                 float64
	gridPoints, busyFrac                float64
	jobWalls                            []float64
}

func newSweepMatfree(seed int64, _ bool) runner {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	amps := make([]float64, 8)
	for i := range amps {
		// 10…80 mV in 10 mV steps, each jittered by up to ±0.5 mV: enough
		// to change every output, too little to change the Newton work.
		amps[i] = 0.01*float64(i+1) + 0.001*(rng.Float64()-0.5)
	}
	return &sweepMatfree{bits: mixerBits(seed), amps: amps, ref: referenceFor(seed)}
}

func (s *sweepMatfree) spec() sweep.Spec {
	return sweep.Spec{
		Name:      "sweep-matfree",
		Grid:      sweep.Grid{Amp: s.amps, N1: []int{64}, N2: []int{48}},
		Workers:   sweepWorkers,
		WarmStart: true,
		Linear:    "matfree",
		Build: func(p sweep.Point) (*sweep.Target, error) {
			mix := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{Bits: s.bits, RFAmp: p.Amp})
			return &sweep.Target{Ckt: mix.Ckt, Shear: mix.Shear, OutP: mix.OutP, OutM: mix.OutM, RFAmp: p.Amp}, nil
		},
	}
}

// runSweep runs spec and fails unless every job converged.
func runSweep(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
	res, err := sweep.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	for _, j := range res.Jobs {
		if j.Status != sweep.StatusOK {
			return nil, fmt.Errorf("job %d (amp %g): %s: %s", j.Job.ID, j.Job.Point.Amp, j.Status, j.Err)
		}
	}
	return res, nil
}

func sweepOutcomes(res *sweep.Result) []outcome {
	out := make([]outcome, len(res.Jobs))
	for i, j := range res.Jobs {
		out[i] = outcomeOf(j.Swing, j.Spectrum)
	}
	return out
}

func (s *sweepMatfree) setup(ctx context.Context) error {
	res, err := s.do(ctx, s.next(0))
	if err != nil {
		return err
	}
	o := sweepOutcomes(res.(*sweep.Result))
	if err := s.verify(o); err != nil {
		return err
	}
	s.first = o
	return nil
}

func (s *sweepMatfree) next(int) any { return s.spec() }

func (s *sweepMatfree) do(ctx context.Context, in any) (any, error) {
	ctx, span := obs.Start(ctx, "bench.sweep.run")
	defer span.End()
	return runSweep(ctx, in.(sweep.Spec))
}

// verify compares the default seed's answers with the committed
// linear=direct reference: matrix-free Newton must land on the same grid.
func (s *sweepMatfree) verify(o []outcome) error {
	if s.ref == nil {
		return nil
	}
	if len(o) != len(s.ref.SweepMatfree) {
		return fmt.Errorf("%d jobs, reference has %d", len(o), len(s.ref.SweepMatfree))
	}
	for i := range o {
		if err := o[i].near(s.ref.SweepMatfree[i]); err != nil {
			return fmt.Errorf("job %d vs linear=direct reference: %w", i, err)
		}
	}
	return nil
}

func (s *sweepMatfree) check(_ context.Context, _ int, _, out any, _ time.Duration) error {
	res := out.(*sweep.Result)
	o := sweepOutcomes(res)
	if len(o) != len(s.first) {
		return fmt.Errorf("%d jobs, cold sweep had %d", len(o), len(s.first))
	}
	if err := s.verify(o); err != nil {
		return err
	}
	for i := range o {
		if err := o[i].same(s.first[i]); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}
	s.n++
	var busy time.Duration
	for _, j := range res.Jobs {
		busy += j.Wall
		s.jobWalls = append(s.jobWalls, j.Wall.Seconds())
		s.factor += j.Factor.Seconds()
		s.asm += j.Assembly.Seconds()
		s.unattributed += (j.Wall - j.Assembly - j.Factor).Seconds()
		s.facts += float64(j.Factorizations)
		s.refacts += float64(j.Refactorizations)
		s.reuse += float64(j.BatchReuse)
		s.gmresIters += float64(j.LinearIters)
		s.gmresFalls += float64(j.GMRESFallbacks)
		// Matrix-free Newton runs one GMRES solve per iteration.
		s.gmresSolves += float64(j.NewtonIters)
		s.ops += float64(j.OperatorApplies)
		s.precs += float64(j.PrecondBuilds)
		s.iters += float64(j.NewtonIters)
		s.halvings += float64(j.Halvings)
		if j.Job.ID > 0 { // job 0 leads the warm-start group
			s.warmIters += float64(j.NewtonIters)
			s.warmJobs++
		}
		s.gridPoints = float64(j.FinalN1 * j.FinalN2)
	}
	s.busyFrac += busy.Seconds() / (float64(res.Workers) * res.Wall.Seconds())
	return nil
}

func (s *sweepMatfree) layers(context.Context, int) (map[string]float64, error) {
	n := s.n
	if n == 0 || s.warmJobs == 0 || s.gmresSolves == 0 {
		return nil, errors.New("no request passed its checks")
	}
	return map[string]float64{
		"la.factor_s":               s.factor / n,
		"la.factorizations":         s.facts / n,
		"la.refactorizations":       s.refacts / n,
		"la.batch_reuse":            s.reuse / n,
		"la.gmres_iters":            s.gmresIters / n,
		"la.gmres_fallbacks":        s.gmresFalls / n,
		"la.gmres_useful_frac":      (s.gmresSolves - s.gmresFalls) / s.gmresSolves,
		"core.assembly_s":           s.asm / n,
		"core.operator_applies":     s.ops / n,
		"core.precond_builds":       s.precs / n,
		"core.unattributed_s":       s.unattributed / n,
		"core.grid_points":          s.gridPoints,
		"solver.newton_iters":       s.iters / n,
		"solver.halvings":           s.halvings / n,
		"solver.warm_iters_per_job": s.warmIters / s.warmJobs,
		"sweep.job_s_p50":           median(s.jobWalls),
		"sweep.pool_busy_frac":      s.busyFrac / n,
	}, nil
}

func (s *sweepMatfree) env() map[string]any {
	return map[string]any{"sweep_workers": sweepWorkers, "grid": "64x48", "linear": "matfree", "jobs": len(s.amps)}
}

func (s *sweepMatfree) close() {}
