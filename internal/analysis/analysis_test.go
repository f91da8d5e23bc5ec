package analysis_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/netlist"
)

// TestRunPreCanceledContextFastPath is the regression for the "canceled
// sweep job still pays a full Jacobian pattern build" bug: an
// already-canceled context must return context.Canceled before any
// assembly work, for every registered analysis.
func TestRunPreCanceledContextFastPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mix := ckts.NewIdealMixer(ckts.IdealMixerConfig{F1: 1e6, F2: 0.9e6, LoadC: 1e-9})
	for _, name := range analysis.Names() {
		// A deliberately large grid: if the fast path regressed and the
		// solve reached symbolic assembly, the time bound below would blow.
		req := analysis.Request{Method: name, Circuit: mix.Ckt}
		if name == "qpss" {
			req.Params = analysis.QPSSParams{N1: 80, N2: 60, Shear: mix.Shear}
		}
		start := time.Now()
		_, err := analysis.Run(ctx, req)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s: ran to completion under a canceled context", name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
		if elapsed > 100*time.Millisecond {
			t.Fatalf("%s: canceled request took %v — the pre-start fast path is gone", name, elapsed)
		}
	}
}

// TestTransientFinalizesCircuit: a transient request on a freshly built,
// never-finalized circuit must run, not panic in Circuit.Size.
func TestTransientFinalizesCircuit(t *testing.T) {
	ckt := circuit.New("rc")
	ckt.V("V1", "in", "0", device.DC(1))
	ckt.R("R1", "in", "out", 1e3)
	ckt.C("C1", "out", "0", 1e-9)
	if _, err := analysis.Run(context.Background(), analysis.Request{Method: "transient", Circuit: ckt,
		Params: analysis.TransientParams{TStop: 1e-6}}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelInterruptsInFlightNewton pins the acceptance criterion:
// cancelling the context passed to analysis.Run aborts an in-flight Newton
// solve cooperatively and promptly.
func TestCancelInterruptsInFlightNewton(t *testing.T) {
	mix := ckts.NewBalancedMixer(ckts.BalancedMixerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		err  error
		wall time.Duration
	}
	done := make(chan outcome, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		t0 := time.Now()
		_, err := analysis.Run(ctx, analysis.Request{
			Method:  "qpss",
			Circuit: mix.Ckt,
			Params:  analysis.QPSSParams{Shear: mix.Shear}, // the paper's 40×30 grid
		})
		done <- outcome{err, time.Since(t0)}
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // let the Newton loop get going
	cancel()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("QPSS completed despite cancellation")
		}
		if !analysis.Canceled(o.err) {
			t.Fatalf("want a cancellation-classified error, got %v", o.err)
		}
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("interrupt must wrap context.Canceled, got %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not interrupt the in-flight solve")
	}
}

// mixerDeck carries one directive per registered analysis; the circuit
// cards are irrelevant (the round-trip runs on the programmatic ideal
// mixer) but the .tones declaration must match its shear.
const mixerDeck = `.title ideal mixer analysis matrix
.tones 1e6 0.9e6 1
R1 a 0 1k
.analysis dc
.analysis transient periods=2 steps=8
.analysis shooting steps=8
.analysis hb n1=16 n2=8
.analysis qpss n1=16 n2=8
.analysis envelope n1=16 n2=8
.analysis ac source=VRF f0=1k f1=1g npts=10
.analysis pac source=VRF f0=50k f1=200k npts=3 k=4 steps=64
.end
`

// TestRegistryDirectiveRoundTrip builds a request from a netlist
// `.analysis` directive for every registered analysis name, runs it on the
// ideal mixer, and asserts the Result accessors are non-empty and
// method-appropriate.
func TestRegistryDirectiveRoundTrip(t *testing.T) {
	deck, err := netlist.ParseString(mixerDeck)
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string]netlist.Analysis{}
	for _, a := range deck.Analyses {
		byMethod[a.Method] = a
	}
	for _, name := range analysis.Names() {
		if _, ok := byMethod[name]; !ok {
			t.Fatalf("registered analysis %q has no directive in the round-trip deck — add one", name)
		}
	}

	for _, name := range analysis.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := ckts.IdealMixerConfig{F1: 1e6, F2: 0.9e6, LoadC: 1e-9}
			if name == "pac" {
				// PAC linearises around the LO-only periodic orbit: make
				// the RF drive a true small signal.
				cfg.RFAmp = 1e-12
			}
			mix := ckts.NewIdealMixer(cfg)
			params, err := analysis.ParamsFromDirective(name, deck.DirectiveInput(byMethod[name]))
			if err != nil {
				t.Fatalf("directive → params: %v", err)
			}
			res, err := analysis.Run(context.Background(), analysis.Request{
				Method:  name,
				Circuit: mix.Ckt,
				Params:  params,
				Probes:  []analysis.Probe{analysis.SingleEnded(mix.Out)},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Method() != name {
				t.Fatalf("Result.Method() = %q, want %q", res.Method(), name)
			}

			st := res.Stats()
			if st.Unknowns <= 0 {
				t.Fatalf("Stats().Unknowns = %d, want > 0", st.Unknowns)
			}
			if st.NewtonIters <= 0 && st.TimeSteps <= 0 {
				t.Fatalf("Stats() reports no work: %+v", st)
			}
			// Satellite: AC/PAC must export the same factorisation counters
			// as the steady-state analyses instead of reporting nothing.
			if (name == "ac" || name == "pac" || name == "dc" || name == "qpss" || name == "envelope") && st.Factorizations <= 0 {
				t.Fatalf("%s: Stats().Factorizations = 0, want > 0 (%+v)", name, st)
			}

			probe := analysis.SingleEnded(mix.Out)
			wf, ok := res.Waveform(probe)
			if !ok || len(wf.V) == 0 || len(wf.T) != len(wf.V) {
				t.Fatalf("Waveform: ok=%v len(T)=%d len(V)=%d", ok, len(wf.T), len(wf.V))
			}
			if wf.Label == "" {
				t.Fatal("Waveform.Label is empty")
			}

			lines, ok := res.Spectrum(probe, 5)
			switch name {
			case "qpss", "hb", "pac":
				if !ok || len(lines) == 0 {
					t.Fatalf("Spectrum: ok=%v lines=%d, want a populated spectrum", ok, len(lines))
				}
				for _, l := range lines {
					if l.Amp < 0 {
						t.Fatalf("negative spectral amplitude: %+v", l)
					}
				}
			default:
				if ok && len(lines) > 0 {
					// Fine — extra information — but it must be well formed.
					for _, l := range lines {
						if l.Amp < 0 {
							t.Fatalf("negative spectral amplitude: %+v", l)
						}
					}
				}
			}

			m := res.Measure(probe, mix.Cfg.RFAmp)
			switch name {
			case "qpss", "hb":
				if !m.GainValid || m.Gain.Ratio <= 0 {
					t.Fatalf("Measure: gain invalid for %s: %+v", name, m)
				}
				if m.Swing <= 0 {
					t.Fatalf("Measure: zero swing for %s", name)
				}
			case "shooting", "transient", "envelope":
				if m.Swing <= 0 {
					t.Fatalf("Measure: zero swing for %s", name)
				}
			}
		})
	}
}

// TestRunUnknownMethod pins the registry error shape.
func TestRunUnknownMethod(t *testing.T) {
	mix := ckts.NewIdealMixer(ckts.IdealMixerConfig{F1: 1e6, F2: 0.9e6})
	_, err := analysis.Run(context.Background(), analysis.Request{Method: "spice", Circuit: mix.Ckt})
	if err == nil || !strings.Contains(err.Error(), "unknown analysis") {
		t.Fatalf("want an unknown-analysis error, got %v", err)
	}
}

// TestProgressHookFires: the Request progress hook must observe Newton
// iterations.
func TestProgressHookFires(t *testing.T) {
	mix := ckts.NewIdealMixer(ckts.IdealMixerConfig{F1: 1e6, F2: 0.9e6, LoadC: 1e-9})
	var events []analysis.Progress
	_, err := analysis.Run(context.Background(), analysis.Request{
		Method:   "qpss",
		Circuit:  mix.Ckt,
		Params:   analysis.QPSSParams{N1: 16, N2: 8, Shear: mix.Shear},
		Progress: func(p analysis.Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("progress hook never fired")
	}
	if events[0].Analysis != "qpss" || events[0].Phase != "newton" || events[0].Iter != 1 {
		t.Fatalf("unexpected first progress event: %+v", events[0])
	}
}

// TestSeedRoundTrip: a converged QPSS grid re-entered through Request.Seed
// must warm-start an identical request to an identical solution in fewer
// (or equal) iterations.
func TestSeedRoundTrip(t *testing.T) {
	mix := ckts.NewIdealMixer(ckts.IdealMixerConfig{F1: 1e6, F2: 0.9e6, LoadC: 1e-9})
	req := analysis.Request{
		Method:  "qpss",
		Circuit: mix.Ckt,
		Params:  analysis.QPSSParams{N1: 16, N2: 8, Shear: mix.Shear},
	}
	cold, err := analysis.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	seed := cold.Seed()
	if len(seed) == 0 {
		t.Fatal("qpss result returned no seed")
	}
	req.Seed = seed
	warm, err := analysis.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats().NewtonIters > cold.Stats().NewtonIters {
		t.Fatalf("warm start took more iterations (%d) than cold (%d)",
			warm.Stats().NewtonIters, cold.Stats().NewtonIters)
	}
}

// TestAccuracyDirectiveKeys pins the uniform tolerance vocabulary: every
// adaptive analysis accepts reltol/abstol/accuracy in its directive, the
// accuracy=d shorthand expands to reltol=10^-d, and an explicit reltol
// wins over the shorthand.
func TestAccuracyDirectiveKeys(t *testing.T) {
	sh := core.Shear{F1: 1e6, F2: 0.9e6, K: 1}
	adaptive := map[string]func(any) analysis.Accuracy{
		"qpss":      func(p any) analysis.Accuracy { return p.(analysis.QPSSParams).Accuracy },
		"envelope":  func(p any) analysis.Accuracy { return p.(analysis.EnvelopeParams).Accuracy },
		"hb":        func(p any) analysis.Accuracy { return p.(analysis.HBParams).Accuracy },
		"transient": func(p any) analysis.Accuracy { return p.(analysis.TransientParams).Accuracy },
	}
	for name, get := range adaptive {
		num, _, ok := analysis.DirectiveKeys(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, want := range []string{"reltol", "abstol", "accuracy"} {
			found := false
			for _, k := range num {
				if k == want {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: directive key %q missing from %v", name, want, num)
			}
		}
		in := analysis.DirectiveInput{Shear: sh, Num: map[string]float64{"reltol": 1e-3, "abstol": 1e-8}}
		p, err := analysis.ParamsFromDirective(name, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc := get(p); acc.RelTol != 1e-3 || acc.AbsTol != 1e-8 {
			t.Errorf("%s: reltol/abstol did not reach the typed params: %+v", name, acc)
		}
		in = analysis.DirectiveInput{Shear: sh, Num: map[string]float64{"accuracy": 4}}
		p, err = analysis.ParamsFromDirective(name, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc := get(p); math.Abs(acc.RelTol-1e-4) > 1e-18 {
			t.Errorf("%s: accuracy=4 gave reltol %g, want 1e-4", name, acc.RelTol)
		}
		in = analysis.DirectiveInput{Shear: sh, Num: map[string]float64{"accuracy": 4, "reltol": 1e-2}}
		p, err = analysis.ParamsFromDirective(name, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc := get(p); acc.RelTol != 1e-2 {
			t.Errorf("%s: explicit reltol lost to the accuracy shorthand: %g", name, acc.RelTol)
		}
	}

	// The absolute-horizon transient form has no measurement window for the
	// refinement signal: a tolerance there must fail loudly, not silently
	// run fixed-step.
	_, err := analysis.ParamsFromDirective("transient", analysis.DirectiveInput{
		Num: map[string]float64{"tstop": 5e-6, "reltol": 1e-3},
	})
	if err == nil || !strings.Contains(err.Error(), "reltol") {
		t.Errorf("transient tstop+reltol should be rejected, got %v", err)
	}
}
