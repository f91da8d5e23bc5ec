package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/analysis"
)

// reference.json pins the default seed's outputs as the unmodified
// program computed them (the sweep entries with linear=direct, which the
// matrix-free sweep must agree with). Regenerate it with
//
//	go run . --write-reference reference.json
//
// only after an intended numerical change.
//
//go:embed reference.json
var referenceJSON []byte

// outcome is what the output checks compare: an output's swing and its
// dominant spectral mixes.
type outcome struct {
	Swing float64 `json:"swing"`
	Lines []line  `json:"lines"`
}

type line struct {
	K1  int     `json:"k1"`
	K2  int     `json:"k2"`
	Amp float64 `json:"amp"`
}

func outcomeOf(swing float64, lines []analysis.Line) outcome {
	o := outcome{Swing: swing}
	for _, l := range lines {
		o.Lines = append(o.Lines, line{l.K1, l.K2, l.Amp})
	}
	return o
}

type reference struct {
	Seed          int64     `json:"seed"`
	SweepMatfree  []outcome `json:"sweep_matfree"`
	ServiceRepeat []outcome `json:"service_repeat"`
}

// referenceFor returns the committed reference when seed is the default
// seed, nil otherwise.
func referenceFor(seed int64) *reference {
	if seed != defaultSeed {
		return nil
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil || ref.Seed != seed {
		// An unreadable reference fails every check that needs it.
		return &reference{Seed: -1}
	}
	return &ref
}

// same reports bit-for-bit equality: a repeated request must reproduce
// its first answer exactly.
func (o outcome) same(p outcome) error {
	if o.Swing != p.Swing || len(o.Lines) != len(p.Lines) {
		return fmt.Errorf("output changed between identical requests: swing %.17g vs %.17g, %d vs %d lines", o.Swing, p.Swing, len(o.Lines), len(p.Lines))
	}
	for i := range o.Lines {
		if o.Lines[i] != p.Lines[i] {
			return fmt.Errorf("output changed between identical requests: line %d %+v vs %+v", i, o.Lines[i], p.Lines[i])
		}
	}
	return nil
}

// near checks o against a reference within the goldens' tolerance; lines
// are matched by mix index, so a reordering of near-equal lines passes.
func (o outcome) near(ref outcome) error {
	if !relClose(o.Swing, ref.Swing) {
		return fmt.Errorf("swing %.12e, reference %.12e", o.Swing, ref.Swing)
	}
	if len(ref.Lines) == 0 {
		return fmt.Errorf("reference has no spectral lines")
	}
	got := map[[2]int]float64{}
	for _, l := range o.Lines {
		got[[2]int{l.K1, l.K2}] = l.Amp
	}
	for _, r := range ref.Lines {
		amp, ok := got[[2]int{r.K1, r.K2}]
		if !ok {
			return fmt.Errorf("mix (%d,%d) missing from the output", r.K1, r.K2)
		}
		if !relClose(amp, r.Amp) {
			return fmt.Errorf("mix (%d,%d) amp %.12e, reference %.12e", r.K1, r.K2, amp, r.Amp)
		}
	}
	return nil
}

// writeReference recomputes the default seed's reference outputs, one
// outcome to a line.
func writeReference(ctx context.Context, path string) error {
	s := newSweepMatfree(defaultSeed, false).(*sweepMatfree)
	spec := s.spec()
	spec.Linear = "direct"
	res, err := runSweep(ctx, spec)
	if err != nil {
		return err
	}
	sweepRef := sweepOutcomes(res)

	sv := newServiceRepeat(defaultSeed, false).(*serviceRepeat)
	defer sv.close()
	if err := sv.start(); err != nil {
		return err
	}
	var serviceRef []outcome
	for d := 0; d < referenceDecks; d++ {
		resp, err := sv.post(ctx, sv.body(d).body)
		if err != nil {
			return err
		}
		o, err := responseOutcome(resp.body)
		if err != nil {
			return err
		}
		serviceRef = append(serviceRef, o)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"seed\": %d,\n", defaultSeed)
	for k, list := range [][]outcome{sweepRef, serviceRef} {
		fmt.Fprintf(&b, "%q: [\n", []string{"sweep_matfree", "service_repeat"}[k])
		for i, o := range list {
			line, err := json.Marshal(o)
			if err != nil {
				return err
			}
			b.Write(line)
			if i < len(list)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString([]string{"],\n", "]}\n"}[k])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
