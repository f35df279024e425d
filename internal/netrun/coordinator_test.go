package netrun

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/xerr"
)

// TestCheckSpecClassesRefusals: every job the multi-process path cannot
// serve is refused up front as failed_precondition — a valid job in the
// wrong place, so it ends with an error code rather than an unclassed
// failure — and an inline esr job with phase-0 events away from rank 0 is
// accepted.
func TestCheckSpecClassesRefusals(t *testing.T) {
	inline := engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16}}
	schedule := func(events ...faults.Event) *faults.Schedule { return faults.NewSchedule(events...) }
	phase1 := faults.Simultaneous(4, 2)
	phase1.Phase = 1
	for _, c := range []struct {
		name   string
		spec   engine.JobSpec
		refuse bool
	}{
		{"inline esr phase 0", engine.JobSpec{Matrix: inline, Config: engine.Config{Ranks: 4, Phi: 1,
			Schedule: schedule(faults.Simultaneous(3, 1), faults.Simultaneous(6, 2, 3))}}, false},
		{"inline esr no schedule", engine.JobSpec{Matrix: inline, Config: engine.Config{Ranks: 4}}, false},
		{"matrix_id", engine.JobSpec{MatrixID: "mat-000001", Config: engine.Config{Ranks: 4}}, true},
		{"checkpoint strategy", engine.JobSpec{Matrix: inline, Config: engine.Config{Ranks: 4,
			Strategy: engine.StrategyCheckpoint}}, true},
		{"phase 1 event", engine.JobSpec{Matrix: inline, Config: engine.Config{Ranks: 4, Phi: 1,
			Schedule: schedule(phase1)}}, true},
		{"rank 0 victim", engine.JobSpec{Matrix: inline, Config: engine.Config{Ranks: 4, Phi: 2,
			Schedule: schedule(faults.Simultaneous(3, 0, 1))}}, true},
	} {
		err := checkSpec(c.spec, c.spec.Config.WithDefaults())
		switch {
		case !c.refuse && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refuse && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.refuse && !errors.Is(err, xerr.FailedPrecondition):
			t.Errorf("%s: %v is classed %q, want %q", c.name, err, xerr.Code(err), xerr.FailedPrecondition.Code())
		}
	}
}
