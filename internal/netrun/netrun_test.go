package netrun

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/xerr"
)

// TestReplacementIncs: a victim's replacement runs at one incarnation past
// every scheduled event at or before the episode's iteration that kills it,
// and never below 1.
func TestReplacementIncs(t *testing.T) {
	twice := faults.NewSchedule(faults.Simultaneous(5, 2, 3), faults.Simultaneous(9, 2))
	for _, tc := range []struct {
		sched *faults.Schedule
		j     int
		want  map[int]int
	}{
		{twice, 5, map[int]int{2: 1, 3: 1}},
		{twice, 7, map[int]int{2: 1}},
		{twice, 9, map[int]int{2: 2, 3: 1}},
		{twice, 12, map[int]int{2: 2}},
		{nil, 4, map[int]int{1: 1, 6: 1}},
		{faults.NewSchedule(), 4, map[int]int{1: 1}},
	} {
		if got := replacementIncs(tc.sched, tc.j, slices.Collect(maps.Keys(tc.want))); !maps.Equal(got, tc.want) {
			t.Errorf("schedule %v at %d: incarnations %v, want %v", tc.sched, tc.j, got, tc.want)
		}
	}
}

// TestScheduledVictims: the replaceable ranks are the sorted union of every
// event's ranks, each listed once.
func TestScheduledVictims(t *testing.T) {
	s := faults.NewSchedule(faults.Simultaneous(9, 5, 1), faults.Overlapping(9, 2, 3, 5), faults.Simultaneous(4, 1))
	if got := scheduledVictims(s); !slices.Equal(got, []int{1, 3, 5}) {
		t.Errorf("victims %v, want [1 3 5]", got)
	}
	if got := scheduledVictims(nil); got != nil {
		t.Errorf("victims of no schedule: %v", got)
	}
}

// TestWorkerErrorKeepsClass: every error class survives the control
// connection's code, and an unknown code comes back unclassed.
func TestWorkerErrorKeepsClass(t *testing.T) {
	for _, c := range xerr.Classes() {
		err := workerError(ctrlMsg{Err: "rank 2: boom", Code: c.Code()})
		if !errors.Is(err, c) || xerr.Code(err) != c.Code() {
			t.Errorf("code %q: got %v (class %q)", c.Code(), err, xerr.Code(err))
		}
	}
	if err := workerError(ctrlMsg{Err: "boom", Code: "no_such_class"}); xerr.Code(err) != "" {
		t.Errorf("unknown code came back classed %q", xerr.Code(err))
	}
}
