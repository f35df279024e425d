// Package faults describes node-failure scenarios for the resilient
// solvers. Failures are injected at deterministic poll points: the paper's
// experiments introduce one batch of simultaneous failures at 20%, 50% or
// 80% of the solver's progress (Sec. 7.1), placed in contiguous ranks
// starting at rank 0 ("start") or at rank N/2 ("center"); overlapping
// failures additionally fire while a reconstruction is in progress
// (Sec. 4.1) and force the reconstruction to restart with the enlarged
// failed set.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Corruption targets: the solver vector a bit-flip event strikes.
const (
	TargetX = "x" // iterate
	TargetR = "r" // recurrence residual
	TargetP = "p" // search direction
	TargetZ = "z" // preconditioned residual
)

// Corruption is the payload of a silent-data-corruption event: a single bit
// flipped in one entry of a victim rank's local vector. Unlike fail-stop
// events the rank keeps running — nothing crashes, the state is just wrong,
// modelling the soft errors TwinCG (arXiv:1605.04580) targets.
type Corruption struct {
	// Target names the corrupted vector (TargetX, TargetR, TargetP, TargetZ).
	Target string `json:"target"`
	// Index is the entry within the victim's local slice. It is interpreted
	// modulo the local length, so one schedule stays meaningful across
	// partitionings.
	Index int `json:"index"`
	// Bit is the flipped bit position in the float64 payload (0..63).
	Bit int `json:"bit"`
}

// Flip returns v with the corruption's bit flipped.
func (c Corruption) Flip(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << uint(c.Bit)))
}

// Event is one fault injection. Fail-stop events (Corrupt == nil) kill Ranks
// together at the poll point of the given solver iteration: Phase 0 fires at
// the iteration's main poll point (right after the SpMV distributed the
// redundant copies); Phase p >= 1 fires immediately before recovery phase p
// of an ongoing reconstruction, modelling failures that overlap with the
// recovery. Corruption events (Corrupt != nil) instead flip one bit in each
// victim's local copy of the target vector at the main poll point — the
// ranks survive, silently carrying wrong data.
type Event struct {
	// Iteration is the 0-based solver iteration of the poll point.
	Iteration int `json:"iteration"`
	// Phase selects the poll point within the iteration (see type doc).
	Phase int `json:"phase,omitempty"`
	// Ranks are the victims.
	Ranks []int `json:"ranks"`
	// Corrupt, when non-nil, turns the event into a silent-data-corruption
	// injection instead of a fail-stop failure.
	Corrupt *Corruption `json:"corrupt,omitempty"`
}

// IsCorruption reports whether the event is a silent-data-corruption
// injection rather than a fail-stop failure.
func (e Event) IsCorruption() bool { return e.Corrupt != nil }

// Schedule is a deterministic collection of failure events. All ranks
// evaluate the same schedule, which makes failure knowledge consistent
// without a membership protocol (the role ULFM plays in the paper's setup).
type Schedule struct {
	events []Event
}

// NewSchedule builds a schedule from events.
func NewSchedule(events ...Event) *Schedule {
	s := &Schedule{events: append([]Event(nil), events...)}
	return s
}

// Empty reports whether the schedule contains no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.events) == 0 }

// Events returns a copy of the schedule's events.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return append([]Event(nil), s.events...)
}

// AtIteration returns the sorted union of ranks failing fail-stop at the
// main poll point of the given iteration (Phase 0). Corruption events are
// excluded — their victims survive; see CorruptionsAt.
func (s *Schedule) AtIteration(iter int) []int {
	if s == nil {
		return nil
	}
	return s.collect(func(e Event) bool {
		return e.Iteration == iter && e.Phase == 0 && !e.IsCorruption()
	})
}

// CorruptionSite is one (rank, corruption) pair due at a poll point.
type CorruptionSite struct {
	Rank int
	Corruption
}

// CorruptionsAt returns the corruption injections due at the main poll point
// of the given iteration, in deterministic schedule order (event order, then
// rank order within an event). Every rank evaluates the same schedule, so
// all ranks agree on the count even though only the victim applies the flip.
func (s *Schedule) CorruptionsAt(iter int) []CorruptionSite {
	if s == nil {
		return nil
	}
	var out []CorruptionSite
	for _, e := range s.events {
		if !e.IsCorruption() || e.Iteration != iter {
			continue
		}
		for _, r := range e.Ranks {
			out = append(out, CorruptionSite{Rank: r, Corruption: *e.Corrupt})
		}
	}
	return out
}

// HasFailStop reports whether the schedule contains at least one fail-stop
// (non-corruption) event.
func (s *Schedule) HasFailStop() bool {
	if s == nil {
		return false
	}
	for _, e := range s.events {
		if !e.IsCorruption() {
			return true
		}
	}
	return false
}

// HasCorruption reports whether the schedule contains at least one
// silent-data-corruption event.
func (s *Schedule) HasCorruption() bool {
	if s == nil {
		return false
	}
	for _, e := range s.events {
		if e.IsCorruption() {
			return true
		}
	}
	return false
}

// AtRecoveryPhase returns the sorted union of ranks failing right before
// recovery phase `phase` of a reconstruction running for iteration iter.
func (s *Schedule) AtRecoveryPhase(iter, phase int) []int {
	if s == nil {
		return nil
	}
	return s.collect(func(e Event) bool {
		return e.Iteration == iter && e.Phase == phase && !e.IsCorruption()
	})
}

// MaxSimultaneous returns the largest total number of ranks failing within
// one iteration (simultaneous plus overlapping), i.e. the psi the schedule
// requires the solver's phi to cover. Corruption victims survive and do not
// count.
func (s *Schedule) MaxSimultaneous() int {
	if s == nil {
		return 0
	}
	perIter := map[int]map[int]bool{}
	for _, e := range s.events {
		if e.IsCorruption() {
			continue
		}
		m := perIter[e.Iteration]
		if m == nil {
			m = map[int]bool{}
			perIter[e.Iteration] = m
		}
		for _, r := range e.Ranks {
			m[r] = true
		}
	}
	mx := 0
	for _, m := range perIter {
		if len(m) > mx {
			mx = len(m)
		}
	}
	return mx
}

func (s *Schedule) collect(match func(Event) bool) []int {
	var out []int
	for _, e := range s.events {
		if match(e) {
			out = append(out, e.Ranks...)
		}
	}
	if len(out) == 0 {
		return nil // the poll of every phase boundary: no map, no sort
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Validate checks structural sanity: phases are non-negative and victims
// are valid ranks, with at least one rank surviving every iteration. It does
// NOT enforce psi <= phi: whether a failure set is recoverable depends on
// the matrix pattern (incidental SpMV copies may cover more than phi
// failures), and the recovery protocol detects true data loss dynamically.
// Use GuaranteedCovered to check the protocol's hard guarantee.
func (s *Schedule) Validate(ranks int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.events {
		if e.Iteration < 0 {
			// A negative iteration never fires: a silent no-op failure
			// event that would make an experiment measure the wrong thing.
			return fmt.Errorf("faults: negative iteration in event %d (%+v)", i, e)
		}
		if e.Phase < 0 {
			return fmt.Errorf("faults: negative phase in event %d (%+v)", i, e)
		}
		if len(e.Ranks) == 0 {
			// An event with no victims never fires — the same silent no-op
			// class as a negative iteration.
			return fmt.Errorf("faults: event %d (%+v) has no ranks", i, e)
		}
		for _, r := range e.Ranks {
			if r < 0 || r >= ranks {
				return fmt.Errorf("faults: invalid rank %d in event %d (%+v)", r, i, e)
			}
		}
		if c := e.Corrupt; c != nil {
			if e.Phase != 0 {
				// Corruption fires at the main poll point only: recovery-phase
				// poll points mutate reconstruction scratch, not solver state.
				return fmt.Errorf("faults: corruption event %d (%+v) must have phase 0", i, e)
			}
			switch c.Target {
			case TargetX, TargetR, TargetP, TargetZ:
			default:
				return fmt.Errorf("faults: corruption event %d has invalid target %q (want x, r, p or z)", i, c.Target)
			}
			if c.Index < 0 {
				return fmt.Errorf("faults: corruption event %d has negative index %d", i, c.Index)
			}
			if c.Bit < 0 || c.Bit > 63 {
				return fmt.Errorf("faults: corruption event %d has bit %d outside [0,63]", i, c.Bit)
			}
		}
	}
	if s.MaxSimultaneous() >= ranks {
		return fmt.Errorf("faults: schedule kills all %d ranks in one iteration", ranks)
	}
	return nil
}

// GuaranteedCovered reports whether the schedule stays within the protocol's
// hard tolerance: at most phi ranks lost per iteration (simultaneous plus
// overlapping). Schedules beyond it may still recover on favourable sparsity
// patterns, or fail with a data-loss error.
func (s *Schedule) GuaranteedCovered(phi int) bool {
	return s.MaxSimultaneous() <= phi
}

// ContiguousRanks returns `count` contiguous ranks starting at `start`
// (modulo the cluster size), the placement used in the paper's experiments:
// "failures are placed in contiguous ranks ... starting from rank 0 or 64".
func ContiguousRanks(start, count, clusterSize int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = (start + i) % clusterSize
	}
	sort.Ints(out)
	return out
}

// IterationAtProgress converts a progress fraction (e.g. 0.2, 0.5, 0.8) of
// an expected iteration count into a 0-based iteration index, clamped to
// [0, expected-1].
func IterationAtProgress(fraction float64, expectedIters int) int {
	it := int(fraction * float64(expectedIters))
	if it < 0 {
		it = 0
	}
	if expectedIters > 0 && it >= expectedIters {
		it = expectedIters - 1
	}
	return it
}

// MarshalJSON encodes the schedule as its event array, so schedules can
// travel inside job specifications (e.g. the esrd daemon's JSON API). A nil
// schedule encodes as null.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.events)
}

// UnmarshalJSON decodes an event array (or null) produced by MarshalJSON.
// Unknown fields are rejected: a misspelled "ranks" key would otherwise
// decode to a no-op failure event and silently change what an experiment
// measures.
func (s *Schedule) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var events []Event
	if err := dec.Decode(&events); err != nil {
		return fmt.Errorf("faults: decoding schedule: %w", err)
	}
	s.events = events
	return nil
}

// Simultaneous is a convenience constructor for a single batch of
// simultaneous failures at an iteration's main poll point.
func Simultaneous(iteration int, ranks ...int) Event {
	return Event{Iteration: iteration, Phase: 0, Ranks: ranks}
}

// Overlapping is a convenience constructor for a failure that strikes while
// the reconstruction for `iteration` is in recovery phase `phase`.
func Overlapping(iteration, phase int, ranks ...int) Event {
	return Event{Iteration: iteration, Phase: phase, Ranks: ranks}
}

// BitFlip is a convenience constructor for a silent-data-corruption event:
// at the main poll point of `iteration`, bit `bit` of entry `index` (modulo
// the local length) of `rank`'s local copy of `target` is flipped.
func BitFlip(iteration, rank int, target string, index, bit int) Event {
	return Event{
		Iteration: iteration,
		Ranks:     []int{rank},
		Corrupt:   &Corruption{Target: target, Index: index, Bit: bit},
	}
}
