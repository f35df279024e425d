package engine

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// fillCounters sets every int64-kinded field of the stats struct p points to
// (a Duration included) to a distinct non-zero value.
func fillCounters(p any) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Int64 {
			v.Field(i).SetInt(int64(1000 * (i + 1)))
		}
	}
}

// TestStatSeriesCoverEveryField: every counter field of the two stats structs
// is carried by a registered series with help text, and what is observed on
// the series is what Health (healthz, Engine.TransportStats/StrategyStats)
// reads back — a field without a series would come back zero, one without
// help text panics in New.
func TestStatSeriesCoverEveryField(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	var ts cluster.TransportStats
	fillCounters(&ts)
	e.metrics.observeTransport(TransportNet, ts)
	if got := e.Health().Transports[TransportNet]; got != (TransportUsage{Runs: 1, Stats: ts}) {
		t.Fatalf("transport stats round trip:\n got %+v\nwant %+v", got.Stats, ts)
	}
	var ss core.StrategyStats
	fillCounters(&ss)
	e.metrics.observeStrategy(StrategyTwin, ss)
	if got := e.StrategyStats()[StrategyTwin]; got != ss {
		t.Fatalf("strategy stats round trip:\n got %+v\nwant %+v", got, ss)
	}

	help := map[string]string{}
	for _, fam := range e.Metrics().Gather() {
		help[fam.Name] = fam.Help
	}
	for _, s := range append(append([]statSeries(nil), transportSeries...), strategySeries...) {
		if help[s.family] == "" {
			t.Errorf("series %s (field %s) is not registered with help text", s.family, s.name)
		}
	}
}
