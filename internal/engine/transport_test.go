package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/matgen"
)

// TestQuickTransportConfigValidation: transport names are validated at the
// door and defaulted to chan, which the accepted synonym "fast" resolves to.
func TestQuickTransportConfigValidation(t *testing.T) {
	cfg := Config{Transport: "carrier-pigeon"}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "transport") {
		t.Fatalf("want transport validation error, got %v", err)
	}
	for _, tr := range []string{"", TransportChan, fastSynonym, TransportChaos, TransportNet} {
		cfg := Config{Transport: tr}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("transport %q should validate: %v", tr, err)
		}
	}
	for _, tr := range []string{"", fastSynonym} {
		if got := (Config{Transport: tr}).WithDefaults().Transport; got != TransportChan {
			t.Fatalf("transport %q resolves to %q, want %q", tr, got, TransportChan)
		}
	}
}

// TestQuickTransportPrepKey: preparation is deterministic and
// fabric-independent, so neither the transport nor the chaos seed may
// fragment the prepared-session cache key.
func TestQuickTransportPrepKey(t *testing.T) {
	base := prepKey("h", Config{Ranks: 4})
	for _, cfg := range []Config{
		{Ranks: 4, Transport: fastSynonym},
		{Ranks: 4, Transport: TransportNet},
		{Ranks: 4, TransportSeed: 99},
		{Ranks: 4, Transport: TransportChaos},
		{Ranks: 4, Transport: TransportChaos, TransportSeed: 99},
	} {
		if prepKey("h", cfg) != base {
			t.Fatalf("%+v keys the prep cache; the fabric must not", cfg)
		}
	}
}

// TestQuickTransportSessionStats: a session books every runtime it runs —
// its build's and each solve's — on its engine's series under the fabric it
// resolved to (the synonym "fast" as chan), and the engine's default
// transport applies to jobs that did not pick one.
func TestQuickTransportSessionStats(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	booked := New(Options{Workers: -1})
	defer booked.Close()
	prep, err := prepare(context.Background(), a, Config{Ranks: 4, Transport: fastSynonym}, booked.metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer prep.Close()
	afterPrep := booked.TransportStats()
	if u := afterPrep[TransportChan]; len(afterPrep) != 1 || u.Runs != 1 || u.Stats.Delivered == 0 {
		t.Fatalf("preparation not booked as one chan run that exchanged messages: %+v", afterPrep)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	if _, err := prep.Solve(context.Background(), b, Config{}); err != nil {
		t.Fatal(err)
	}
	before, after := afterPrep[TransportChan], booked.TransportStats()[TransportChan]
	if after.Runs != 2 || after.Stats.Delivered <= before.Stats.Delivered {
		t.Fatalf("solve not booked as a second chan run: %+v -> %+v", before, after)
	}
	if after.Stats.PoolGets == 0 {
		t.Fatalf("recycler unused: %+v", after)
	}

	eng := New(Options{Workers: 1, Defaults: Config{Transport: TransportChaos}})
	defer eng.Close()
	id, err := eng.Submit(JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}},
		Config: Config{Ranks: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, eng, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	usage := eng.TransportStats()
	u, ok := usage[TransportChaos]
	if !ok || u.Runs < 2 { // one preparation + one solve
		t.Fatalf("engine transport gauges missing chaos runs: %+v", usage)
	}
	if _, ok := usage[TransportChan]; ok {
		t.Fatalf("no chan runtime should have run: %+v", usage)
	}
}
