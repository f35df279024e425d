package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// idleGoroutines returns the goroutine count once it has stopped moving: the
// baseline a leak check compares against.
func idleGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 300 && same < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			same++
		} else {
			n, same = now, 0
		}
	}
	return n
}

// settleGoroutines waits for the goroutine count to come back to at most
// want and returns the last count read.
func settleGoroutines(want int) int {
	var n int
	for i := 0; i < 300; i++ {
		runtime.GC()
		if n = runtime.NumGoroutine(); n <= want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// countingReader counts the reads that returned data: for a chunked HTTP
// body read as it arrives, roughly the server's flushes.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.reads++
	}
	return n, err
}

// TestEventsFlushPolicy pins what the events stream promises now that it no
// longer flushes once per line: state lines go out at once (the running line
// is readable while the job runs, the stream ends right after the terminal
// line), every event arrives exactly once and in order, and progress lines
// share flushes.
func TestEventsFlushPolicy(t *testing.T) {
	// A tick long against one iteration on any machine (and under the race
	// detector): progress lines then leave when the response buffer fills,
	// and a state line held back for the tick would be caught below.
	defer func(d time.Duration) { eventFlushTick = d }(eventFlushTick)
	eventFlushTick = 250 * time.Millisecond
	ts, _ := newTestServer(t, 1)
	// TestEndToEnd's cancel victim: hundreds of sub-millisecond iterations.
	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 180}},
		Config: engine.Config{Ranks: 4, Preconditioner: engine.PrecondIdentity, Tol: 1e-12},
	})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := &countingReader{r: resp.Body}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events []engine.Event
	for sc.Scan() {
		var ev engine.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Seq != len(events) {
			t.Fatalf("event %d arrived with seq %d", len(events), ev.Seq)
		}
		events = append(events, ev)
		if ev.Kind == engine.EventState && ev.State == engine.StateRunning {
			if st := getStatus(t, ts, id); st.State != engine.StateRunning {
				t.Fatalf("the running line was readable only once the job was %s", st.State)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Kind != engine.EventState || last.State != engine.StateDone {
		t.Fatalf("stream ended on %+v, want the done line", last)
	}
	if st := getStatus(t, ts, id); st.Events != len(events) {
		t.Fatalf("stream delivered %d events, the job logged %d", len(events), st.Events)
	}
	if len(events) < 200 {
		t.Fatalf("only %d events: the job is too short to show the flush policy", len(events))
	}
	if body.reads >= len(events)/4 {
		t.Fatalf("%d events took %d reads, want fewer than one read per four events", len(events), body.reads)
	}

	// Resuming mid-log yields the suffix, terminal line included.
	tail := readEvents(t, ts, id, len(events)-3)
	if len(tail) != 3 || tail[0].Seq != len(events)-3 || tail[2].State != engine.StateDone {
		t.Fatalf("resume from %d returned %+v", len(events)-3, tail)
	}
}

// TestEventsDisconnectReleasesWatcher: a client that goes away mid-stream
// frees its handler and its engine watcher while the job is still live.
func TestEventsDisconnectReleasesWatcher(t *testing.T) {
	// A standby engine: the job stays queued, so the stream has delivered
	// one line and is waiting when the client hangs up.
	eng := engine.New(engine.Options{Workers: -1, QueueCap: 4})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	defer func() { ts.Close(); eng.Close() }()
	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16}},
		Config: engine.Config{Ranks: 4},
	})
	http.DefaultClient.CloseIdleConnections()
	client := &http.Client{Transport: &http.Transport{}}
	baseline := idleGoroutines()

	events := func(ctx context.Context, from int) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, id, from), nil)
		if err != nil {
			t.Fatal(err)
		}
		return client.Do(req)
	}
	check := func(what string) {
		t.Helper()
		if n := settleGoroutines(baseline); n > baseline {
			t.Fatalf("%s: %d goroutines after the client left, %d before it came", what, n, baseline)
		}
	}

	// A stream that has delivered the log so far and waits for more.
	ctx, cancel := context.WithCancel(context.Background())
	resp, err := events(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The queued line is a state line: it must be here already.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, `"queued"`) {
		t.Fatalf("first line %q, err %v", line, err)
	}
	if n := runtime.NumGoroutine(); n <= baseline {
		t.Fatalf("an open stream holds no goroutine (%d, baseline %d): the test measures nothing", n, baseline)
	}
	cancel()
	resp.Body.Close()
	check("stream from=0")

	// A stream resumed past the end of the log: nothing to send yet, not
	// even the response header, until the client gives up.
	ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if resp, err := events(ctx, 1); err == nil {
		resp.Body.Close()
		t.Fatal("a stream resumed past a queued job's log answered before any event existed")
	}
	check("stream from=1")
}

// TestStalledBodyIsRefused: a peer that sends its headers and half a body and
// then stalls is answered with the classed envelope and hung up on within
// the body read deadline, and its handler goroutine is gone — it does not
// hold the connection and a 64 MiB budget for as long as it likes.
func TestStalledBodyIsRefused(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 100 * time.Millisecond
	ts, _ := newTestServer(t, 1)
	baseline := idleGoroutines()

	for _, route := range []string{"/v1/jobs", "/v1/matrices"} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: esrd\r\nContent-Type: application/json\r\n"+
			"Content-Length: 4096\r\n\r\n{\"matrix\": {\"generator\": \"pois", route)
		start := time.Now()
		conn.SetReadDeadline(start.Add(10 * time.Second))
		answer, err := io.ReadAll(conn) // until the server hangs up
		conn.Close()
		if err != nil {
			t.Fatalf("%s: the server neither answered nor hung up: %v (read %q)", route, err, answer)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("%s: refusal took %v with a %v deadline", route, took, bodyReadTimeout)
		}
		if !bytes.HasPrefix(answer, []byte("HTTP/1.1 408 ")) || !bytes.Contains(answer, []byte(`"code":"deadline_exceeded"`)) {
			t.Fatalf("%s: answer %q, want a 408 deadline_exceeded envelope", route, answer)
		}
		if n := settleGoroutines(baseline); n > baseline {
			t.Fatalf("%s: %d goroutines after the refusal, %d before the request", route, n, baseline)
		}
	}

	// A whole body is untouched by the deadline, also when it arrives late
	// within it.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"matrix": {"generator": "poisson2d", "params": {"nx": 16}}, "config": {"ranks": 4}}`
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: esrd\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:20])
	time.Sleep(bodyReadTimeout / 4)
	io.WriteString(conn, body[20:])
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	answer, err := io.ReadAll(conn)
	if err != nil || !bytes.HasPrefix(answer, []byte("HTTP/1.1 202 ")) {
		t.Fatalf("a complete body got %q, err %v", answer, err)
	}
}

// BenchmarkServeJob is one served job as the bench's closed loop drives it:
// POST the spec with its 4 096-row right-hand side, follow /events to the
// end, GET the result with its solution — against a durable engine on a
// registered Poisson 64x64 matrix.
func BenchmarkServeJob(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2, Store: st})
	ts := httptest.NewServer(newMux(eng, nil))
	defer func() { ts.Close(); eng.Close(); st.Close() }()
	rec, err := eng.PutMatrix(engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 64}})
	if err != nil {
		b.Fatal(err)
	}
	spec := engine.JobSpec{MatrixID: rec.ID, Config: engine.Config{Ranks: 8, Phi: 2}, KeepSolution: true,
		RHS: make([]float64, rec.Rows)}
	for i := range spec.RHS {
		spec.RHS[i] = math.Sin(float64(i) + 0.25)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	serve := func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var acc struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
		}
		if resp, err = http.Get(ts.URL + "/v1/jobs/" + acc.ID + "/events"); err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp, err = http.Get(ts.URL + "/v1/jobs/" + acc.ID); err != nil {
			b.Fatal(err)
		}
		var status engine.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil || status.State != engine.StateDone || len(status.Result.X) != rec.Rows {
			b.Fatalf("job %s: state %s, err %v", acc.ID, status.State, err)
		}
	}
	serve() // builds the prepared session
	start := st.Stats().JournalBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Stats().JournalBytes-start)/float64(b.N), "journal-B/op")
}
