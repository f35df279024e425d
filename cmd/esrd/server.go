package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/xerr"
)

// server exposes the job engine over HTTP:
//
//	POST   /v1/jobs             submit a JobSpec, returns {"id": ...}
//	GET    /v1/jobs             list job statuses
//	GET    /v1/jobs/{id}        job status snapshot
//	GET    /v1/jobs/{id}/events NDJSON event stream (follows until terminal;
//	                            ?from=N resumes after sequence number N-1)
//	GET    /v1/jobs/{id}/trace  per-iteration phase trace of the job's solve
//	                            (needs -trace-iters > 0)
//	DELETE /v1/jobs/{id}        cancel a queued/running job; remove the
//	                            record of a terminal one
//	POST   /v1/matrices         register a MatrixSpec once, returns the
//	                            record whose id jobs reference as matrix_id
//	GET    /v1/matrices         list registered matrices
//	GET    /v1/matrices/{id}    matrix record
//	DELETE /v1/matrices/{id}    unregister
//	GET    /v1/healthz          liveness + job/matrix/prep-cache gauges
//	GET    /metrics             Prometheus text exposition of the registry
type server struct {
	eng *engine.Engine
	log *slog.Logger

	// Per-route HTTP observables, registered on the engine's registry so the
	// daemon's own traffic shows up next to the solver series on /metrics.
	httpReqs *metrics.CounterVec
	httpDur  *metrics.HistogramVec
}

// newMux routes the API onto a fresh ServeMux. Every route is wrapped in the
// access middleware: one structured log line and one count/duration
// observation per request. A nil logger disables access logging (handlers
// still run and metrics are still recorded).
func newMux(eng *engine.Engine, logger *slog.Logger) *http.ServeMux {
	reg := eng.Metrics()
	s := &server{
		eng: eng,
		log: logger,
		httpReqs: reg.CounterVec("esrd_http_requests_total",
			"HTTP requests served, by method, route pattern, and status code.",
			"method", "route", "status"),
		httpDur: reg.HistogramVec("esrd_http_request_seconds",
			"HTTP request handling duration in seconds, by route pattern.",
			metrics.DefBuckets(), "route"),
	}
	mux := http.NewServeMux()
	s.handle(mux, "POST /v1/jobs", s.submit)
	s.handle(mux, "GET /v1/jobs", s.list)
	s.handle(mux, "GET /v1/jobs/{id}", s.get)
	s.handle(mux, "GET /v1/jobs/{id}/events", s.events)
	s.handle(mux, "GET /v1/jobs/{id}/trace", s.trace)
	s.handle(mux, "DELETE /v1/jobs/{id}", s.deleteJob)
	s.handle(mux, "POST /v1/matrices", s.putMatrix)
	s.handle(mux, "GET /v1/matrices", s.listMatrices)
	s.handle(mux, "GET /v1/matrices/{id}", s.getMatrix)
	s.handle(mux, "DELETE /v1/matrices/{id}", s.deleteMatrix)
	s.handle(mux, "GET /v1/healthz", s.healthz)
	s.handle(mux, "GET /metrics", s.metrics)
	return mux
}

// handle registers h under the "METHOD /route" pattern, wrapped in the
// middleware that records esrd_http_requests_total / esrd_http_request_seconds
// and emits one structured access-log line per request. The route label is
// the registration pattern, not the raw URL, so path parameters ({id}) do not
// explode the series cardinality.
func (s *server) handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	method, route, _ := strings.Cut(pattern, " ")
	dur := s.httpDur.With(route)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		elapsed := time.Since(start)
		status := sw.code()
		s.httpReqs.With(method, route, strconv.Itoa(status)).Inc()
		dur.Observe(elapsed.Seconds())
		if s.log != nil {
			attrs := []slog.Attr{
				slog.String("method", method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Duration("duration", elapsed),
			}
			// r.PathValue is populated by the mux before the handler runs, so
			// the job/matrix id is available here for routes that carry one.
			if id := r.PathValue("id"); id != "" {
				attrs = append(attrs, slog.String("id", id))
			}
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// statusWriter records the response status for the middleware. It forwards
// Flush so the NDJSON event stream keeps flushing through the wrapper, and
// unwraps for http.ResponseController (the body read deadline).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// apiError is the uniform JSON error envelope: a stable machine-readable
// code (the error's xerr class) alongside the human-readable message, so
// clients branch on codes instead of matching message strings.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// jsonBufs recycles writeJSON's encode buffers: a result with its solution
// vector is ~20 bytes a row, grown by doubling from nothing on every GET
// otherwise.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledJSON bounds the buffers jsonBufs keeps, so one huge response does
// not pin its buffer for the life of the daemon.
const maxPooledJSON = 4 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Encode before writing the header: values containing NaN/Inf floats
	// (e.g. a diverged solve's residuals) are unencodable, and the failure
	// must surface as a 500 error envelope, not an empty 200 body.
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledJSON {
			buf.Reset()
			jsonBufs.Put(buf)
		}
	}()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":{\"code\":%q,\"message\":%q}}\n",
			xerr.Internal.Code(), "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, err error) {
	wire := xerr.Code(err)
	if wire == "" {
		wire = xerr.Internal.Code()
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		// Both mean "not now": a full queue drains at job speed and a draining
		// daemon is about to be replaced, so tell clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, apiError{Error: apiErrorBody{Code: wire, Message: err.Error()}})
}

// classStatus is the single place an error class becomes an HTTP status.
// statusFor consults only this table — no concrete error types — so a new
// error introduced anywhere in the engine maps correctly the moment it
// carries a class, with no server change.
var classStatus = map[*xerr.Class]int{
	xerr.InvalidArgument:    http.StatusBadRequest,
	xerr.NotFound:           http.StatusNotFound,
	xerr.AlreadyExists:      http.StatusConflict,
	xerr.FailedPrecondition: http.StatusConflict,
	xerr.ResourceExhausted:  http.StatusTooManyRequests,
	xerr.Unavailable:        http.StatusServiceUnavailable,
	xerr.DataLoss:           http.StatusInternalServerError,
	xerr.DeadlineExceeded:   http.StatusGatewayTimeout,
	xerr.Internal:           http.StatusInternalServerError,
}

// statusFor maps an error to its HTTP status via the class table. An
// unclassified error is a bug by construction (every API-surface error
// carries a class); it maps to 500 so the gap is visible, never masked as a
// client mistake.
func statusFor(err error) int {
	if code, ok := classStatus[xerr.ClassOf(err)]; ok {
		return code
	}
	return http.StatusInternalServerError
}

// bodyReadTimeout bounds how long submit and putMatrix wait for a request
// body once its headers are in (ReadHeaderTimeout covers those): a peer that
// trickles or stalls would otherwise hold its connection, its goroutine and
// a 64 MiB body budget for as long as it likes. A variable so tests can
// lower it.
var bodyReadTimeout = 30 * time.Second

// idleTimeout is how long the server keeps a connection open between two
// requests (http.Server.IdleTimeout; without it that is for ever). A
// variable for the same reason.
var idleTimeout = 2 * time.Minute

// decodeBody decodes the request's JSON body into v under the 64 MiB cap and
// the body read deadline; what names the body in the error. On failure it
// has written the refusal and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	// The deadline is not lifted afterwards: net/http does that itself once
	// the body has been read to its end, and until then its own discarding
	// of the unread rest, before it answers, must not wait on the peer
	// either. A ResponseWriter without deadlines (a test recorder) reads
	// unbounded.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyReadTimeout))
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	switch {
	case err == nil:
		return true
	case errors.Is(err, os.ErrDeadlineExceeded):
		// 408, not the class table's 504: it is the client that was late.
		writeErr(w, http.StatusRequestTimeout, xerr.Newf(xerr.DeadlineExceeded,
			"reading %s: no complete body within %v", what, bodyReadTimeout))
	default:
		writeErr(w, http.StatusBadRequest, xerr.Newf(xerr.InvalidArgument, "decoding %s: %v", what, err))
	}
	return false
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec engine.JobSpec
	if !decodeBody(w, r, "job spec", &spec) {
		return
	}
	id, err := s.eng.Submit(spec)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (s *server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.List())
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	st, err := s.eng.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// deleteJob cancels a queued/running job, or removes the stored record of a
// terminal one. A client that wants a job gone entirely issues DELETE until
// {"deleted": true}: the first call cancels, the second removes the
// now-terminal record.
func (s *server) deleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	removed, err := s.eng.Delete(id)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if removed {
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
		return
	}
	// Report the job's actual state: a queued job is already cancelled, a
	// running one goes terminal when the worker observes the abort.
	st, err := s.eng.Get(id)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(st.State)})
}

// putMatrix registers a system matrix once for reuse by many jobs. The body
// is a MatrixSpec (generator or MatrixMarket bytes); the response record's
// id is referenced by JobSpec.MatrixID. Re-uploading identical content
// returns the existing record.
func (s *server) putMatrix(w http.ResponseWriter, r *http.Request) {
	var spec engine.MatrixSpec
	if !decodeBody(w, r, "matrix spec", &spec) {
		return
	}
	rec, err := s.eng.PutMatrix(spec)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, rec)
}

func (s *server) listMatrices(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.ListMatrices())
}

func (s *server) getMatrix(w http.ResponseWriter, r *http.Request) {
	rec, err := s.eng.GetMatrix(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *server) deleteMatrix(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.eng.DeleteMatrix(id); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

// eventFlushTick is how long a progress line may sit in the response buffer
// before the events stream flushes it. A variable so tests can change it.
var eventFlushTick = 10 * time.Millisecond

// events streams the job's event log as NDJSON until the job reaches a
// terminal state (or the client goes away). State and reconstruction lines
// are flushed as they are written — a caller blocked on the terminal line
// waits for nothing — progress lines within eventFlushTick of being written:
// a flush is a write(2) and a wake-up of the reader, and a solver iteration
// can be shorter than either.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, xerr.Newf(xerr.InvalidArgument, "bad from parameter %q", q))
			return
		}
		from = v
	}
	ch, stop, err := s.eng.Watch(r.PathValue("id"), from)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	var due <-chan time.Time // fires while an unflushed progress line waits
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				// An unencodable event (NaN residual) must not silently
				// truncate the stream: emit an error line, then stop.
				fmt.Fprintf(w, "{\"error\":{\"code\":%q,\"message\":%q}}\n",
					xerr.Internal.Code(), "encoding event: "+err.Error())
				return
			}
			switch {
			case flusher == nil:
			case ev.Kind != engine.EventProgress:
				flusher.Flush()
				due = nil
			case due == nil:
				due = time.After(eventFlushTick)
			}
		case <-due:
			flusher.Flush()
			due = nil
		case <-r.Context().Done():
			return
		}
	}
}

// trace serves the job's captured per-iteration phase trace (the bounded
// ring the daemon records when started with -trace-iters > 0). Without
// capture the route answers 404 with the engine's explanatory error.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	tr, err := s.eng.Trace(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// metrics serves the Prometheus text exposition of the engine registry.
func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.eng.Metrics().WritePrometheus(w)
}

// healthz reports liveness plus the engine gauges: engine.HealthSnapshot
// itself, which Engine.Health derives from the same metric registry /metrics
// exports, so the two surfaces cannot drift apart and a health field is
// declared once, on the struct.
func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK   bool   `json:"ok"`
		Time string `json:"time"`
		engine.HealthSnapshot
	}{true, time.Now().UTC().Format(time.RFC3339Nano), s.eng.Health()})
}
