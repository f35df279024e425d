package netrun

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/xerr"
)

// IsWorker reports whether this process was spawned as a netrun rank
// worker (the coordinator addresses workers through the environment).
func IsWorker() bool { return os.Getenv(EnvCoord) != "" }

// RunWorker runs this process as one rank of a multi-process solve: bind a
// data listener, report it to the coordinator, receive the job, prepare the
// session locally (preparation is deterministic and fabric-independent),
// and drive this process's rank over a NetTransport mesh. Once the job has
// arrived, the process ends in a message to the coordinator: a result (the
// solution, or the error that ended setup or the solve, with its class), or,
// on a scheduled failure victim, a death report sent at the event's poll
// point, after which the process waits for the coordinator to kill it.
// RunWorker returns in every other case, with an error unless the solve
// succeeded; exiting the process is its caller's business.
func RunWorker() error {
	coordAddr := os.Getenv(EnvCoord)
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return fmt.Errorf("netrun: bad %s: %v", EnvRank, err)
	}
	inc, _ := strconv.Atoi(os.Getenv(EnvInc))

	// Bind-then-report: the data listener must exist before the hello that
	// advertises it, so peers dialing on the coordinator's announcement
	// land in this socket's backlog even while we are still preparing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()

	conn, err := net.DialTimeout("tcp", coordAddr, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	var wmu sync.Mutex // progress (solver goroutine) and result share the encoder
	enc := json.NewEncoder(conn)
	send := func(m ctrlMsg) error {
		wmu.Lock()
		defer wmu.Unlock()
		return enc.Encode(m)
	}
	dec := json.NewDecoder(conn)

	if err := send(ctrlMsg{Type: msgHello, Rank: rank, Incarnation: inc, Addr: ln.Addr().String()}); err != nil {
		return err
	}
	var start ctrlMsg
	if err := dec.Decode(&start); err != nil {
		return fmt.Errorf("netrun: waiting for start: %w", err)
	}
	if start.Type != msgStart || start.Spec == nil {
		return fmt.Errorf("netrun: expected %s, got %q", msgStart, start.Type)
	}

	sol, stats, serr := runRank(start, rank, inc, ln, dec, send)
	res := ctrlMsg{Type: msgResult, Stats: stats}
	switch {
	case serr != nil:
		res.Err, res.Code = serr.Error(), xerr.Code(serr)
	case rank == 0:
		if !start.Spec.KeepSolution {
			sol.X = nil // don't ship a vector the engine would drop anyway
		}
		res.Solution = &sol
	}
	if err := send(res); err != nil {
		return err
	}
	return serr
}

// runRank prepares the job's session and solves this process's rank on the
// mesh. Its stats are nil when setup failed before the mesh was built.
func runRank(start ctrlMsg, rank, inc int, ln net.Listener, dec *json.Decoder, send func(ctrlMsg) error) (engine.Solution, *cluster.TransportStats, error) {
	spec := *start.Spec
	a, b, err := spec.Materialize()
	if err != nil {
		return engine.Solution{}, nil, err
	}
	if err := engine.CheckCholBlock(a.Rows, spec.Config); err != nil {
		return engine.Solution{}, nil, err
	}
	// Preparation (partitioning, symbolic halo plan, factorization) is
	// deterministic and transport-independent, so every worker prepares the
	// full session over the cheap in-process fabric; only the solve itself
	// crosses the wire, on the mesh runtime built below.
	cfg := spec.Config
	cfg.Transport = engine.TransportChan
	prep, err := engine.Prepare(a, cfg)
	if err != nil {
		return engine.Solution{}, nil, err
	}
	defer prep.Close()
	if prep.Ranks() != len(start.Peers) {
		return engine.Solution{}, nil, xerr.Newf(xerr.InvalidArgument,
			"netrun: fleet has %d processes, session prepared for %d ranks", len(start.Peers), prep.Ranks())
	}
	if rank < 0 || rank >= prep.Ranks() {
		return engine.Solution{}, nil, fmt.Errorf("netrun: rank %d out of range [0,%d)", rank, prep.Ranks())
	}

	peers := make([]cluster.NetPeer, len(start.Peers))
	for i, addr := range start.Peers {
		peers[i] = cluster.NetPeer{Addr: addr, Ranks: []int{i}}
	}
	tr := cluster.NewNetTransport(cluster.NetConfig{
		RunID:       start.RunID,
		Self:        rank,
		Peers:       peers,
		Listener:    ln,
		Replaceable: scheduledVictims(spec.Config.Schedule),
		Incarnation: inc,
	})
	defer tr.Close()
	rt := cluster.New(prep.Ranks(), cluster.WithTransport(tr))
	if start.Resume != nil {
		// A replacement joining mid-episode: its co-victims are already at
		// their replacement incarnations. Mark them up front (after New has
		// wired the transport's rank table) so sends to them are addressed
		// to the new generation — otherwise the epoch check would take
		// their incarnation-1 connections for a newer generation than
		// intended and discard recovery traffic.
		tr.ExpectReplacement(replacementIncs(spec.Config.Schedule, start.Resume.Iteration, start.Resume.Victims))
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	go func() {
		// Control reader: replacement announcements, and orphan protection —
		// losing the coordinator aborts the solve instead of leaving a
		// headless worker wedged in a recv.
		for {
			var m ctrlMsg
			if err := dec.Decode(&m); err != nil {
				cancel(fmt.Errorf("netrun: rank %d lost its coordinator: %w", rank, err))
				return
			}
			if m.Type == msgPeerUpdate {
				tr.SetPeerAddr(m.Rank, m.Addr, m.Incarnation)
			}
		}
	}()

	onFailure := func(j int, victims []int) {
		if slices.Contains(victims, rank) {
			// This rank is the scheduled victim: report the death and wait
			// for the coordinator to kill the process, here, at the exact
			// deterministic point the in-process fabrics inject the
			// failure. All sends of iteration j are flushed by now. A
			// victim whose coordinator is gone (the report fails, or the
			// control reader cancels ctx) has nobody left to kill it: it
			// aborts the runtime and closes the transport, so nothing more
			// leaves it, and the solve unwinds with the abort's error.
			if err := send(ctrlMsg{Type: msgFailed, Iteration: j, Victims: victims}); err == nil {
				<-ctx.Done()
			}
			rt.Abort(fmt.Errorf("netrun: rank %d failed as scheduled at iteration %d with no coordinator to replace it", rank, j))
			tr.Close()
			return
		}
		// Survivor: freeze the victims' peer slots — sends to them now wait
		// for the replacement's incarnation instead of surfacing a rank
		// failure. Nothing is closed here: the victims may still be running
		// toward their own poll points, and frames they have in flight are
		// still needed by slower survivors.
		tr.ExpectReplacement(replacementIncs(cfg.Schedule, j, victims))
	}
	if rank == 0 {
		cfg.Tracer = forward(send)
	}

	sol, err := prep.SolveOn(ctx, rt, []int{rank}, b, cfg, onFailure, start.Resume)
	st := tr.Stats()
	return sol, &st, err
}

// forward is rank 0's Tracer: it ships every trace to the coordinator. A
// trace that cannot be sent is dropped; the result message, sent the same
// way, reports the lost connection.
type forward func(ctrlMsg) error

func (f forward) TraceIteration(t core.IterationTrace) { _ = f(ctrlMsg{Type: msgTrace, Iter: &t}) }
func (f forward) TraceRecovery(t core.RecoveryTrace)   { _ = f(ctrlMsg{Type: msgTrace, Recovery: &t}) }

// replacementIncs returns, for each victim of the event at iteration j, the
// incarnation its replacement process will run at: the number of scheduled
// events at or before j that kill the rank (the coordinator spawns the
// first generation at incarnation 0 and each replacement at the old
// incarnation plus one). Deriving this from the schedule keeps it correct
// even when the replacement has already connected — and bumped the
// transport's notion of the peer's incarnation — before this survivor
// reached its poll point.
func replacementIncs(s *faults.Schedule, j int, victims []int) map[int]int {
	req := make(map[int]int, len(victims))
	for _, v := range victims {
		req[v] = 0
	}
	if s.Empty() {
		for _, v := range victims {
			req[v] = 1
		}
		return req
	}
	for _, e := range s.Events() {
		if e.Iteration > j {
			continue
		}
		for _, r := range e.Ranks {
			if _, ok := req[r]; ok {
				req[r]++
			}
		}
	}
	for v, n := range req {
		if n == 0 {
			req[v] = 1 // defensive floor: a replacement is at least incarnation 1
		}
	}
	return req
}

// scheduledVictims returns the sorted union of ranks appearing in any
// event of the schedule — the ranks whose process death is planned and
// must be treated as replaceable by every worker's transport.
func scheduledVictims(s *faults.Schedule) []int {
	if s.Empty() {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, e := range s.Events() {
		for _, r := range e.Ranks {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}
