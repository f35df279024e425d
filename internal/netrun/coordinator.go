package netrun

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/xerr"
)

// Options sizes a Coordinator.
type Options struct {
	// Command is the worker process argv (e.g. {"/path/to/esrd",
	// "-worker"}); the coordinator appends the ESRD_NET_* environment.
	// Required.
	Command []string
	// Log, when non-nil, receives human-readable supervision events.
	Log func(format string, args ...any)
}

const (
	// helloTimeout bounds how long a spawned worker may take to report its
	// hello. It covers process start only: preparation happens after the
	// hello.
	helloTimeout = 30 * time.Second
	// maxRetries is how many times a job is retried on a fresh fleet after
	// an unscheduled worker loss.
	maxRetries = 1
)

// Coordinator supervises multi-process solve fleets: one worker process
// per rank, spawned per job, replaced on scheduled failures, and torn down
// when the job finishes. The counters are cumulative across jobs and are
// what the esrd daemon exports as its esrd_net_* metric series.
type Coordinator struct {
	opts Options
	seq  atomic.Int64

	live     atomic.Int64 // currently-running worker processes
	respawns atomic.Int64 // scheduled-victim replacements spawned
	retries  atomic.Int64 // full-job retries after unscheduled losses
	jobs     atomic.Int64 // jobs accepted
}

// NewCoordinator validates the options and returns a coordinator.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if len(opts.Command) == 0 {
		return nil, fmt.Errorf("netrun: coordinator needs a worker command")
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	return &Coordinator{opts: opts}, nil
}

// LiveWorkers returns the number of currently-running worker processes.
func (c *Coordinator) LiveWorkers() int64 { return c.live.Load() }

// Respawns returns the cumulative count of scheduled-victim replacements.
func (c *Coordinator) Respawns() int64 { return c.respawns.Load() }

// JobRetries returns the cumulative count of full-job retries after
// unscheduled worker losses.
func (c *Coordinator) JobRetries() int64 { return c.retries.Load() }

// JobsRun returns the cumulative count of jobs accepted.
func (c *Coordinator) JobsRun() int64 { return c.jobs.Load() }

// workerLostError reports a worker process that ended without a result or a
// death report to explain it; the job is retried on a fresh fleet.
type workerLostError struct{ rank int }

func (e *workerLostError) Error() string {
	return fmt.Sprintf("lost worker process for rank %d without a scheduled failure", e.rank)
}

// Run solves one job across spec.Config.Ranks worker processes and returns
// rank 0's solution plus the fleet's aggregated transport counters.
// Rank 0's traces are replayed into tr.
func (c *Coordinator) Run(ctx context.Context, spec engine.JobSpec, tr core.Tracer) (engine.Solution, cluster.TransportStats, error) {
	cfg := spec.Config.WithDefaults()
	c.jobs.Add(1)
	for attempt := 0; ; attempt++ {
		sol, stats, err := c.runAttempt(ctx, spec, cfg, attempt, tr)
		var lost *workerLostError
		if err != nil && errors.As(err, &lost) && attempt < maxRetries && ctx.Err() == nil {
			c.retries.Add(1)
			c.opts.Log("netrun: %v; retrying on a fresh fleet (attempt %d of %d)", err, attempt+2, maxRetries+1)
			continue
		}
		return sol, stats, err
	}
}

// workerError re-raises a worker's solve error under the class it carried
// across the control connection. An error a rank's solve returned already
// names the rank (cluster.Runtime.Run prefixes it).
func workerError(m ctrlMsg) error {
	err := fmt.Errorf("netrun: %s", m.Err)
	for _, c := range xerr.Classes() {
		if c.Code() == m.Code {
			return xerr.Wrap(c, err)
		}
	}
	return err
}

// workerProc is the coordinator's record of one worker process (one
// incarnation; replacements get a fresh record, with the episode they join).
type workerProc struct {
	rank, inc int
	resume    *core.EpisodeResume
	cmd       *exec.Cmd
	conn      net.Conn
	enc       *json.Encoder
	addr      string // the worker's data listener
}

// Event kinds of the supervision loop.
const (
	evHello = iota // a worker reported in (msg, conn, dec set)
	evMsg          // a control message from a registered worker
	evGone         // a worker's control connection closed
	evExit         // a worker process exited
)

type wevent struct {
	kind      int
	rank, inc int
	msg       ctrlMsg
	conn      net.Conn
	dec       *json.Decoder
}

// runAttempt runs one fleet to completion (or failure). All fleet state is
// owned by this goroutine; helper goroutines only feed the event channel.
func (c *Coordinator) runAttempt(ctx context.Context, spec engine.JobSpec, cfg engine.Config, attempt int, tr core.Tracer) (engine.Solution, cluster.TransportStats, error) {
	var (
		sol   engine.Solution
		stats cluster.TransportStats
	)
	ranks := cfg.Ranks
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sol, stats, err
	}
	defer ln.Close()
	runID := fmt.Sprintf("netrun-%d-%d-%d", os.Getpid(), c.seq.Add(1), attempt)

	events := make(chan wevent, 4*ranks+16)
	quit := make(chan struct{})
	defer close(quit)
	post := func(ev wevent) {
		select {
		case events <- ev:
		case <-quit:
		}
	}

	go func() { // hello acceptor; exits when the deferred ln.Close runs
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				conn.SetReadDeadline(time.Now().Add(helloTimeout))
				dec := json.NewDecoder(conn)
				var m ctrlMsg
				if err := dec.Decode(&m); err != nil || m.Type != msgHello {
					conn.Close()
					return
				}
				conn.SetReadDeadline(time.Time{})
				post(wevent{kind: evHello, rank: m.Rank, inc: m.Incarnation, msg: m, conn: conn, dec: dec})
			}(conn)
		}
	}()

	workers := make(map[int]*workerProc, ranks)
	kill := func(w *workerProc) {
		w.cmd.Process.Kill()
		if w.conn != nil {
			w.conn.Close()
		}
	}
	defer func() {
		for _, w := range workers {
			kill(w)
		}
	}()

	spawn := func(rank, inc int, resume *core.EpisodeResume) error {
		cmd := exec.Command(c.opts.Command[0], c.opts.Command[1:]...)
		cmd.Env = append(os.Environ(),
			EnvCoord+"="+ln.Addr().String(),
			fmt.Sprintf("%s=%d", EnvRank, rank),
			fmt.Sprintf("%s=%d", EnvInc, inc))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		c.live.Add(1)
		workers[rank] = &workerProc{rank: rank, inc: inc, resume: resume, cmd: cmd}
		go func() {
			cmd.Wait()
			c.live.Add(-1)
			post(wevent{kind: evExit, rank: rank, inc: inc})
		}()
		return nil
	}
	for r := 0; r < ranks; r++ {
		if err := spawn(r, 0, nil); err != nil {
			return sol, stats, fmt.Errorf("netrun: spawn rank %d: %w", r, err)
		}
	}

	peerAddrs := func() []string {
		addrs := make([]string, ranks)
		for r, w := range workers {
			addrs[r] = w.addr
		}
		return addrs
	}
	sendStart := func(w *workerProc) error {
		return w.enc.Encode(ctrlMsg{
			Type: msgStart, RunID: runID, Spec: &spec,
			Peers: peerAddrs(), Resume: w.resume,
		})
	}

	var (
		pendingHello = ranks
		started      bool
		done         = map[int]bool{}
	)
	hello := time.NewTimer(helloTimeout)
	defer hello.Stop()

	for {
		select {
		case <-ctx.Done():
			return sol, stats, context.Cause(ctx)
		case <-hello.C:
			if pendingHello > 0 {
				return sol, stats, fmt.Errorf("netrun: %d worker(s) did not report within %v", pendingHello, helloTimeout)
			}
		case ev := <-events:
			w := workers[ev.rank]
			if w == nil || ev.inc != w.inc {
				// A replaced incarnation's leftovers (its exit, its closing
				// control conn) — already superseded.
				if ev.kind == evHello && ev.conn != nil {
					ev.conn.Close()
				}
				continue
			}
			switch ev.kind {
			case evHello:
				w.conn, w.enc, w.addr = ev.conn, json.NewEncoder(ev.conn), ev.msg.Addr
				go func(rank, inc int, dec *json.Decoder) {
					for {
						var m ctrlMsg
						if err := dec.Decode(&m); err != nil {
							post(wevent{kind: evGone, rank: rank, inc: inc})
							return
						}
						post(wevent{kind: evMsg, rank: rank, inc: inc, msg: m})
					}
				}(ev.rank, ev.inc, ev.dec)
				pendingHello--
				if pendingHello == 0 {
					hello.Stop()
				}
				if !started {
					if pendingHello > 0 {
						continue
					}
					started = true
					for _, ww := range workers {
						if err := sendStart(ww); err != nil {
							return sol, stats, fmt.Errorf("netrun: start rank %d: %w", ww.rank, err)
						}
					}
					continue
				}
				// A replacement joining an episode already in progress: give
				// it the job plus the resume point, and announce its address
				// to the blocked survivors.
				if err := sendStart(w); err != nil {
					return sol, stats, fmt.Errorf("netrun: start replacement rank %d: %w", w.rank, err)
				}
				for _, ww := range workers {
					if ww.rank == w.rank || ww.conn == nil {
						continue
					}
					ww.enc.Encode(ctrlMsg{Type: msgPeerUpdate, Rank: w.rank, Addr: w.addr, Incarnation: w.inc})
				}
			case evMsg:
				m := ev.msg
				switch m.Type {
				case msgTrace:
					if m.Iter != nil {
						tr.TraceIteration(*m.Iter)
					} else if m.Recovery != nil {
						tr.TraceRecovery(*m.Recovery)
					}
				case msgFailed:
					// A scheduled victim waiting at its poll point, where its
					// sends of the iteration are flushed: end it, and start
					// the replacement that joins the episode.
					c.opts.Log("netrun: rank %d failed as scheduled at iteration %d (victims %v); respawning", w.rank, m.Iteration, m.Victims)
					kill(w)
					c.respawns.Add(1)
					pendingHello++
					if err := spawn(w.rank, w.inc+1, &core.EpisodeResume{Iteration: m.Iteration, Victims: m.Victims}); err != nil {
						return sol, stats, fmt.Errorf("netrun: respawn rank %d: %w", w.rank, err)
					}
					hello.Reset(helloTimeout)
				case msgResult:
					if done[ev.rank] {
						continue
					}
					done[ev.rank] = true
					if m.Stats != nil {
						stats.Add(*m.Stats)
					}
					if m.Err != "" {
						// The first error ends the attempt: the deferred kill
						// ends the other workers, which may be blocked on
						// this one for good.
						return sol, stats, workerError(m)
					}
					if ev.rank == 0 && m.Solution != nil {
						sol = *m.Solution
					}
					if len(done) == ranks {
						return sol, stats, nil
					}
				}
			case evGone, evExit:
				if done[ev.rank] {
					continue // normal exit after its result
				}
				if ev.kind == evExit && w.conn != nil {
					// A process exit observed by Wait can race the final
					// bytes of the worker's control stream (its result may
					// still sit undecoded in our socket buffer). Once a
					// control connection exists, the reader's evGone — which
					// is ordered behind everything the worker sent — is the
					// authoritative loss signal; an exit before any hello
					// still fails fast below.
					continue
				}
				// Neither a result nor a death report: nothing scheduled
				// explains this end.
				return sol, stats, &workerLostError{rank: ev.rank}
			}
		}
	}
}
