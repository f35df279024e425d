// Package netrun runs one solve job across multiple OS processes: a
// coordinator spawns one worker process per rank, wires their data
// listeners into a cluster.NetTransport mesh, and supervises the fleet
// through a newline-JSON control connection per worker.
//
// Failure model: scheduled failure-schedule events become *real* process
// deaths. Every rank's solver reaches the event's poll point
// deterministically; there survivors mark the victims replaceable on their
// transports, and each victim reports its own death to the coordinator and
// waits. The coordinator kills that process and respawns the rank at a
// higher incarnation. The replacement re-prepares the (deterministic)
// session and joins the episode via core.EpisodeResume, so the recovered
// solve is bit-identical to the same schedule run on the in-process
// fabrics. Every worker that has received its job ends in a message — a
// result or a death report — so a worker whose process or control
// connection ends without one (a crash, an operator's kill -9) is lost at
// once: the attempt aborts and the whole job is retried once on a fresh
// fleet. An attempt also ends at the first error result, which fails the
// job with that error's class; the coordinator kills the other workers,
// which may be blocked on the failed one for good. A victim whose
// coordinator is gone has nobody to kill it: it aborts its runtime, closes
// its transport and returns an error. RunWorker never exits the process
// itself; only its caller does.
//
// Restrictions of the multi-process path: one rank per process, the ESR
// strategy only (a victim's process dies with the snapshot the other
// strategies save, and only ESR joins an episode through a Resume),
// phase-0 schedule events only, rank 0 (the result rank) never a
// victim, one right-hand side per job, and the matrix spec must be inline (a
// coordinator-side matrix_id does not resolve inside a worker). The engine
// refuses every other job at Submit, classed failed_precondition, before a
// fleet is spawned.
package netrun

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
)

// Environment variables addressing a worker process (set by the
// coordinator's spawner, read by RunWorker).
const (
	// EnvCoord is the coordinator's control listener address. Its presence
	// is what marks a process as a worker (IsWorker).
	EnvCoord = "ESRD_NET_COORD"
	// EnvRank is the rank slot this worker hosts.
	EnvRank = "ESRD_NET_RANK"
	// EnvInc is the worker's spawn generation: 0 for the original fleet,
	// bumped for each replacement of a scheduled failure victim.
	EnvInc = "ESRD_NET_INC"
)

// Control message types (ctrlMsg.Type).
const (
	// msgHello is the worker's first message: its rank, incarnation and
	// pre-bound data listener address (Addr).
	msgHello = "hello"
	// msgStart carries the job to a worker: run id, spec, the fleet's data
	// addresses in rank order, and (for replacements) the episode to join.
	msgStart = "start"
	// msgTrace streams rank 0's solver traces, an iteration or a recovery
	// episode each, to the coordinator.
	msgTrace = "trace"
	// msgFailed is a scheduled victim's death report, sent at the event's
	// poll point: the iteration it fired at and the episode's victim ranks.
	// The victim then waits for the coordinator to kill it.
	msgFailed = "failed"
	// msgResult is a worker's final message: transport stats once the mesh
	// is built, plus the solution (rank 0) or the error that ended setup or
	// the solve.
	msgResult = "result"
	// msgPeerUpdate announces a replacement worker's data address and
	// incarnation to the survivors (they feed it to SetPeerAddr).
	msgPeerUpdate = "peerupdate"
)

// ctrlMsg is the single wire struct of the control protocol — one JSON
// object per line, fields populated per Type (see the message constants).
type ctrlMsg struct {
	Type string `json:"type"`

	// hello: the sender's rank, spawn generation and pre-bound data
	// listener. peerupdate: the same for a replacement.
	Rank        int    `json:"rank,omitempty"`
	Incarnation int    `json:"incarnation,omitempty"`
	Addr        string `json:"addr,omitempty"`

	// start.
	RunID  string              `json:"run_id,omitempty"`
	Spec   *engine.JobSpec     `json:"spec,omitempty"`
	Peers  []string            `json:"peers,omitempty"`
	Resume *core.EpisodeResume `json:"resume,omitempty"`

	// trace: one of the two.
	Iter     *core.IterationTrace `json:"iter_trace,omitempty"`
	Recovery *core.RecoveryTrace  `json:"recovery,omitempty"`

	// failed.
	Iteration int   `json:"iteration,omitempty"`
	Victims   []int `json:"victims,omitempty"`

	// result. Code is Err's xerr class ("" when unclassed).
	Solution *engine.Solution        `json:"solution,omitempty"`
	Stats    *cluster.TransportStats `json:"stats,omitempty"`
	Err      string                  `json:"err,omitempty"`
	Code     string                  `json:"code,omitempty"`
}
