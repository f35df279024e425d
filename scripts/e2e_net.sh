#!/usr/bin/env bash
# e2e_net.sh — end-to-end exercise of the multi-process rank fleet.
#
# Boots one esrd daemon as coordinator (-peers), then:
#
#   1. submits a net-transport job whose failure schedule ends two worker
#      OS processes mid-solve (each reports its death, the coordinator
#      SIGKILLs it), and asserts the job completes with
#      the recovery visible in /metrics (respawned workers, an ESR
#      recovery episode, net wire traffic);
#   2. submits a second net job and `kill -9`s one of its workers from the
#      outside — an UNSCHEDULED loss — and asserts the coordinator retries
#      the job on a fresh fleet and still completes it;
#   3. SIGTERMs the daemon and asserts a clean drain (exit code 0).
#
# Every wait is deadline-guarded so a hung socket fails the step fast
# instead of stalling the job.
set -euo pipefail

BIN=${1:-./esrd}
ADDR=127.0.0.1:18080
BASE="http://$ADDR"
LOG=$(mktemp)

fail() {
  echo "FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  tail -50 "$LOG" >&2
  exit 1
}

# Poll a command until it succeeds or the deadline (seconds) fires.
wait_for() {
  local deadline=$1 what=$2
  shift 2
  local t=0
  until "$@" >/dev/null 2>&1; do
    sleep 0.5
    t=$((t + 1))
    [ $t -lt $((deadline * 2)) ] || fail "timed out after ${deadline}s waiting for $what"
  done
}

# job_state <id> -> prints the job's state field.
job_state() {
  curl -sf --max-time 5 "$BASE/v1/jobs/$1" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p'
}

# wait_done <id> <deadline-s>: poll until the job reaches a terminal state;
# fail unless that state is "done".
wait_done() {
  local id=$1 deadline=$2 t=0 st=""
  while :; do
    st=$(job_state "$id" || true)
    case "$st" in
    done) return 0 ;;
    failed | cancelled) fail "job $id ended $st: $(curl -s --max-time 5 "$BASE/v1/jobs/$id")" ;;
    esac
    sleep 0.5
    t=$((t + 1))
    [ $t -lt $((deadline * 2)) ] || fail "job $id stuck in state '$st' after ${deadline}s"
  done
}

# metric <name-regex> -> prints the first matching sample's value (0 if
# absent). The body is buffered before awk so awk's early exit can never
# surface as a curl write error under set -e.
metric() {
  local body
  body=$(curl -sf --max-time 5 "$BASE/metrics")
  awk -v re="$1" '$0 ~ re { print $NF; exit }' <<<"$body"
}

"$BIN" -addr "$ADDR" -peers 4 -drain-timeout 30s >"$LOG" 2>&1 &
DAEMON=$!
trap 'kill -9 $DAEMON 2>/dev/null || true' EXIT
wait_for 15 "daemon healthz" curl -sf --max-time 2 "$BASE/v1/healthz"

# --- 1: scheduled failures delivered as real process kills ---------------
JOB1=$(curl -sf --max-time 5 "$BASE/v1/jobs" -d '{
  "matrix": {"generator": "poisson2d", "params": {"nx": 48}},
  "config": {"ranks": 4, "phi": 2, "transport": "net",
             "schedule": [{"iteration": 5, "ranks": [1, 2]}]}
}' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$JOB1" ] || fail "job 1 submit returned no id"
wait_done "$JOB1" 120

RESPAWNS=$(metric '^esrd_net_respawns_total')
EPISODES=$(metric '^solver_episodes_total\{strategy="esr"\}')
NETBYTES=$(metric '^solver_transport_bytes_total\{transport="net",direction="sent"\}')
[ "${RESPAWNS:-0}" -ge 2 ] || fail "expected >=2 worker respawns, metrics say '${RESPAWNS:-0}'"
awk "BEGIN{exit !(${EPISODES:-0} >= 1)}" || fail "expected >=1 ESR recovery episode, metrics say '${EPISODES:-0}'"
awk "BEGIN{exit !(${NETBYTES:-0} > 0)}" || fail "expected net wire traffic, metrics say '${NETBYTES:-0}'"
echo "ok: scheduled process-kill job recovered (respawns=$RESPAWNS episodes=$EPISODES)"

# --- 2: unscheduled kill -9 -> fresh-fleet retry -------------------------
JOB2=$(curl -sf --max-time 5 "$BASE/v1/jobs" -d '{
  "matrix": {"generator": "poisson2d", "params": {"nx": 96}},
  "config": {"ranks": 3, "phi": 2, "transport": "net"}
}' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$JOB2" ] || fail "job 2 submit returned no id"
# Kill the first worker process we can see. Workers re-exec this binary
# with -worker, so they are addressable by command line.
wait_for 30 "job 2 worker processes" pgrep -f "$(basename "$BIN") -worker"
WPID=$(pgrep -f "$(basename "$BIN") -worker" | head -1)
kill -9 "$WPID" || fail "could not kill worker $WPID"
echo "killed worker pid $WPID mid-solve"
wait_done "$JOB2" 180

RETRIES=$(metric '^esrd_net_job_retries_total')
[ "${RETRIES:-0}" -ge 1 ] || fail "expected >=1 fresh-fleet retry after kill -9, metrics say '${RETRIES:-0}'"
echo "ok: unscheduled kill -9 retried on a fresh fleet (retries=$RETRIES)"

# --- 3: graceful shutdown ------------------------------------------------
kill -TERM $DAEMON
# Deadline-guard the drain: if the daemon wedges, the background killer
# SIGKILLs it and wait reports a nonzero status, failing the step.
(
  sleep 40
  kill -9 $DAEMON 2>/dev/null
) &
KILLER=$!
# disown: drop the killer from the job table so bash never reports on it.
disown $KILLER
RC=0
wait $DAEMON 2>/dev/null || RC=$?
# SIGKILL, not SIGTERM: the killer's bash defers catchable signals until
# its foreground sleep finishes, so a TERM'd killer would linger the full
# 40s and then emit job-control noise into whatever runs next.
kill -9 $KILLER 2>/dev/null || true
trap - EXIT
[ "$RC" -eq 0 ] || fail "daemon exited rc=$RC after SIGTERM (drain failed or was force-killed)"
echo "ok: clean drain on SIGTERM"
echo "PASS"
