package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// buildEsrd compiles the real cmd/esrd into dst. It must run from inside the
// bench module (go run -C bench, go test, or bench/run.sh all do).
func buildEsrd(dst string) error {
	out, err := exec.Command("go", "build", "-o", dst, "repro/cmd/esrd").CombinedOutput()
	if err != nil {
		return fmt.Errorf("building esrd: %v\n%s", err, out)
	}
	return nil
}

// daemon is one live esrd process on a loopback port with one worker per
// CPU, journaling into its own data directory (no -fsync), everything else on
// the daemon's defaults.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
}

func startDaemon(esrdPath, dir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(dir, "esrd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(esrdPath, "-addr", addr, "-workers", strconv.Itoa(runtime.NumCPU()),
		"-data-dir", filepath.Join(dir, "data"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}}}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("esrd did not answer /v1/healthz within 20s (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it does not, and
// waits until the process has ended.
func (d *daemon) stop() {
	// First hang up: a connection the transport dialled but never used stays
	// "new" to the server, and its Shutdown waits five seconds for those.
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

// peakRSSMB reads a process's peak resident set from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// call sends one request and decodes the JSON answer into out (nil discards
// the body). A status other than want is an error carrying the body.
func (d *daemon) call(method, path string, body, out any, want int) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, msg)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (d *daemon) register(spec engine.MatrixSpec) (string, error) {
	var rec engine.MatrixRecord
	err := d.call("POST", "/v1/matrices", spec, &rec, http.StatusCreated)
	return rec.ID, err
}

// health reads the daemon's gauges.
func (s *serving) health() (engine.HealthSnapshot, error) {
	var h engine.HealthSnapshot
	err := s.d.call("GET", "/v1/healthz", nil, &h, http.StatusOK)
	return h, err
}

// job is one request of the serving mix together with what the bench needs
// to check its answer.
type job struct {
	spec  engine.JobSpec
	a     *sparse.CSR
	b     []float64
	recon int // reconstruction episodes the result must report
}

// run submits the job, follows its event stream until the daemon closes it
// at the terminal state, and reads the result back: what a caller that waits
// for its answer does. latency covers all three requests, rtt the POST.
func (d *daemon) run(j job, check checker) (latency, rtt float64, err error) {
	t := time.Now()
	var acc struct {
		ID string `json:"id"`
	}
	if err = d.call("POST", "/v1/jobs", j.spec, &acc, http.StatusAccepted); err != nil {
		return 0, 0, err
	}
	rtt = time.Since(t).Seconds()
	if err = d.call("GET", "/v1/jobs/"+acc.ID+"/events", nil, nil, http.StatusOK); err != nil {
		return 0, rtt, err
	}
	var st engine.JobStatus
	if err = d.call("GET", "/v1/jobs/"+acc.ID, nil, &st, http.StatusOK); err != nil {
		return 0, rtt, err
	}
	latency = time.Since(t).Seconds()
	switch {
	case st.State != engine.StateDone || st.Result == nil:
		err = fmt.Errorf("job %s ended %q: %s", acc.ID, st.State, st.Error)
	case !st.Result.Result.Converged:
		err = fmt.Errorf("job %s did not converge", acc.ID)
	case len(st.Result.Result.Reconstructions) != j.recon:
		err = fmt.Errorf("job %s: %d reconstruction episodes, want %d", acc.ID, len(st.Result.Result.Reconstructions), j.recon)
	default:
		err = check.residual(j.a, st.Result.X, j.b)
	}
	return latency, rtt, err
}

// The serving mix, per ten jobs: seven on the registered workload matrix
// alternating strategy esr/checkpoint (run policy that today splits the prep
// cache), one of them with a three-failure schedule on top, one on a second
// registered matrix, one inline poisson2d whose size cycles over more sizes
// than the daemon's -prep-cache 8 holds (a guaranteed miss).
const (
	kindESR = iota
	kindCheckpoint
	kindFailure
	kindSecond
	kindInline
	inlineSizes = 24
)

var mixBlock = [10]int{kindESR, kindCheckpoint, kindESR, kindCheckpoint, kindESR, kindCheckpoint,
	kindESR, kindFailure, kindSecond, kindInline}

// serving is a daemon with the workload's matrices registered and its prep
// cache warm, plus the seeded job sequence.
type serving struct {
	problem
	d        *daemon
	mainID   string
	secondID string
	second   *sparse.CSR
	inlineNx int // smallest inline size
	inline   map[int]*sparse.CSR
	// startup is process start -> healthz 200 -> matrices registered -> first
	// job per matrix and strategy done.
	startup float64

	next  atomic.Int64 // the next job's index in the seeded sequence
	mu    sync.Mutex   // guards what follows, the tally and the load of a window
	kinds []int        // job index -> kind, extended block by block from the seed

	// The daemon keeps the result of every job (up to -max-jobs 4096), so its
	// footprint grows with the jobs it has served. Its peak RSS is therefore
	// read when rssAfter jobs are done, the same number in every run; read at
	// the end of a run it would rise with jobs_per_s.
	rssAfter, done int
	rssMB          float64
	rssErr         error
}

// peakRSS returns the daemon's peak RSS as read after rssAfter jobs, or as
// it is now when the run has not come that far.
func (s *serving) peakRSS() (float64, error) {
	if s.done >= s.rssAfter {
		return s.rssMB, s.rssErr
	}
	return peakRSSMB(s.d.cmd.Process.Pid)
}

func startServing(esrdPath, dir string, wl workload, tiny bool, p problem) (*serving, error) {
	secondNx, inlineNx, rssAfter := 48, 20, 150
	if tiny {
		secondNx, inlineNx, rssAfter = 12, 8, 10
	}
	t := time.Now()
	d, err := startDaemon(esrdPath, dir)
	if err != nil {
		return nil, err
	}
	s := &serving{problem: p, d: d, second: matgen.Poisson2D(secondNx, secondNx),
		inlineNx: inlineNx, inline: map[int]*sparse.CSR{}, rssAfter: rssAfter}
	for i := 0; i < inlineSizes; i++ {
		s.inline[inlineNx+i] = matgen.Poisson2D(inlineNx+i, inlineNx+i)
	}
	if s.mainID, err = d.register(wl.spec(tiny)); err == nil {
		s.secondID, err = d.register(engine.MatrixSpec{Generator: "poisson2d",
			Params: map[string]float64{"nx": float64(secondNx)}})
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	for _, kind := range []int{kindESR, kindCheckpoint, kindSecond} {
		_, _, err := d.run(s.job(kind, 0), s.check)
		s.tally.op(err)
	}
	s.startup = time.Since(t).Seconds()
	return s, nil
}

// job builds request i of the given kind.
func (s *serving) job(kind, i int) job {
	cfg := engine.Config{Ranks: ranks, Phi: phi, Tol: tol, LocalTol: localTol}
	j := job{spec: engine.JobSpec{Config: cfg, KeepSolution: true}}
	switch kind {
	case kindSecond:
		j.spec.MatrixID, j.a, j.b = s.secondID, s.second, ones(s.second.Rows)
	case kindInline:
		nx := s.inlineNx + (i/len(mixBlock))%inlineSizes
		j.spec.Matrix = engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": float64(nx)}}
		j.a, j.b = s.inline[nx], ones(nx*nx)
	default:
		b := s.in.rhs[i%len(s.in.rhs)]
		j.spec.MatrixID, j.spec.RHS, j.a, j.b = s.mainID, b, s.a, b
		switch kind {
		case kindCheckpoint:
			j.spec.Config.Strategy = engine.StrategyCheckpoint
		case kindFailure:
			start := (s.in.firstVictim + i) % ranks
			j.spec.Config.Schedule = faults.NewSchedule(
				faults.Simultaneous(s.failIter, faults.ContiguousRanks(start, phi, ranks)...))
			j.recon = 1
		}
	}
	return j
}

// kindOf returns the kind of job i: the mix block, shuffled per block by the
// seed. The sequence is a function of the seed alone, not of which client
// asks first.
func (s *serving) kindOf(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i >= len(s.kinds) {
		block := mixBlock
		s.in.jobRng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		s.kinds = append(s.kinds, block[:]...)
	}
	return s.kinds[i]
}

// load is the outcome of closed-loop windows: the latency of every job
// that passed its checks, and the windows' total length, each taken from
// its first send to its last completion.
type load struct {
	latency []float64
	window  float64
}

// closedLoop runs one window of `clients` callers, each sending its next job
// only after the previous one's result is read back, until the budget is
// spent and at least minJobs are done, and adds the outcome to out. Jobs are
// numbered on from the previous window's.
func (s *serving) closedLoop(out *load, clients int, budget time.Duration, minJobs int) {
	var wg sync.WaitGroup
	first := s.next.Load()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if s.next.Load()-first >= int64(minJobs) && time.Since(start) >= budget {
					return
				}
				i := int(s.next.Add(1)) - 1
				lat, _, err := s.d.run(s.job(s.kindOf(i), i), s.check)
				s.mu.Lock()
				s.tally.op(err)
				if err == nil {
					out.latency = append(out.latency, lat)
				}
				if s.done++; s.done == s.rssAfter {
					s.rssMB, s.rssErr = peakRSSMB(s.d.cmd.Process.Pid)
				}
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.window += time.Since(start).Seconds()
}
