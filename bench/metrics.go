package main

import "math"

// metricDef declares one metric of BENCHMARK.json. The tables below are the
// program's side of that file; smoke_test.go fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd lists what a user of the library and the daemon sees. Every
// workload reports every one of them (untraced pass).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_ref_s", "s", "lower", 0.25},
	{"solve_protected_s", "s", "lower", 0.25},
	{"solve_recovered_s", "s", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"batch_solves_per_s", "solves/s", "higher", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_latency_p50_s", "s", "lower", 0.20},
	{"job_latency_p95_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"serve_peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists the rungs of the ladder (traced pass), layer = package
// name. Units "count", "flops", "floats" and "msgs" are exact and must repeat
// exactly for one seed.
var perLayer = []metricDef{
	{Name: "sparse.spmv_s", Unit: "s", Better: "lower"},
	{Name: "sparse.spmv_flops", Unit: "flops", Better: "lower"},
	{Name: "sparse.spmv_bytes_computed", Unit: "bytes", Better: "lower"},
	{Name: "sparse.spmm_s_per_col", Unit: "s", Better: "lower"},
	{Name: "vec.iter_updates_s", Unit: "s", Better: "lower"},
	{Name: "precond.apply_s", Unit: "s", Better: "lower"},
	{Name: "localsolve.factor_s", Unit: "s", Better: "lower"},
	{Name: "localsolve.serial_pcg_s", Unit: "s", Better: "lower"},
	{Name: "commplan.symbolic_s", Unit: "s", Better: "lower"},
	{Name: "commplan.halo_elems", Unit: "count", Better: "lower"},
	{Name: "commplan.extra_elems", Unit: "count", Better: "lower"},
	{Name: "commplan.extra_latency_rounds", Unit: "count", Better: "lower"},
	{Name: "cluster.allreduce_s", Unit: "s", Better: "lower"},
	{Name: "cluster.spawn_s", Unit: "s", Better: "lower"},
	{Name: "cluster.msgs_per_iter", Unit: "msgs", Better: "lower"},
	{Name: "cluster.floats_per_iter", Unit: "floats", Better: "lower"},
	{Name: "distmat.matvec_phi0_s", Unit: "s", Better: "lower"},
	{Name: "distmat.matvec_phi3_s", Unit: "s", Better: "lower"},
	{Name: "distmat.redundancy_floats_per_iter", Unit: "floats", Better: "lower"},
	{Name: "distmat.matmat_s_per_col", Unit: "s", Better: "lower"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.recovery_subiters", Unit: "count", Better: "lower"},
	{Name: "core.iter_s", Unit: "s", Better: "lower"},
	{Name: "core.protected_iter_s", Unit: "s", Better: "lower"},
	{Name: "core.trace_spmv_share", Unit: "ratio", Better: "lower"},
	{Name: "core.trace_precond_share", Unit: "ratio", Better: "lower"},
	{Name: "core.trace_allreduce_share", Unit: "ratio", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "core.reconstruct_s", Unit: "s", Better: "lower"},
	{Name: "core.alloc_bytes_per_solve", Unit: "bytes", Better: "lower"},
	{Name: "core.allocs_per_solve", Unit: "allocs", Better: "lower"},
	{Name: "core.protect_over_ref", Unit: "ratio", Better: "lower"},
	{Name: "core.recover_over_ref", Unit: "ratio", Better: "lower"},
	{Name: "engine.prepare_s", Unit: "s", Better: "lower"},
	{Name: "engine.solve_fixed_s", Unit: "s", Better: "lower"},
	{Name: "engine.submit_to_done_s", Unit: "s", Better: "lower"},
	{Name: "engine.prep_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "store.append_s", Unit: "s", Better: "lower"},
	{Name: "store.journal_bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "esrd.startup_s", Unit: "s", Better: "lower"},
	{Name: "esrd.submit_rtt_s", Unit: "s", Better: "lower"},
	{Name: "esrd.http_overhead_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// exactUnit reports whether values of the unit are counts made by the
// program, which repeat exactly for one seed. Allocation counts and bytes are
// not among them: the Go runtime's own bookkeeping allocates too.
func exactUnit(unit string) bool {
	switch unit {
	case "count", "flops", "floats", "msgs":
		return true
	}
	return false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one pass against a declaration table, so
// a metric that is misspelt, reported twice or left out is a failed run and
// not a silently missing row.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
	errs   []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metric{}}
}

func (ms *metricSet) set(name string, v float64) {
	for _, d := range ms.defs {
		if d.Name != name {
			continue
		}
		if _, dup := ms.values[name]; dup {
			ms.errs = append(ms.errs, "metric reported twice: "+name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A phase without one good sample; JSON cannot carry NaN, the
			// problem list carries the fact.
			ms.errs = append(ms.errs, "metric not finite: "+name)
			v = 0
		}
		ms.values[name] = metric{Value: v, Unit: d.Unit}
		return
	}
	ms.errs = append(ms.errs, "metric not declared: "+name)
}

// problems lists what keeps the set from being a complete report.
func (ms *metricSet) problems() []string {
	out := append([]string(nil), ms.errs...)
	for _, d := range ms.defs {
		if _, ok := ms.values[d.Name]; !ok {
			out = append(out, "metric missing: "+d.Name)
		}
	}
	return out
}
