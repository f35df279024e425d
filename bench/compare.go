package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func compareFiles(oldPath, newPath string) int {
	var sets [2]resultFile
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench --compare: %s: %v\n", p, err)
			return 2
		}
	}
	return compareSets(sets[0], sets[1])
}

// series is the values of one metric on one workload and pass, by seed.
type series map[int64]float64

func (s series) values() []float64 {
	out := make([]float64, 0, len(s))
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

type seriesKey struct {
	workload string
	trace    bool
	metric   string
}

func collect(set resultFile) map[seriesKey]series {
	out := map[seriesKey]series{}
	for _, r := range set.Runs {
		for name, m := range r.Metrics {
			k := seriesKey{r.Workload, r.Trace, name}
			if out[k] == nil {
				out[k] = series{}
			}
			out[k][r.Seed] = m.Value
		}
	}
	return out
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(b, a []float64, better string) bool {
	for _, vb := range b {
		for _, va := range a {
			if better == "higher" && vb <= va || better != "higher" && vb >= va {
				return false
			}
		}
	}
	return true
}

func sameSeeds(a, b series) bool {
	if len(a) != len(b) {
		return false
	}
	for seed := range a {
		if _, ok := b[seed]; !ok {
			return false
		}
	}
	return true
}

// compareSets prints, per workload, each metric's two medians and a verdict.
// One rule serves every end-to-end metric: "worse" when the second median is
// worse than the first by more than the bound; otherwise "unresolved" when
// either set's own spread (interquartile distance over median) is wider than
// the bound, unless every run of the second set reads better than every run
// of the first; else "ok". An exact per-layer count is "same" or "differs",
// seed by seed; the other per-layer values are printed without a verdict.
// Sets made on a different GOMAXPROCS or GOARCH, at another run length, or
// with different seeds are refused: their numbers do not measure the same
// thing.
func compareSets(first, second resultFile) int {
	if first.Env.GOMAXPROCS != second.Env.GOMAXPROCS || first.Env.GOARCH != second.Env.GOARCH ||
		first.Seconds != second.Seconds {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare: gomaxprocs %d/%s, %gs against gomaxprocs %d/%s, %gs\n",
			first.Env.GOMAXPROCS, first.Env.GOARCH, first.Seconds,
			second.Env.GOMAXPROCS, second.Env.GOARCH, second.Seconds)
		return 2
	}
	a, b := collect(first), collect(second)
	if len(a) != len(b) {
		fmt.Fprintln(os.Stderr, "bench: refusing to compare: the sets hold different workloads, passes or metrics")
		return 2
	}
	for k, sa := range a {
		if !sameSeeds(sa, b[k]) {
			fmt.Fprintf(os.Stderr, "bench: refusing to compare: seed sets differ on %s %s\n", k.workload, k.metric)
			return 2
		}
	}
	bad := 0
	fmt.Printf("%-18s %-36s %-9s %13s %13s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "unit", "first", "second", "change", "bound", "spread1", "spread2", "verdict")
	for _, wl := range workloads {
		for _, pass := range []struct {
			trace bool
			defs  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			for _, d := range pass.defs {
				k := seriesKey{wl.name, pass.trace, d.Name}
				sa, ok := a[k]
				if !ok {
					continue
				}
				sb := b[k]
				va, vb := sa.values(), sb.values()
				m1, m2 := median(va), median(vb)
				s1, s2 := spread(va), spread(vb)
				change := 0.0
				if m2 != m1 {
					change = (m2 - m1) / m1
				}
				verdict, bound := "", ""
				switch {
				case !pass.trace:
					loss := change
					if d.Better == "higher" {
						loss = -change
					}
					verdict = "ok"
					if loss > d.Bound {
						verdict = "worse"
						bad++
					} else if (s1 > d.Bound || s2 > d.Bound) && !allBetter(vb, va, d.Better) {
						verdict = "unresolved"
						bad++
					}
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				case exactUnit(d.Unit):
					verdict = "same"
					for seed, v := range sa {
						if sb[seed] != v {
							verdict = "differs"
						}
					}
					if verdict == "differs" {
						bad++
					}
				}
				fmt.Printf("%-18s %-36s %-9s %13.6g %13.6g %+7.1f%% %6s %7.1f%% %7.1f%%  %s\n",
					wl.name, d.Name, d.Unit, m1, m2, 100*change, bound, 100*s1, 100*s2, verdict)
			}
		}
	}
	seeds := map[int64]bool{}
	for _, r := range first.Runs {
		seeds[r.Seed] = true
	}
	list := make([]int64, 0, len(seeds))
	for s := range seeds {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	fmt.Printf("# seeds %v, %gs runs, gomaxprocs %d, %s; %d rows worse, unresolved or differing\n",
		list, first.Seconds, first.Env.GOMAXPROCS, first.Env.GOARCH, bad)
	if bad > 0 {
		return 1
	}
	return 0
}
