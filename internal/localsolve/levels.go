package localsolve

// levelSchedule is the row order of an ILU(0) factor's one-column sweeps.
// A row's level is one more than the highest level among the rows it reads
// (0 when it reads none), so the rows of one level do not depend on each
// other and their sums overlap in the pipeline, where the natural sweep
// runs each row's chain of subtractions and its division after the last
// row's. Within a level the rows are grouped by entry count — 0, 1, 2 or
// more — and the first three groups run straight-line code.
type levelSchedule struct {
	lower, upper levelOrder // the forward sweep's (L) and backward sweep's (U)
}

// levelOrder is one sweep's row order: the rows sorted by key, level·4 +
// group, rows of one key in ascending order. The rows of key q are
// rows[ends[q-1]:ends[q]], with ends[-1] taken as 0.
type levelOrder struct {
	rows []int32
	ends []int32
}

// levelMaxLower is levelRule's threshold: the most strictly-lower entries
// per row, on average, of a factor whose one-column sweeps run in level
// order. On sparse rows the natural sweep waits on each row's chain of
// subtractions and division, and level order lets the rows of a level
// overlap; dense rows keep the floating-point units busy anyway, and there
// the scattered row order only costs.
const levelMaxLower = 2

// levelMinWidth is levelRule's second threshold: the fewest rows per
// level, on average over the sweep with more levels. A pattern close to a
// chain (a 1D Laplacian, a 2D grid a few points wide) leaves too few rows in
// a level to overlap, and the walk's per-level dispatch only costs: such
// strips swept 0.55–0.9× as fast in level order at 1 to 6 rows per level,
// 1.2× at 7.7.
const levelMinWidth = 6

// levelRule reports whether a factor with n rows and lower strictly-lower
// entries gets a level schedule. The row count bound keeps the schedule's
// int32 keys (level·4 + group) in range. The level count is known only
// once the schedule is built; see levelWidthRule.
func levelRule(n, lower int) bool {
	return lower <= levelMaxLower*n && n < 1<<28
}

// levelWidthRule reports whether a schedule over n rows has at least
// levelMinWidth rows per level in both sweeps.
func levelWidthRule(s *levelSchedule, n int) bool {
	levels := max(len(s.lower.ends), len(s.upper.ends)) / 4
	return levels*levelMinWidth <= n
}

// leveled returns the factor's level schedule, or nil where levelRule or
// levelWidthRule refuses it. The schedule is built on the first call, not in NewILU0: on
// the blocks the rule accepts its build costs about 40 % of the
// factorisation, which setup would pay for every factor, and a factor swept
// only k columns at a time (a batch's) never needs it.
func (f *ILU0) leveled() *levelSchedule {
	f.levelsOnce.Do(func() {
		lower := 0
		for i, d := range f.diag {
			lower += d - f.rowPtr[i]
		}
		if !levelRule(f.n, lower) {
			return
		}
		if s := f.schedule(); levelWidthRule(s, f.n) {
			f.levels = s
		}
	})
	return f.levels
}

// entryGroup is a row's entry-count group in its level: its count of
// entries in the sweep's triangle, capped at 3 for "more".
func entryGroup(entries int) int32 { return int32(min(entries, 3)) }

// schedule builds the factor's level schedule, whatever levelRule says: the
// forward keys in one pass down the rows, the backward keys in one pass up,
// and each order in one counting sort over its keys.
func (f *ILU0) schedule() *levelSchedule {
	n := f.n
	rowPtr, diag, col := f.rowPtr[:n+1], f.diag[:n], f.col
	keys := make([]int32, 2*n)
	lower, upper := keys[:n], keys[n:]
	var lowerKeys, upperKeys int32
	for i := 0; i < n; i++ {
		lo, d := rowPtr[i], diag[i]
		var level int32
		for _, c := range col[lo:d] {
			level = max(level, lower[c]>>2+1)
		}
		lower[i] = level<<2 | entryGroup(d-lo)
		lowerKeys = max(lowerKeys, level<<2+4)
	}
	for i := n - 1; i >= 0; i-- {
		d, hi := diag[i], rowPtr[i+1]
		var level int32
		for _, c := range col[d+1 : hi] {
			level = max(level, upper[c]>>2+1)
		}
		upper[i] = level<<2 | entryGroup(hi-d-1)
		upperKeys = max(upperKeys, level<<2+4)
	}
	rows := make([]int32, 2*n)
	ends := make([]int32, lowerKeys+upperKeys)
	return &levelSchedule{
		lower: sortByKey(lower, rows[:n], ends[:lowerKeys]),
		upper: sortByKey(upper, rows[n:], ends[lowerKeys:]),
	}
}

// sortByKey places the rows 0…len(keys)-1 in rows by key, stably, counting
// into ends, which it leaves holding each key's end.
func sortByKey(keys, rows, ends []int32) levelOrder {
	for _, q := range keys {
		ends[q]++
	}
	var start int32
	for q, c := range ends {
		ends[q] = start
		start += c
	}
	for i, q := range keys {
		rows[ends[q]] = int32(i)
		ends[q]++
	}
	return levelOrder{rows: rows, ends: ends}
}

// solveLevels is Solve on the level schedule. Every row sums its entries in
// stored order and divides once, exactly as solveNatural does, and reads
// only rows of earlier levels, which are final by then: z is bit for bit
// the natural sweep's. z may alias r: row i's r[i] is read only by row i,
// before it writes z[i].
func (f *ILU0) solveLevels(sched *levelSchedule, z, r []float64) {
	n := f.n
	z, r = z[:n], r[:n]
	rowPtr, diag := f.rowPtr[:n+1], f.diag[:n]
	col := f.col[:len(f.col):len(f.col)]
	val := f.val[:len(col):len(col)]
	// L y = r (unit diagonal)
	o := &sched.lower
	lo := int32(0)
	for q, hi := range o.ends {
		seg := o.rows[lo:hi]
		lo = hi
		switch q & 3 {
		case 0:
			for _, i := range seg {
				z[i] = r[i]
			}
		case 1:
			for _, i := range seg {
				p := rowPtr[i]
				s := r[i]
				s -= val[p] * z[col[p]]
				z[i] = s
			}
		case 2:
			for _, i := range seg {
				p := rowPtr[i]
				s := r[i]
				s -= val[p] * z[col[p]]
				s -= val[p+1] * z[col[p+1]]
				z[i] = s
			}
		default:
			for _, i := range seg {
				p, d := rowPtr[i], diag[i]
				cols := col[p:d]
				vals := val[p:d][:len(cols)]
				s := r[i]
				for k, c := range cols {
					s -= vals[k] * z[c]
				}
				z[i] = s
			}
		}
	}
	// U x = y
	o = &sched.upper
	lo = 0
	for q, hi := range o.ends {
		seg := o.rows[lo:hi]
		lo = hi
		switch q & 3 {
		case 0:
			for _, i := range seg {
				z[i] = z[i] / val[diag[i]]
			}
		case 1:
			for _, i := range seg {
				d := diag[i]
				s := z[i]
				s -= val[d+1] * z[col[d+1]]
				z[i] = s / val[d]
			}
		case 2:
			for _, i := range seg {
				d := diag[i]
				s := z[i]
				s -= val[d+1] * z[col[d+1]]
				s -= val[d+2] * z[col[d+2]]
				z[i] = s / val[d]
			}
		default:
			for _, i := range seg {
				d, hi := diag[i], rowPtr[i+1]
				cols := col[d+1 : hi]
				vals := val[d+1 : hi][:len(cols)]
				s := z[i]
				for k, c := range cols {
					s -= vals[k] * z[c]
				}
				z[i] = s / val[d]
			}
		}
	}
}
