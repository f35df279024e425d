package distmat

// copyList is a precomputed copy plan of one SpMV payload: element i of the
// plan copies source position src to destination position dst. The SpMV's
// send gathers and receive scatters are copy lists, so a whole block sent or
// received in order (Poisson's and elasticity's halos) is a few copies, not
// one indexed load per element, while the short runs of an irregular halo
// (a few elements each on a circuit graph) keep a branch-free element loop:
// a copy call, or a branch on the run length, per run of one or two costs
// more than the loop.
type copyList struct {
	// runs are the maximal runs of at least minRun consecutive positions on
	// both sides, one copy each.
	runs []span
	// src[i] -> dst[i] are the elements of the shorter runs.
	src, dst []int
}

// span is n consecutive elements from position src to position dst.
type span struct{ src, dst, n int }

// minRun is the shortest run copyList moves as one copy.
const minRun = 16

// newCopyList builds the copy plan of n elements, element i copying at(i),
// every array allocated at its final size.
func newCopyList(n int, at func(i int) (src, dst int)) copyList {
	var l copyList
	nRuns, nShort := 0, 0
	eachRun(n, at, func(src, dst, k int) {
		if k >= minRun {
			nRuns++
		} else {
			nShort += k
		}
	})
	if nRuns > 0 {
		l.runs = make([]span, 0, nRuns)
	}
	if nShort > 0 {
		l.src, l.dst = make([]int, 0, nShort), make([]int, 0, nShort)
	}
	eachRun(n, at, func(src, dst, k int) {
		if k >= minRun {
			l.runs = append(l.runs, span{src, dst, k})
			return
		}
		for i := range k {
			l.src, l.dst = append(l.src, src+i), append(l.dst, dst+i)
		}
	})
	return l
}

// eachRun calls fn for every maximal run of elements consecutive on both
// sides, in element order.
func eachRun(n int, at func(i int) (src, dst int), fn func(src, dst, k int)) {
	for i := 0; i < n; {
		s, d := at(i)
		k := 1
		for i+k < n {
			if s2, d2 := at(i + k); s2 != s+k || d2 != d+k {
				break
			}
			k++
		}
		fn(s, d, k)
		i += k
	}
}

// copy moves every element of the plan from src to dst, each element w
// floats wide (w consecutive values per index: the k columns of a MatMat
// payload). Pure copies: the result is the element-by-element gather's.
func (l *copyList) copy(dst, src []float64, w int) {
	for _, r := range l.runs {
		copy(dst[r.dst*w:(r.dst+r.n)*w], src[r.src*w:(r.src+r.n)*w])
	}
	from := l.src[:len(l.dst)]
	if w == 1 {
		for i, d := range l.dst {
			dst[d] = src[from[i]]
		}
		return
	}
	for i, d := range l.dst {
		s := from[i]
		copy(dst[d*w:d*w+w], src[s*w:s*w+w])
	}
}
