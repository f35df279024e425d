package cluster

import (
	"fmt"
	"math"
)

// Internal tag space: user tags must stay below tagInternalBase, where the
// collectives' tags start.
const tagInternalBase = 1 << 24

const (
	opReduce = iota
	opBcast
	opGather
	opBarrierUp
	opBarrierDown
)

// Op is a reduction operator for Allreduce/Reduce.
type Op int

const (
	// OpSum adds element-wise.
	OpSum Op = iota
	// OpMax takes the element-wise maximum.
	OpMax
	// OpMin takes the element-wise minimum.
	OpMin
)

func (o Op) combine(acc, in []float64) {
	switch o {
	case OpSum:
		for i := range acc {
			acc[i] += in[i]
		}
	case OpMax:
		for i := range acc {
			acc[i] = math.Max(acc[i], in[i])
		}
	case OpMin:
		for i := range acc {
			acc[i] = math.Min(acc[i], in[i])
		}
	}
}

// Group is the collective-communication context over every rank of a
// runtime. Every rank must call the same sequence of collective operations;
// their messages travel under one internal tag base above every user tag.
type Group struct {
	c *Comm
}

// World returns the collective context over all ranks.
func (c *Comm) World() *Group { return &Group{c: c} }

// Size returns the number of ranks.
func (g *Group) Size() int { return g.c.rt.size }

// Reduce combines vals element-wise across the ranks with a fixed binomial
// tree; rank 0 receives the result (other ranks receive nil). The
// combination order is deterministic, so results are bit-identical across
// repeated runs. The returned slice comes from the transport's buffer
// recycler: the caller owns it and may hand it back with Recycle.
func (g *Group) Reduce(op Op, vals []float64) ([]float64, error) {
	n, me := g.Size(), g.c.rank
	acc := g.c.GetFloats(len(vals))
	copy(acc, vals)
	tag := tagInternalBase + opReduce
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			// The accumulator's ownership transfers to the parent.
			if err := g.c.SendOwned(CatCollective, me-mask, tag, acc, nil); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if me+mask < n {
			in, err := g.c.RecvFloats(me+mask, tag)
			if err != nil {
				return nil, err
			}
			if len(in) != len(acc) {
				return nil, fmt.Errorf("cluster: Reduce length mismatch (%d vs %d)", len(in), len(acc))
			}
			op.combine(acc, in)
			g.c.PutFloats(in)
		}
	}
	if me == 0 {
		return acc, nil
	}
	return nil, nil
}

// Bcast distributes rootVals (significant only at rank root) to every rank
// and returns the received copy.
func (g *Group) Bcast(root int, rootVals []float64) ([]float64, error) {
	n := g.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("cluster: Bcast root %d out of range", root)
	}
	rel := (g.c.rank - root + n) % n
	buf := rootVals
	tag := tagInternalBase + opBcast
	for mask := 1; mask < n; mask <<= 1 {
		if rel < mask {
			if rel+mask < n {
				if err := g.c.SendFloats(CatCollective, (rel+mask+root)%n, tag, buf); err != nil {
					return nil, err
				}
			}
		} else if rel < 2*mask {
			in, err := g.c.RecvFloats((rel-mask+root)%n, tag)
			if err != nil {
				return nil, err
			}
			buf = in
		}
	}
	if rel == 0 {
		// Root returns a copy so callers can mutate it freely (rootVals may
		// still be aliased by the caller).
		out := g.c.GetFloats(len(rootVals))
		copy(out, rootVals)
		return out, nil
	}
	return buf, nil
}

// Allreduce combines vals across the ranks and returns the combined result
// on every rank (reduce to rank 0 followed by broadcast). The
// returned slice comes from the transport's buffer recycler: the caller
// owns it exclusively and may hand it back with Recycle once read.
func (g *Group) Allreduce(op Op, vals []float64) ([]float64, error) {
	red, err := g.Reduce(op, vals)
	if err != nil {
		return nil, err
	}
	out, err := g.Bcast(0, red)
	if red != nil {
		// Only the root holds a reduction result; Bcast returned it to the
		// root as a fresh copy, so the accumulator can be recycled.
		g.c.PutFloats(red)
	}
	return out, err
}

// AllreduceScalar is Allreduce for a single value.
func (g *Group) AllreduceScalar(op Op, v float64) (float64, error) {
	out, err := g.Allreduce(op, []float64{v})
	if err != nil {
		return 0, err
	}
	s := out[0]
	g.c.PutFloats(out)
	return s, nil
}

// TreeSum combines per-rank partials, parts[p] being rank p's, in Reduce's
// binomial order: at round mask, rank p (a multiple of 2·mask) adds what
// rank p+mask accumulated over the earlier rounds. It is pure and sends
// nothing, and its result is bit for bit the OpSum Allreduce a runtime of
// len(parts) ranks delivers — so one goroutine holding every rank's partial
// forms the scalar the ranks would have formed together.
func TreeSum(parts []float64) float64 {
	if len(parts) == 0 {
		return 0
	}
	span := 1
	for span < len(parts) {
		span <<= 1
	}
	return treeSum(parts, 0, span)
}

// treeSum is what rank p holds after the rounds below span (a power of
// two): the combined partials of ranks [p, p+span).
func treeSum(parts []float64, p, span int) float64 {
	if span == 1 {
		return parts[p]
	}
	h := span / 2
	acc := treeSum(parts, p, h)
	if p+h < len(parts) {
		acc += treeSum(parts, p+h, h)
	}
	return acc
}

// Recycle returns a slice obtained from the collectives (Reduce,
// Bcast, Allreduce, Gatherv) to the transport's buffer recycler. Only
// the exclusive owner may call it; a no-op on transports without one.
func (g *Group) Recycle(buf []float64) { g.c.PutFloats(buf) }

// Barrier blocks until every rank has entered it.
func (g *Group) Barrier() error {
	// An empty reduce + broadcast synchronises exactly like a barrier.
	n, me := g.Size(), g.c.rank
	up := tagInternalBase + opBarrierUp
	down := tagInternalBase + opBarrierDown
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			if err := g.c.SendFloats(CatCollective, me-mask, up, nil); err != nil {
				return err
			}
			break
		}
		if me+mask < n {
			if _, err := g.c.Recv(me+mask, up); err != nil {
				return err
			}
		}
	}
	for mask := 1; mask < n; mask <<= 1 {
		if me < mask {
			if me+mask < n {
				if err := g.c.SendFloats(CatCollective, me+mask, down, nil); err != nil {
					return err
				}
			}
		} else if me < 2*mask {
			if _, err := g.c.Recv(me-mask, down); err != nil {
				return err
			}
		}
	}
	return nil
}

// Gatherv gathers each rank's variable-length contribution at rank 0, which
// returns them in rank order (parts[0] is its own vals); every other rank
// sends its part in one message and returns nil. Gathering is linear; rank
// counts in this repository are small enough that this is not a
// bottleneck. The received parts come from the transport's buffer
// recycler: the caller owns them and may hand them back with Recycle.
func (g *Group) Gatherv(vals []float64) (parts [][]float64, err error) {
	tag := tagInternalBase + opGather
	if g.c.rank != 0 {
		return nil, g.c.SendFloats(CatCollective, 0, tag, vals)
	}
	parts = make([][]float64, g.Size())
	parts[0] = vals
	for p := 1; p < len(parts); p++ {
		if parts[p], err = g.c.RecvFloats(p, tag); err != nil {
			return nil, err
		}
	}
	return parts, nil
}
