package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Internal tag space: user tags must stay below tagInternalBase.
const tagInternalBase = 1 << 24

const (
	opReduce = iota
	opBcast
	opGather
	opBarrierUp
	opBarrierDown
	numOps
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

// Group is a collective-communication context over a subset of ranks: the
// full communicator, or a subgroup of it.
//
// All members must call the same sequence of collective operations. The
// context integer separates the tag spaces of different concurrently-used
// groups.
type Group struct {
	c       *Comm
	members []int
	pos     int // my position within members
	tagBase int
}

// Group creates a collective context over the given member ranks, which must
// include the calling rank. The same (members, context) pair must be used by
// every member.
func (c *Comm) Group(members []int, context int) (*Group, error) {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	pos := -1
	for i, r := range ms {
		if i > 0 && ms[i-1] == r {
			return nil, fmt.Errorf("cluster: duplicate rank %d in group", r)
		}
		if r < 0 || r >= c.rt.size {
			return nil, fmt.Errorf("cluster: invalid rank %d in group", r)
		}
		if r == c.rank {
			pos = i
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("cluster: rank %d not a member of its own group", c.rank)
	}
	return &Group{
		c:       c,
		members: ms,
		pos:     pos,
		tagBase: tagInternalBase + context*numOps,
	}, nil
}

// World returns the collective context over all ranks.
func (c *Comm) World() *Group {
	g, err := c.Group(allRanks(c.rt.size), 0)
	if err != nil {
		panic(err) // cannot happen
	}
	return g
}

func allRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// Members returns the sorted member ranks of the group.
func (g *Group) Members() []int { return append([]int(nil), g.members...) }

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.members) }

// Pos returns the calling rank's position within the group.
func (g *Group) Pos() int { return g.pos }

// Reduce combines vals element-wise across the group with a fixed binomial
// tree; the member at position 0 receives the result (other members receive
// nil). The combination order is deterministic, so results are bit-identical
// across repeated runs. The returned slice comes from the transport's
// buffer recycler: the caller owns it and may hand it back with Recycle.
func (g *Group) Reduce(op Op, vals []float64) ([]float64, error) {
	n := len(g.members)
	acc := g.c.GetFloats(len(vals))
	copy(acc, vals)
	tag := g.tagBase + opReduce
	for mask := 1; mask < n; mask <<= 1 {
		if g.pos&mask != 0 {
			peer := g.members[g.pos-mask]
			// The accumulator's ownership transfers to the parent.
			if err := g.c.SendOwned(CatCollective, peer, tag, acc, nil); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if g.pos+mask < n {
			peer := g.members[g.pos+mask]
			in, err := g.c.RecvFloats(peer, tag)
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
	if g.pos == 0 {
		return acc, nil
	}
	return nil, nil
}

// Bcast distributes rootVals (significant only at position rootPos) to every
// member and returns the received copy.
func (g *Group) Bcast(rootPos int, rootVals []float64) ([]float64, error) {
	n := len(g.members)
	if rootPos < 0 || rootPos >= n {
		return nil, fmt.Errorf("cluster: Bcast root position %d out of range", rootPos)
	}
	rel := (g.pos - rootPos + n) % n
	buf := rootVals
	tag := g.tagBase + opBcast
	for mask := 1; mask < n; mask <<= 1 {
		if rel < mask {
			if rel+mask < n {
				peer := g.members[(rel+mask+rootPos)%n]
				if err := g.c.SendFloats(CatCollective, peer, tag, buf); err != nil {
					return nil, err
				}
			}
		} else if rel < 2*mask {
			peer := g.members[(rel-mask+rootPos)%n]
			in, err := g.c.RecvFloats(peer, tag)
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

// Allreduce combines vals across the group and returns the combined result
// on every member (reduce to position 0 followed by broadcast). The
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

// TreeSum combines per-member partials, parts[p] being the member at
// position p's, in Reduce's binomial order: at round mask, position p (a
// multiple of 2·mask) adds what position p+mask accumulated over the earlier
// rounds. It is pure and sends nothing, and its result is bit for bit the
// OpSum Allreduce a group of len(parts) members delivers — so one goroutine
// holding every member's partial forms the scalar the group would have
// formed.
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

// treeSum is what position p holds after the rounds below span (a power of
// two): the combined partials of positions [p, p+span).
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

// Recycle returns a slice obtained from this group's collectives (Reduce,
// Bcast, Allreduce, Gatherv) to the transport's buffer recycler. Only
// the exclusive owner may call it; a no-op on transports without one.
func (g *Group) Recycle(buf []float64) { g.c.PutFloats(buf) }

// Barrier blocks until every member has entered it.
func (g *Group) Barrier() error {
	// An empty reduce + broadcast synchronises exactly like a barrier.
	n := len(g.members)
	up := g.tagBase + opBarrierUp
	down := g.tagBase + opBarrierDown
	for mask := 1; mask < n; mask <<= 1 {
		if g.pos&mask != 0 {
			if err := g.c.SendFloats(CatCollective, g.members[g.pos-mask], up, nil); err != nil {
				return err
			}
			break
		}
		if g.pos+mask < n {
			if _, err := g.c.Recv(g.members[g.pos+mask], up); err != nil {
				return err
			}
		}
	}
	for mask := 1; mask < n; mask <<= 1 {
		if g.pos < mask {
			if g.pos+mask < n {
				if err := g.c.SendFloats(CatCollective, g.members[g.pos+mask], down, nil); err != nil {
					return err
				}
			}
		} else if g.pos < 2*mask {
			if _, err := g.c.Recv(g.members[g.pos-mask], down); err != nil {
				return err
			}
		}
	}
	return nil
}

// Gatherv gathers each member's variable-length contribution at position 0,
// which returns them in member order (parts[0] is its own vals); every other
// member sends its part in one message and returns nil. Gathering is linear;
// group sizes in this repository are small enough (<= ranks) that this is
// not a bottleneck. The received parts come from the transport's buffer
// recycler: the caller owns them and may hand them back with Recycle.
func (g *Group) Gatherv(vals []float64) (parts [][]float64, err error) {
	tag := g.tagBase + opGather
	if g.pos != 0 {
		return nil, g.c.SendFloats(CatCollective, g.members[0], tag, vals)
	}
	parts = make([][]float64, len(g.members))
	parts[0] = vals
	for p := 1; p < len(parts); p++ {
		if parts[p], err = g.c.RecvFloats(g.members[p], tag); err != nil {
			return nil, err
		}
	}
	return parts, nil
}
