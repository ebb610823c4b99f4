// Package shard runs one routing problem across a spatially-decomposed
// mesh: the n x n network is cut into a P x Q grid of rectangles
// (mesh.Subgrid), each stepped by its own goroutine against the mesh's one
// shared table, with a halo-exchange phase moving boundary-crossing packets
// between neighboring shards at every step barrier.
//
// Determinism is the package's headline contract: for the same seed, a
// sharded run produces the exact same step-by-step configurations — and
// therefore a bit-identical livelock state hash — as the equivalent
// single-shard run, for every shard geometry. Three mechanisms deliver
// this, spelled out in DESIGN.md §10:
//
//   - Every shard routes against the same mesh.Tables, whose node ids,
//     good directions and distances are global, so a node's routing inputs
//     are independent of which shard owns it.
//   - Tie-break randomness is derived per (seed, step, global node) with
//     sim.NodeSeed — the engine's own parallel-path derivation — so the
//     stream a node draws from is partition-independent.
//   - Halo-transfer application is canonically ordered: each shard merges
//     its internal moves with its neighbors' incoming moves by ascending
//     global source node, which reproduces exactly the single engine's
//     global move-application order restricted to the shard (per-node
//     queue order is routing-relevant state, so this ordering is what
//     makes the configurations — not just the aggregates — identical).
package shard

import (
	"fmt"
	"strconv"
	"strings"

	"hotpotato/internal/mesh"
)

// Grid is the shard decomposition: P columns along the x axis by Q rows
// along the y axis, P*Q shards total. The zero value means 1x1 (a single
// shard spanning the whole mesh).
type Grid struct {
	P, Q int
}

// ParseGrid parses a "PxQ" specification, e.g. "4x2" for four shard columns
// by two shard rows.
func ParseGrid(s string) (Grid, error) {
	p, q, ok := strings.Cut(strings.ToLower(strings.TrimSpace(s)), "x")
	if !ok {
		return Grid{}, fmt.Errorf("shard: grid %q is not of the form PxQ", s)
	}
	pv, err1 := strconv.Atoi(p)
	qv, err2 := strconv.Atoi(q)
	if err1 != nil || err2 != nil || pv < 1 || qv < 1 {
		return Grid{}, fmt.Errorf("shard: grid %q is not of the form PxQ with P, Q >= 1", s)
	}
	return Grid{P: pv, Q: qv}, nil
}

// norm returns the grid with the zero value normalized to 1x1.
func (g Grid) norm() Grid {
	if g.P == 0 && g.Q == 0 {
		return Grid{1, 1}
	}
	return g
}

// Count returns the number of shards, P*Q.
func (g Grid) Count() int { g = g.norm(); return g.P * g.Q }

// String renders the grid as "PxQ".
func (g Grid) String() string { g = g.norm(); return fmt.Sprintf("%dx%d", g.P, g.Q) }

// partition maps global nodes to owning shards: the side is split into P
// column bands and Q row bands of near-equal width (band b spans
// [b*side/P, (b+1)*side/P)), and shard (col, row) has index row*P + col.
type partition struct {
	grid Grid
	side int
	// colOfX[x] and rowOfY[y] are the owning band of each coordinate.
	colOfX []int32
	rowOfY []int32
}

func newPartition(m *mesh.Mesh, g Grid) (*partition, error) {
	g = g.norm()
	if m.Dim() != 2 {
		return nil, fmt.Errorf("shard: sharded execution needs a 2-dimensional mesh, have dim %d", m.Dim())
	}
	side := m.Side()
	if g.P < 1 || g.Q < 1 || g.P > side || g.Q > side {
		return nil, fmt.Errorf("shard: grid %s does not fit a side-%d mesh (need 1 <= P, Q <= %d)", g, side, side)
	}
	pt := &partition{
		grid:   g,
		side:   side,
		colOfX: make([]int32, side),
		rowOfY: make([]int32, side),
	}
	for c := 0; c < g.P; c++ {
		for x := c * side / g.P; x < (c+1)*side/g.P; x++ {
			pt.colOfX[x] = int32(c)
		}
	}
	for r := 0; r < g.Q; r++ {
		for y := r * side / g.Q; y < (r+1)*side/g.Q; y++ {
			pt.rowOfY[y] = int32(r)
		}
	}
	return pt, nil
}

// bounds returns the rectangle of shard (col, row).
func (pt *partition) bounds(col, row int) (x0, y0, w, h int) {
	x0 = col * pt.side / pt.grid.P
	x1 := (col + 1) * pt.side / pt.grid.P
	y0 = row * pt.side / pt.grid.Q
	y1 := (row + 1) * pt.side / pt.grid.Q
	return x0, y0, x1 - x0, y1 - y0
}

// owner returns the index of the shard owning the global node.
func (pt *partition) owner(id mesh.NodeID) int {
	x := int(id) % pt.side
	y := int(id) / pt.side
	return int(pt.rowOfY[y])*pt.grid.P + int(pt.colOfX[x])
}
