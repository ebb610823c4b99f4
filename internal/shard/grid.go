// Package shard runs one routing problem across a spatially-decomposed
// mesh: the n x n network is cut into a P x Q grid of rectangles
// (mesh.Subgrid), each stepped by its own goroutine against the mesh's one
// shared table, with a halo-exchange phase moving boundary-crossing packets
// between neighboring shards at every step barrier.
//
// Every sharded step goes through a Node: Route, then Apply. The in-process
// Engine runs one Node per shard, each on its own goroutine, and hands the
// halo buckets over in memory; a dshard worker process hosts a range of
// shards in one Node and sends them over a wire. A run's global state —
// time, counters, livelock record, arrived packets and the manifest built
// from them — is a Ledger, which the Engine and dshard's Coordinator both
// embed.
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
	"hotpotato/internal/sim"
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

// Partition is the node→shard ownership map of a PxQ decomposition over a
// mesh: the side is split into P column bands and Q row bands of near-equal
// width (band b spans [b*side/P, (b+1)*side/P)), and shard (col, row) has
// index row*P + col. Every Node partitions with it, and the engines use it
// to split packet populations, fold state hashes and re-partition
// checkpoint parts. FoldHash keeps scratch in it, so a Partition is not safe
// for concurrent use.
type Partition struct {
	grid Grid
	side int
	// colOfX[x] and rowOfY[y] are the owning band of each coordinate.
	colOfX []int32
	rowOfY []int32
	cur    []int // FoldHash's per-shard cursors
}

// NewPartition computes the partition of m under grid g. The mesh must be
// 2-dimensional and the grid must fit its side.
func NewPartition(m *mesh.Mesh, g Grid) (*Partition, error) {
	g = g.norm()
	if m.Dim() != 2 {
		return nil, fmt.Errorf("shard: sharded execution needs a 2-dimensional mesh, have dim %d", m.Dim())
	}
	side := m.Side()
	if g.P < 1 || g.Q < 1 || g.P > side || g.Q > side {
		return nil, fmt.Errorf("shard: grid %s does not fit a side-%d mesh (need 1 <= P, Q <= %d)", g, side, side)
	}
	pt := &Partition{
		grid:   g,
		side:   side,
		colOfX: make([]int32, side),
		rowOfY: make([]int32, side),
		cur:    make([]int, g.Count()),
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

// Grid returns the decomposition.
func (p *Partition) Grid() Grid { return p.grid }

// Count returns the number of shards, P*Q.
func (p *Partition) Count() int { return p.grid.Count() }

// Owner returns the index of the shard owning the global node.
func (p *Partition) Owner(id mesh.NodeID) int { return p.owner(id) }

// FoldHash folds every shard's configuration-hash words into the run's state
// hash, bit-identical to sim.Engine.StateHash of the same configuration.
// words[i] holds shard i's (idWord, posWord) pairs over its ascending nodes,
// as Node.HashWords lists them. The fold visits the global node order: shard
// rows ascending, the mesh rows of a band ascending, and within a mesh row
// the shard columns left to right.
func (p *Partition) FoldHash(words [][]uint64) uint64 {
	h := sim.ConfigHashSeed
	g, side := p.grid, p.side
	clear(p.cur)
	for r := 0; r < g.Q; r++ {
		_, y0, _, bh := p.bounds(0, r)
		for y := y0; y < y0+bh; y++ {
			for si := r * g.P; si < (r+1)*g.P; si++ {
				w, i := words[si], p.cur[si]
				for ; i+1 < len(w) && int(w[i+1]>>32)/side == y; i += 2 {
					h = sim.ConfigHashFold(h, w[i], w[i+1])
				}
				p.cur[si] = i
			}
		}
	}
	return h
}

// Repartition splits a checkpoint's live packets among p's shards by owner,
// keeping part order, then packet order: every node keeps its queue order,
// so a resume is bit-identical whatever grid wrote the checkpoint and
// whatever grid reads it. A checkpoint whose parts already are p's shard
// populations (every rollback, and a resume on the writer's grid) is handed
// on as it is.
func (p *Partition) Repartition(ck *Checkpoint) [][]sim.PacketState {
	parts := make([][]sim.PacketState, p.Count())
	aligned := len(ck.Parts) == len(parts)
	for i := 0; aligned && i < len(ck.Parts); i++ {
		aligned = ck.Parts[i].Index == i
		for j := 0; aligned && j < len(ck.Parts[i].Packets); j++ {
			aligned = p.owner(ck.Parts[i].Packets[j].Node) == i
		}
		parts[i] = ck.Parts[i].Packets
	}
	if aligned {
		return parts
	}
	clear(parts)
	for i := range ck.Parts {
		for _, ps := range ck.Parts[i].Packets {
			owner := p.owner(ps.Node)
			parts[owner] = append(parts[owner], ps)
		}
	}
	return parts
}

// bounds returns the rectangle of shard (col, row).
func (pt *Partition) bounds(col, row int) (x0, y0, w, h int) {
	x0 = col * pt.side / pt.grid.P
	x1 := (col + 1) * pt.side / pt.grid.P
	y0 = row * pt.side / pt.grid.Q
	y1 := (row + 1) * pt.side / pt.grid.Q
	return x0, y0, x1 - x0, y1 - y0
}

// owner returns the index of the shard owning the global node.
func (pt *Partition) owner(id mesh.NodeID) int {
	x := int(id) % pt.side
	y := int(id) / pt.side
	return int(pt.rowOfY[y])*pt.grid.P + int(pt.colOfX[x])
}
