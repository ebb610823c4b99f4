package mesh

import "fmt"

// Subgrid is one rectangular slice of a 2-dimensional mesh or torus: the
// spatial-decomposition unit of the sharded engine. It owns the nodes with x
// in [X0, X0+W) and y in [Y0, Y0+H) and is nothing but that rectangle — the
// ownership test and the conversion between global node ids and row-major
// rectangle-local indices, both division-free: a global id's coordinates are
// read from the base mesh's shared Tables, and a local index's global id from
// an owned-size table. It holds no connectivity of its own: every shard
// routes against the base mesh's shared Tables, whose neighbor entries are
// global ids, so a boundary node's neighbor simply fails Owns (it lies in a
// halo cell another shard owns, wrapped to the far side of the mesh on a
// torus) and an arc that leaves the network is absent exactly as on the base
// topology.
//
// Subgrids are immutable once built and safe for concurrent use.
type Subgrid struct {
	base   *Mesh
	coord  []int32  // the base mesh's Tables.coord: x at 2*id, y at 2*id+1
	global []NodeID // global id of each owned node, in row-major order
	// Owned rectangle, in global coordinates.
	x0, y0, w, h int
}

// Subgrid returns the rectangle with origin (x0, y0) and extent w x h on a
// 2-dimensional mesh or torus. The rectangle must lie entirely inside the
// mesh; degenerate 1 x k and k x 1 strips are valid.
func (m *Mesh) Subgrid(x0, y0, w, h int) (*Subgrid, error) {
	if m.dim != 2 {
		return nil, fmt.Errorf("mesh: subgrid needs a 2-dimensional mesh, have dim %d", m.dim)
	}
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("mesh: subgrid extent %dx%d out of range (need >= 1x1)", w, h)
	}
	if x0 < 0 || y0 < 0 || x0+w > m.side || y0+h > m.side {
		return nil, fmt.Errorf("mesh: subgrid [%d,%d)x[%d,%d) leaves the %dx%d mesh",
			x0, x0+w, y0, y0+h, m.side, m.side)
	}
	g := &Subgrid{base: m, coord: m.Tables().coord, global: make([]NodeID, w*h), x0: x0, y0: y0, w: w, h: h}
	for l := range g.global {
		g.global[l] = NodeID((y0+l/w)*m.side + x0 + l%w)
	}
	return g, nil
}

// Bounds returns the owned rectangle: origin (x0, y0) and extent w x h in
// global coordinates.
func (g *Subgrid) Bounds() (x0, y0, w, h int) { return g.x0, g.y0, g.w, g.h }

// Len returns the number of owned nodes, w*h.
func (g *Subgrid) Len() int { return g.w * g.h }

// Owns reports whether the global node id, a node of the base mesh, lies
// inside the owned rectangle.
func (g *Subgrid) Owns(id NodeID) bool {
	c := g.coord[2*int(id) : 2*int(id)+2]
	return uint(int(c[0])-g.x0) < uint(g.w) && uint(int(c[1])-g.y0) < uint(g.h)
}

// LocalID returns the rectangle-local index of an owned global node:
// row-major within the rectangle, so local order and global id order agree
// on the owned set. The caller must ensure Owns(id).
func (g *Subgrid) LocalID(id NodeID) int {
	c := g.coord[2*int(id) : 2*int(id)+2]
	return (int(c[1])-g.y0)*g.w + int(c[0]) - g.x0
}

// GlobalID returns the global node id of a rectangle-local index.
func (g *Subgrid) GlobalID(local int) NodeID { return g.global[local] }

// DegreeLocal returns the out-degree of an owned local index, read from the
// base mesh's shared table.
func (g *Subgrid) DegreeLocal(local int) int {
	return g.base.Tables().Degree(g.GlobalID(local))
}

// String renders the rectangle as e.g. "mesh(d=2, n=64)[8,16)x[0,8)".
func (g *Subgrid) String() string {
	return fmt.Sprintf("%s[%d,%d)x[%d,%d)", g.base, g.x0, g.x0+g.w, g.y0, g.y0+g.h)
}
