package mesh

import "slices"

// Tables is the precomputed flat-array view of a Mesh: the same topology
// with every hot primitive — Neighbor, HasArc, Degree, GoodDirs, IsGoodDir,
// Dist, coordinate access — turned into array lookups and subtractions
// instead of div/mod coordinate arithmetic. It implements Topology and is
// the one connectivity implementation every engine routes against: the
// single engine, every shard and every distributed worker read the mesh's
// shared table, and an Overlay lowers its failure set into a private copy.
//
// The shared table (*Mesh).Tables() returns is never mutated and is safe for
// concurrent use; it is built once per mesh and cached, at O(size * dirs)
// time and memory (a few words per node). Only an Overlay writes to a table,
// and only to the private copy it owns.
type Tables struct {
	base     *Mesh
	dim      int
	side     int32
	wrap     bool
	dirCount int

	// neighbor[int(from)*dirCount+int(dir)] is the node reached along dir,
	// or -1 when the arc leads off the mesh or (on an Overlay's copy) is
	// masked by the failure set.
	neighbor []NodeID
	// degree[id] is the number of non-negative entries in the node's
	// neighbor row.
	degree []int8
	// coord[int(id)*dim+axis] is the cached coordinate of the node.
	coord []int32
	// axisGood[delta+side] is the set of good directions along one axis for
	// a packet whose destination lies delta = dst−from coordinates away on
	// that axis: goodPlus, goodMinus, both (a torus tie) or neither.
	axisGood []uint8
	// dead counts the base arcs currently masked out of neighbor. It is 0 on
	// the shared table for good; the good-direction queries consult the
	// neighbor row only when it is non-zero.
	dead int
}

// Tables returns the flat-array view of the mesh, building it on first use.
// The result is cached on the mesh and shared by all callers.
func (m *Mesh) Tables() *Tables {
	m.tablesOnce.Do(func() { m.tables = buildTables(m) })
	return m.tables
}

// Entries of Tables.axisGood: bit 0 is the axis's "+" direction, bit 1 its
// "−" direction, matching Dir's low bit.
const (
	goodPlus  = 1
	goodMinus = 2
)

func buildTables(m *Mesh) *Tables {
	t := &Tables{
		base:     m,
		dim:      m.dim,
		side:     int32(m.side),
		wrap:     m.wrap,
		dirCount: m.DirCount(),
		neighbor: make([]NodeID, m.size*m.DirCount()),
		degree:   make([]int8, m.size),
		coord:    make([]int32, m.size*m.dim),
		axisGood: make([]uint8, 2*m.side+1),
	}
	for delta := 1 - m.side; delta < m.side; delta++ {
		switch fwd := (delta + m.side) % m.side; { // steps in "+" on the ring
		case delta == 0:
		case !m.wrap && delta > 0, m.wrap && 2*fwd < m.side:
			t.axisGood[delta+m.side] = goodPlus
		case !m.wrap, 2*fwd > m.side:
			t.axisGood[delta+m.side] = goodMinus
		default: // exactly opposite on the ring: both ways are shortest
			t.axisGood[delta+m.side] = goodPlus | goodMinus
		}
	}
	// One odometer walk over the rows along axis 0: c holds the row's
	// coordinates on the other axes, and a neighbour is id ± stride, wrapped
	// round the ring on a torus or -1 off the edge of a mesh. What the other
	// axes contribute (neighbour offsets, degree) is fixed for a whole row;
	// no division anywhere.
	var c [MaxDim]int32
	var off [2 * MaxDim]int // per direction of axes ≥ 1: the neighbour's id offset
	var has [2 * MaxDim]bool
	last := t.side - 1
	for row := 0; row < m.size; row += m.side {
		rowDeg := int8(0)
		for a := 1; a < t.dim; a++ {
			s := m.strides[a]
			off[2*a], has[2*a] = s, c[a] < last || t.wrap
			if c[a] == last {
				off[2*a] = -int(last) * s
			}
			off[2*a+1], has[2*a+1] = -s, c[a] > 0 || t.wrap
			if c[a] == 0 {
				off[2*a+1] = int(last) * s
			}
			if has[2*a] {
				rowDeg++
			}
			if has[2*a+1] {
				rowDeg++
			}
		}
		for x := int32(0); x <= last; x++ {
			id := row + int(x)
			cd := t.coord[id*t.dim : (id+1)*t.dim]
			cd[0] = x
			for a := 1; a < t.dim; a++ {
				cd[a] = c[a]
			}
			nb := t.neighbor[id*t.dirCount : (id+1)*t.dirCount]
			nb[0], nb[1] = NodeID(id+1), NodeID(id-1)
			deg := rowDeg + 2
			switch {
			case x < last:
			case t.wrap:
				nb[0] = NodeID(row)
			default:
				nb[0], deg = -1, deg-1
			}
			switch {
			case x > 0:
			case t.wrap:
				nb[1] = NodeID(row + int(last))
			default:
				nb[1], deg = -1, deg-1
			}
			for d := 2; d < t.dirCount; d++ {
				nb[d] = -1
				if has[d] {
					nb[d] = NodeID(id + off[d])
				}
			}
			t.degree[id] = deg
		}
		for a := 1; a < t.dim; a++ {
			if c[a]++; c[a] <= last {
				break
			}
			c[a] = 0
		}
	}
	return t
}

// private returns a copy whose neighbor and degree rows the caller may
// patch; the coordinate cache is never written and stays shared.
func (t *Tables) private() *Tables {
	c := *t
	c.neighbor = slices.Clone(t.neighbor)
	c.degree = slices.Clone(t.degree)
	return &c
}

// Base returns the mesh the tables were built from.
func (t *Tables) Base() *Mesh { return t.base }

// Geometry identical on every view: delegated to the base mesh where no
// table helps, served from the coordinate cache where one does.

func (t *Tables) Dim() int                { return t.dim }
func (t *Tables) Side() int               { return int(t.side) }
func (t *Tables) Size() int               { return t.base.size }
func (t *Tables) Wrap() bool              { return t.wrap }
func (t *Tables) DirCount() int           { return t.dirCount }
func (t *Tables) Diameter() int           { return t.base.Diameter() }
func (t *Tables) Contains(id NodeID) bool { return t.base.Contains(id) }
func (t *Tables) CheckID(id NodeID) error { return t.base.CheckID(id) }
func (t *Tables) ID(coord []int) NodeID   { return t.base.ID(coord) }
func (t *Tables) ParityClass(id NodeID) int {
	class := 0
	for a := 0; a < t.dim; a++ {
		class |= int(t.coord[int(id)*t.dim+a]&1) << a
	}
	return class
}
func (t *Tables) SnakeRank(id NodeID) int { return t.base.SnakeRank(id) }
func (t *Tables) String() string          { return t.base.String() }

// Coord writes the cached coordinates of id into buf and returns buf[:dim].
func (t *Tables) Coord(id NodeID, buf []int) []int {
	if buf == nil {
		buf = make([]int, t.dim)
	}
	c := t.coord[int(id)*t.dim : int(id)*t.dim+t.dim]
	for a, v := range c {
		buf[a] = int(v)
	}
	return buf[:t.dim]
}

// CoordAxis returns the cached coordinate of id along the given axis.
func (t *Tables) CoordAxis(id NodeID, axis int) int {
	return int(t.coord[int(id)*t.dim+axis])
}

// Dist returns the (geometric) distance between two nodes from the
// coordinate cache: L1 on the mesh, per-axis wraparound minimum on the
// torus.
func (t *Tables) Dist(a, b NodeID) int {
	ca := t.coord[int(a)*t.dim:]
	cb := t.coord[int(b)*t.dim:]
	sum := int32(0)
	for ax := 0; ax < t.dim; ax++ {
		diff := ca[ax] - cb[ax]
		if diff < 0 {
			diff = -diff
		}
		if t.wrap && t.side-diff < diff {
			diff = t.side - diff
		}
		sum += diff
	}
	return int(sum)
}

// HasArc reports whether the arc leaving `from` along dir exists (and is not
// masked).
func (t *Tables) HasArc(from NodeID, dir Dir) bool {
	return t.neighbor[int(from)*t.dirCount+int(dir)] >= 0
}

// Neighbor returns the node reached from `from` along dir; false if the arc
// leads off the mesh or is masked.
func (t *Tables) Neighbor(from NodeID, dir Dir) (NodeID, bool) {
	to := t.neighbor[int(from)*t.dirCount+int(dir)]
	if to < 0 {
		return from, false
	}
	return to, true
}

// TwoNeighbor returns the 2-neighbor of `from` in direction dir
// (Definition 4) via two table hops.
func (t *Tables) TwoNeighbor(from NodeID, dir Dir) (NodeID, bool) {
	mid := t.neighbor[int(from)*t.dirCount+int(dir)]
	if mid < 0 {
		return from, false
	}
	to := t.neighbor[int(mid)*t.dirCount+int(dir)]
	if to < 0 {
		return from, false
	}
	return to, true
}

// Degree returns the out-degree of the node: its arcs that exist and are not
// masked (0 for a failed node).
func (t *Tables) Degree(id NodeID) int { return int(t.degree[id]) }

// GoodDirs appends the good directions (Definition 5) for a packet at
// `from` destined to dst, in the same order Mesh.GoodDirs produces them:
// by axis, "+" before "-" on a torus tie.
func (t *Tables) GoodDirs(from, dst NodeID, buf []Dir) []Dir {
	var tmp [2 * MaxDim]Dir
	n := t.GoodDirsInto(from, dst, &tmp)
	return append(buf, tmp[:n]...)
}

// GoodDirsInto writes the good directions for a packet at `from` destined
// to dst into buf (which always has room: at most 2 per axis) and returns
// the count, in the same order as GoodDirs. The fixed-array form avoids the
// slice-append bookkeeping on the per-packet hot path. On a table with
// masked arcs only the good directions whose arc survives are reported: a
// packet all of whose geometrically good arcs are down has no good
// direction, so every surviving arc deflects it — exactly how a bufferless
// router degrades.
//
// Each axis is one axisGood lookup and an unconditional two-slot write that
// the count then keeps or drops, so the emit has no data-dependent branch;
// the write can land one slot past the final count, which buf's 2·MaxDim
// slots always hold (every axis before the last adds at most two).
func (t *Tables) GoodDirsInto(from, dst NodeID, buf *[2 * MaxDim]Dir) int {
	cf := t.coord[int(from)*t.dim:]
	cd := t.coord[int(dst)*t.dim:]
	n := 0
	for a := 0; a < t.dim; a++ {
		g := t.axisGood[int(cd[a]-cf[a]+t.side)]
		buf[n] = Dir(2*a) | Dir(^g&1) // "+" unless "−" alone is good
		buf[n+1] = Dir(2*a + 1)       // the tie's second direction
		n += int(g&1 + g>>1)
	}
	if t.dead == 0 {
		return n
	}
	row := t.neighbor[int(from)*t.dirCount:]
	w := 0
	for _, d := range buf[:n] {
		if row[d] >= 0 {
			buf[w] = d
			w++
		}
	}
	return w
}

// GoodDirCount returns the number of good directions for a packet at `from`
// destined to dst.
func (t *Tables) GoodDirCount(from, dst NodeID) int {
	var buf [2 * MaxDim]Dir
	return t.GoodDirsInto(from, dst, &buf)
}

// IsGoodDir reports whether dir is a good direction for a packet at `from`
// destined to dst (and, on a table with masked arcs, its arc survives).
func (t *Tables) IsGoodDir(from, dst NodeID, dir Dir) bool {
	if t.dead != 0 && t.neighbor[int(from)*t.dirCount+int(dir)] < 0 {
		return false
	}
	a := int(dir) >> 1
	g := t.axisGood[int(t.coord[int(dst)*t.dim+a]-t.coord[int(from)*t.dim+a]+t.side)]
	return g>>(dir&1)&1 != 0
}
