package mesh

import (
	"math/bits"
	"slices"
)

// Tables is the precomputed flat-array view of a Mesh: the same topology
// with every hot primitive — Neighbor, HasArc, ArcMask, GoodMask, Dist,
// coordinate access — turned into array lookups, strides and subtractions
// instead of div/mod coordinate arithmetic. It implements Topology and is
// the one connectivity implementation every engine routes against: the
// single engine, every shard and every distributed worker read the mesh's
// shared table, and an Overlay lowers its failure set into a private copy.
//
// The shared table (*Mesh).Tables() returns is never mutated and is safe for
// concurrent use; it is built once per mesh and cached, at O(size * dim)
// time and memory on a mesh and O(size * dirs) on a torus (a few words per
// node). Only an Overlay writes to a table, and only to the private copy it
// owns.
type Tables struct {
	base     *Mesh
	dim      int
	side     int32
	wrap     bool
	dirCount int

	// neighbor[int(from)*dirCount+int(dir)] is the node reached along dir,
	// or -1 when the arc (on an Overlay's copy) is masked by the failure
	// set. Only a torus has the row: a mesh neighbour is the node plus the
	// direction's stride, step[dir], with no wraparound to look up.
	neighbor []NodeID
	step     [2 * MaxDim]NodeID
	// arcs[id] has bit d set iff the node's arc along d exists and is not
	// masked: its out-arcs as a mask, whose popcount is its degree.
	arcs []uint16
	// coord[int(id)*dim+axis] is the cached coordinate of the node.
	coord []int32
	// axisGood[delta+side] is the set of good directions along one axis for
	// a packet whose destination lies delta = dst−from coordinates away on
	// that axis: goodPlus, goodMinus, both (a torus tie) or neither.
	axisGood []uint16
	// The lane layout of a Disp: axis a is the laneMask-wide lane at bit
	// a<<laneLog. One formula serves both widths, so DispGood and Hop have
	// no branch on the layout and stay inlinable.
	laneLog  uint
	laneMask uint32
	// dead counts the base arcs currently masked out of arcs. It is 0 on
	// the shared table for good; DispGood consults the arc masks only when
	// it is non-zero.
	dead int
}

// Disp is a packet's displacement to its destination: per axis, the
// destination's coordinate minus the coordinate of the node holding the
// packet, in (−side, side). On a torus only its value modulo the side
// matters, and a hop that wraps round the ring keeps it in range by adding
// or subtracting the side. Each axis is stored biased by the side, so a lane
// holds a value in [1, 2·side−1] and never borrows from or carries into its
// neighbour. Its 16 bytes hold four 32-bit lanes on a mesh of at most four
// dimensions and eight 16-bit lanes on a wider one, two to a word:
// side^dim < 2^31, so a mesh of five or more dimensions has a side below
// 2^7, while a 1-dimensional mesh may be 2^20 nodes long. The table says
// which (Tables.lane).
//
// Tables.Disp computes it from the coordinate rows; a packet that carries
// it (sim.Packet) has a hop update it through Tables.Hop, and Tables.DispGood
// turns it into good directions without a coordinate read.
type Disp [4]uint32

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
		arcs:     make([]uint16, m.size),
		coord:    make([]int32, m.size*m.dim),
		axisGood: make([]uint16, 2*m.side+1),
	}
	if m.wrap {
		t.neighbor = make([]NodeID, m.size*m.DirCount())
	}
	t.laneLog, t.laneMask = 5, 0xffffffff
	if m.dim > len(Disp{}) {
		t.laneLog, t.laneMask = 4, 0xffff
	}
	for a := 0; a < m.dim; a++ {
		t.step[2*a], t.step[2*a+1] = NodeID(m.strides[a]), -NodeID(m.strides[a])
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
	// round the ring on a torus; off the edge of a mesh there is no arc.
	// What the other axes contribute (neighbour offsets, arcs) is fixed for
	// a whole row; no division anywhere.
	var c [MaxDim]int32
	var off [2 * MaxDim]int // per direction of axes ≥ 1: the neighbour's id offset
	var has [2 * MaxDim]bool
	last := t.side - 1
	for row := 0; row < m.size; row += m.side {
		rowArcs := uint16(0) // the arcs along axes ≥ 1, the same for the whole row
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
				rowArcs |= 1 << (2 * a)
			}
			if has[2*a+1] {
				rowArcs |= 1 << (2*a + 1)
			}
		}
		for x := int32(0); x <= last; x++ {
			id := row + int(x)
			cd := t.coord[id*t.dim : (id+1)*t.dim]
			cd[0] = x
			for a := 1; a < t.dim; a++ {
				cd[a] = c[a]
			}
			arcs := rowArcs | 3
			if !t.wrap {
				if x == last {
					arcs &^= 1
				}
				if x == 0 {
					arcs &^= 2
				}
				t.arcs[id] = arcs
				continue
			}
			t.arcs[id] = arcs
			nb := t.neighbor[id*t.dirCount : (id+1)*t.dirCount]
			nb[0], nb[1] = NodeID(id+1), NodeID(id-1)
			if x == last {
				nb[0] = NodeID(row)
			}
			if x == 0 {
				nb[1] = NodeID(row + int(last))
			}
			for d := 2; d < t.dirCount; d++ {
				nb[d] = NodeID(id + off[d])
			}
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

// private returns a copy whose neighbor (torus) and arc rows the caller may
// patch; the coordinate cache is never written and stays shared.
func (t *Tables) private() *Tables {
	c := *t
	c.neighbor = slices.Clone(t.neighbor)
	c.arcs = slices.Clone(t.arcs)
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
func (t *Tables) HasArc(from NodeID, dir Dir) bool { return t.arcs[from]>>uint(dir)&1 != 0 }

// Neighbor returns the node reached from `from` along dir; false if the arc
// leads off the mesh or is masked. On a mesh that is the arc bit and the
// axis stride; a torus reads its neighbour row alone, which holds the
// wraparound and reads -1 for a masked arc.
func (t *Tables) Neighbor(from NodeID, dir Dir) (NodeID, bool) {
	if t.wrap {
		if uint(dir) < uint(t.dirCount) {
			if to := t.neighbor[int(from)*t.dirCount+int(dir)]; to >= 0 {
				return to, true
			}
		}
		return from, false
	}
	if t.arcs[from]>>uint(dir)&1 == 0 {
		return from, false
	}
	return from + t.step[dir], true
}

// TwoNeighbor returns the 2-neighbor of `from` in direction dir
// (Definition 4) via two table hops.
func (t *Tables) TwoNeighbor(from NodeID, dir Dir) (NodeID, bool) {
	if mid, ok := t.Neighbor(from, dir); ok {
		if to, ok := t.Neighbor(mid, dir); ok {
			return to, true
		}
	}
	return from, false
}

// Degree returns the out-degree of the node: its arcs that exist and are not
// masked (0 for a failed node).
func (t *Tables) Degree(id NodeID) int { return bits.OnesCount16(t.arcs[id]) }

// ArcMask returns the node's out-arcs as a mask: bit d is set iff the arc
// along Dir(d) exists and is not masked.
func (t *Tables) ArcMask(id NodeID) uint16 { return t.arcs[id] }

// GoodMask returns the good directions (Definition 5) for a packet at
// `from` destined to dst as a mask: bit d is set iff Dir(d) is good. It is
// the displacement from the coordinate rows, then DispGood.
func (t *Tables) GoodMask(from, dst NodeID) uint16 {
	d := t.Disp(from, dst)
	return t.DispGood(from, &d)
}

// Disp returns the displacement from `from` to dst (see Disp) from the
// coordinate rows.
func (t *Tables) Disp(from, dst NodeID) (d Disp) {
	cf := t.coord[int(from)*t.dim : int(from)*t.dim+t.dim]
	cd := t.coord[int(dst)*t.dim : int(dst)*t.dim+t.dim]
	for a := range cf {
		o := uint(a) << t.laneLog
		d[o>>5] |= uint32(cd[a]-cf[a]+t.side) << (o & 31)
	}
	return d
}

// lane returns axis a of d, biased by the side.
func (t *Tables) lane(d *Disp, a int) uint32 {
	o := uint(a) << t.laneLog
	return d[o>>5] >> (o & 31) & t.laneMask
}

// Hop updates the displacement d of a packet that moves from its node along
// dir: one unit off the axis dir moves on ("+" brings the destination one
// unit nearer), wrapped back into (−side, side) on a torus. A move along a
// mesh arc never leaves the range.
func (t *Tables) Hop(d *Disp, dir Dir) {
	o := uint(dir>>1) << t.laneLog
	step := uint32(dir&1)<<1 - 1 // −1 or +1, modulo 2^32
	switch d[o>>5]>>(o&31)&t.laneMask + step {
	case 0:
		step += uint32(t.side)
	case 2 * uint32(t.side):
		step -= uint32(t.side)
	}
	d[o>>5] += step << (o & 31)
}

// DispGood returns the good directions (Definition 5) of a packet at `from`
// whose displacement to its destination is d, as a mask: bit d is set iff
// Dir(d) is good. It is the one definition of "good" every other query
// derives from: one axisGood lookup per axis, shifted into the axis's two
// bits. On a table with masked arcs only the good directions whose arc
// survives are set: a packet all of whose geometrically good arcs are down
// has no good direction, so every surviving arc deflects it — exactly how a
// bufferless router degrades.
func (t *Tables) DispGood(from NodeID, d *Disp) uint16 {
	var good uint16
	for a := 0; a < t.dim; a++ {
		good |= t.axisGood[t.lane(d, a)] << (2 * a)
	}
	if t.dead != 0 {
		good &= t.arcs[from]
	}
	return good
}

// GoodDirs appends the good directions for a packet at `from` destined to
// dst in ascending direction order — the order Mesh.GoodDirs produces: by
// axis, "+" before "-" on a torus tie.
func (t *Tables) GoodDirs(from, dst NodeID, buf []Dir) []Dir {
	var tmp [2 * MaxDim]Dir
	n := t.GoodDirsInto(from, dst, &tmp)
	return append(buf, tmp[:n]...)
}

// GoodDirsInto writes the good directions for a packet at `from` destined
// to dst into buf (which always has room) and returns the count, in the same
// order as GoodDirs.
func (t *Tables) GoodDirsInto(from, dst NodeID, buf *[2 * MaxDim]Dir) int {
	n := 0
	for good := t.GoodMask(from, dst); good != 0; good &= good - 1 {
		buf[n] = Dir(bits.TrailingZeros16(good))
		n++
	}
	return n
}

// GoodDirCount returns the number of good directions for a packet at `from`
// destined to dst.
func (t *Tables) GoodDirCount(from, dst NodeID) int {
	return bits.OnesCount16(t.GoodMask(from, dst))
}

// IsGoodDir reports whether dir is a good direction for a packet at `from`
// destined to dst (and, on a table with masked arcs, its arc survives).
func (t *Tables) IsGoodDir(from, dst NodeID, dir Dir) bool {
	return t.GoodMask(from, dst)>>uint(dir)&1 != 0
}
