package mesh

// Topology is the read-only network view policies and the analysis harness
// are written against. There are two implementations: *Mesh answers every
// query by coordinate arithmetic and is the reference; *Tables answers them
// from flat arrays and is what every engine routes against — the mesh's
// shared table when the network is intact, an *Overlay's private masked copy
// (which makes the Overlay a Topology too, through the table it embeds) when
// links and nodes can fail. The static-topology assumption therefore lives
// behind this one interface instead of being baked into every layer.
//
// The split between geometry and connectivity is deliberate: Dist,
// GoodDirs, IsGoodDir and friends describe which moves make *progress*,
// while HasArc, Neighbor and Degree describe which moves are *possible*.
// On an Overlay the connectivity methods reflect the current failure set
// (a good direction whose link is down is not reported as good — a local
// router can see its own dead links), but Dist stays the geometric metric:
// deflection routers have no global failure map, so "closer to the
// destination" keeps its paper meaning even when the shortest surviving
// path is longer.
type Topology interface {
	// Geometry (identical on every view of the same base mesh).
	Dim() int
	Side() int
	Size() int
	Wrap() bool
	DirCount() int
	Diameter() int
	Contains(id NodeID) bool
	CheckID(id NodeID) error
	Coord(id NodeID, buf []int) []int
	CoordAxis(id NodeID, axis int) int
	ID(coord []int) NodeID
	Dist(a, b NodeID) int
	ParityClass(id NodeID) int
	SnakeRank(id NodeID) int
	String() string

	// Connectivity (filtered by the failure set on an Overlay).
	HasArc(from NodeID, dir Dir) bool
	Neighbor(from NodeID, dir Dir) (NodeID, bool)
	TwoNeighbor(from NodeID, dir Dir) (NodeID, bool)
	Degree(id NodeID) int
	GoodDirs(from, dst NodeID, buf []Dir) []Dir
	GoodDirCount(from, dst NodeID) int
	IsGoodDir(from, dst NodeID, dir Dir) bool
}

var (
	_ Topology = (*Mesh)(nil)
	_ Topology = (*Tables)(nil)
	_ Topology = (*Overlay)(nil)
)
