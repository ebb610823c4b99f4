package mesh

// Overlay is a mutable failure view over an immutable Mesh: the same
// geometry with a current set of failed links and failed nodes subtracted
// from the connectivity. It keeps the failure set and lowers it into the
// embedded *Tables — a private copy of the base mesh's table in which every
// arc the failure set removes is cleared from the arc masks (and, on a
// torus, reads -1 in the neighbour row) — so engines and policies route
// against Overlay.Tables exactly as they route against the intact mesh, and
// the Overlay is a Topology through it. An arc is alive iff the base arc
// exists, the link is not cut and neither endpoint is down; each mutation
// patches the O(dirs) affected rows.
//
// Links are undirected: failing the link between u and v removes both
// directed arcs, which preserves the in-degree == out-degree identity every
// hot-potato capacity argument rests on. A failed node loses all incident
// arcs (its neighbors see their degree drop accordingly).
//
// Mutation is not synchronized. The engine mutates the overlay only at the
// beginning of a step, before anything routes against its table.
type Overlay struct {
	*Tables          // the masked copy; Reset and the refresh methods write it
	intact   *Tables // the base mesh's shared table the mask is derived from
	arcDown  []bool  // directed arc (from, dir) explicitly cut, indexed from*DirCount+dir
	nodeDown []bool

	downLinks int // currently failed undirected links
	downNodes int // currently failed nodes
	linkFails int // cumulative FailLink transitions applied
	nodeFails int // cumulative FailNode transitions applied
	version   uint64
}

// NewOverlay returns a fault-free overlay of the base mesh.
func NewOverlay(base *Mesh) *Overlay {
	return &Overlay{
		Tables:   base.Tables().private(),
		intact:   base.Tables(),
		arcDown:  make([]bool, base.Size()*base.DirCount()),
		nodeDown: make([]bool, base.Size()),
	}
}

// refreshLink re-derives the two directed arcs of the base link out of
// `from` along dir from the failure set. They live and die together: the cut
// flag is kept on both and the endpoints are the same two nodes.
func (o *Overlay) refreshLink(from NodeID, dir Dir) {
	i := int(from)*o.dirCount + int(dir)
	to, _ := o.intact.Neighbor(from, dir)
	j := int(to)*o.dirCount + int(dir.Opposite())
	alive := !o.arcDown[i] && !o.nodeDown[from] && !o.nodeDown[to]
	if alive == o.HasArc(from, dir) {
		return
	}
	nf, nt := to, from // the torus row's entries: the far end, or -1 when cut
	if alive {
		o.arcs[from] |= 1 << dir
		o.arcs[to] |= 1 << dir.Opposite()
		o.dead -= 2
	} else {
		nf, nt = -1, -1
		o.arcs[from] &^= 1 << dir
		o.arcs[to] &^= 1 << dir.Opposite()
		o.dead += 2
	}
	if o.neighbor != nil {
		o.neighbor[i], o.neighbor[j] = nf, nt
	}
}

// refreshNode re-derives every link incident to id.
func (o *Overlay) refreshNode(id NodeID) {
	for d := 0; d < o.dirCount; d++ {
		if o.intact.HasArc(id, Dir(d)) {
			o.refreshLink(id, Dir(d))
		}
	}
}

// Version counts mutations; it changes iff the failure set changed, so
// callers can cache degraded-state work between fault transitions.
func (o *Overlay) Version() uint64 { return o.version }

// DownLinks returns the number of currently failed links.
func (o *Overlay) DownLinks() int { return o.downLinks }

// DownNodes returns the number of currently failed nodes.
func (o *Overlay) DownNodes() int { return o.downNodes }

// LinkFailures returns the cumulative number of link-failure transitions.
func (o *Overlay) LinkFailures() int { return o.linkFails }

// NodeFailures returns the cumulative number of node-failure transitions.
func (o *Overlay) NodeFailures() int { return o.nodeFails }

// NodeDown reports whether the node is currently failed.
func (o *Overlay) NodeDown(id NodeID) bool { return o.nodeDown[id] }

// LinkDown reports whether the link out of `from` in direction dir is
// explicitly cut (independent of the state of its endpoints).
func (o *Overlay) LinkDown(from NodeID, dir Dir) bool {
	return o.arcDown[int(from)*o.dirCount+int(dir)]
}

// setLink records the cut state of the link out of `from` along dir on both
// of its directed arcs and patches the table.
func (o *Overlay) setLink(from NodeID, dir Dir, down bool) {
	i := int(from)*o.dirCount + int(dir)
	to, _ := o.intact.Neighbor(from, dir)
	o.arcDown[i] = down
	o.arcDown[int(to)*o.dirCount+int(dir.Opposite())] = down
	o.refreshLink(from, dir)
}

// FailLink cuts the (bidirectional) link out of `from` in direction dir.
// It reports whether the state changed: false if the mesh has no such link
// or it is already cut.
func (o *Overlay) FailLink(from NodeID, dir Dir) bool {
	if !o.base.Contains(from) || dir < 0 || int(dir) >= o.base.DirCount() || !o.base.HasArc(from, dir) {
		return false
	}
	if o.LinkDown(from, dir) {
		return false
	}
	o.setLink(from, dir, true)
	o.downLinks++
	o.linkFails++
	o.version++
	return true
}

// RestoreLink undoes FailLink. It reports whether the state changed.
func (o *Overlay) RestoreLink(from NodeID, dir Dir) bool {
	if !o.base.Contains(from) || dir < 0 || int(dir) >= o.base.DirCount() || !o.base.HasArc(from, dir) {
		return false
	}
	if !o.LinkDown(from, dir) {
		return false
	}
	o.setLink(from, dir, false)
	o.downLinks--
	o.version++
	return true
}

// FailNode crashes the node: all incident arcs disappear until RestoreNode.
// It reports whether the state changed.
func (o *Overlay) FailNode(id NodeID) bool {
	if !o.base.Contains(id) || o.nodeDown[id] {
		return false
	}
	o.nodeDown[id] = true
	o.refreshNode(id)
	o.downNodes++
	o.nodeFails++
	o.version++
	return true
}

// RestoreNode reboots a failed node. Links that were explicitly cut while
// the node was down stay cut. It reports whether the state changed.
func (o *Overlay) RestoreNode(id NodeID) bool {
	if !o.base.Contains(id) || !o.nodeDown[id] {
		return false
	}
	o.nodeDown[id] = false
	o.refreshNode(id)
	o.downNodes--
	o.version++
	return true
}

// Reset restores the intact mesh (cumulative failure counts are kept).
func (o *Overlay) Reset() {
	if o.downLinks == 0 && o.downNodes == 0 {
		return
	}
	clear(o.arcDown)
	clear(o.nodeDown)
	copy(o.neighbor, o.intact.neighbor)
	copy(o.arcs, o.intact.arcs)
	o.dead = 0
	o.downLinks = 0
	o.downNodes = 0
	o.version++
}
