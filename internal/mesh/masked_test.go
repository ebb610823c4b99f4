package mesh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// failureSetRef is the definition an Overlay's masked table is checked
// against: the failure set kept as plain sets, and every connectivity
// primitive computed from *Mesh arithmetic plus the alive-arc predicate. It
// shares no code with Tables or Overlay.
type failureSetRef struct {
	base     *Mesh
	arcDown  map[[2]int]bool // (from, dir), both directions of a cut link
	nodeDown map[NodeID]bool
}

func (r *failureSetRef) setLink(from NodeID, dir Dir, down bool) {
	if !r.base.HasArc(from, dir) {
		return
	}
	to := r.base.step(from, dir, 1)
	r.arcDown[[2]int{int(from), int(dir)}] = down
	r.arcDown[[2]int{int(to), int(dir.Opposite())}] = down
}

// hasArc: the base arc exists, neither endpoint is down, the link is not cut.
func (r *failureSetRef) hasArc(from NodeID, dir Dir) bool {
	if r.nodeDown[from] || !r.base.HasArc(from, dir) || r.arcDown[[2]int{int(from), int(dir)}] {
		return false
	}
	return !r.nodeDown[r.base.step(from, dir, 1)]
}

func (r *failureSetRef) neighbor(from NodeID, dir Dir) (NodeID, bool) {
	if !r.hasArc(from, dir) {
		return from, false
	}
	return r.base.step(from, dir, 1), true
}

func (r *failureSetRef) goodDirs(from, dst NodeID) []Dir {
	var good []Dir
	for _, d := range r.base.GoodDirs(from, dst, nil) {
		if r.hasArc(from, d) {
			good = append(good, d)
		}
	}
	return good
}

// check compares every connectivity primitive of the overlay's table, for
// every node, direction and destination, against the reference.
func (r *failureSetRef) check(t *testing.T, o *Overlay, after string) {
	t.Helper()
	m := r.base
	var into [2 * MaxDim]Dir
	for id := NodeID(0); int(id) < m.Size(); id++ {
		deg, arcs := 0, uint16(0)
		for d := 0; d < m.DirCount(); d++ {
			dir := Dir(d)
			want := r.hasArc(id, dir)
			if want {
				deg++
				arcs |= 1 << d
			}
			if got := o.HasArc(id, dir); got != want {
				t.Fatalf("%v after %s: HasArc(%d, %v) = %v, want %v", m, after, id, dir, got, want)
			}
			wn, wok := r.neighbor(id, dir)
			if gn, gok := o.Neighbor(id, dir); gn != wn || gok != wok {
				t.Fatalf("%v after %s: Neighbor(%d, %v) = (%d, %v), want (%d, %v)", m, after, id, dir, gn, gok, wn, wok)
			}
			w2, w2ok := id, false
			if wok {
				if w2, w2ok = r.neighbor(wn, dir); !w2ok {
					w2 = id
				}
			}
			if g2, g2ok := o.TwoNeighbor(id, dir); g2 != w2 || g2ok != w2ok {
				t.Fatalf("%v after %s: TwoNeighbor(%d, %v) = (%d, %v), want (%d, %v)", m, after, id, dir, g2, g2ok, w2, w2ok)
			}
		}
		if got := o.Degree(id); got != deg {
			t.Fatalf("%v after %s: Degree(%d) = %d, want %d", m, after, id, got, deg)
		}
		if got := o.ArcMask(id); got != arcs {
			t.Fatalf("%v after %s: ArcMask(%d) = %#x, want %#x", m, after, id, got, arcs)
		}
		for dst := NodeID(0); int(dst) < m.Size(); dst++ {
			want := r.goodDirs(id, dst)
			wantMask := uint16(0)
			for _, d := range want {
				wantMask |= 1 << d
			}
			if got := o.GoodMask(id, dst); got != wantMask {
				t.Fatalf("%v after %s: GoodMask(%d, %d) = %#x, want %#x", m, after, id, dst, got, wantMask)
			}
			if got := o.GoodDirs(id, dst, nil); !slices.Equal(got, want) {
				t.Fatalf("%v after %s: GoodDirs(%d, %d) = %v, want %v", m, after, id, dst, got, want)
			}
			if n := o.GoodDirsInto(id, dst, &into); !slices.Equal(into[:n], want) {
				t.Fatalf("%v after %s: GoodDirsInto(%d, %d) = %v, want %v", m, after, id, dst, into[:n], want)
			}
			if got := o.GoodDirCount(id, dst); got != len(want) {
				t.Fatalf("%v after %s: GoodDirCount(%d, %d) = %d, want %d", m, after, id, dst, got, len(want))
			}
			for d := 0; d < m.DirCount(); d++ {
				if got, want := o.IsGoodDir(id, dst, Dir(d)), slices.Contains(want, Dir(d)); got != want {
					t.Fatalf("%v after %s: IsGoodDir(%d, %d, %v) = %v, want %v", m, after, id, dst, Dir(d), got, want)
				}
			}
		}
	}
}

// TestMaskedTablesMatchFailureSet drives random fail/restore/reset sequences
// through an Overlay and, after every mutation, requires its masked table to
// answer every connectivity primitive exactly as the failure-set definition
// does. Even-side tori are included for their two-way good-direction ties;
// the sequence restores nodes whose links were cut while they were down, and
// those links must stay cut.
func TestMaskedTablesMatchFailureSet(t *testing.T) {
	bases := []*Mesh{
		MustNew(1, 7), MustNew(2, 5), MustNew(3, 3),
		MustNewTorus(1, 6), MustNewTorus(2, 4), MustNewTorus(2, 5), MustNewTorus(3, 4),
	}
	for _, m := range bases {
		rng := rand.New(rand.NewSource(int64(m.Size())*31 + int64(m.Dim())))
		o := NewOverlay(m)
		ref := &failureSetRef{base: m, arcDown: map[[2]int]bool{}, nodeDown: map[NodeID]bool{}}
		ref.check(t, o, "NewOverlay")
		shared, sharedArcs := slices.Clone(m.Tables().neighbor), slices.Clone(m.Tables().arcs)
		for i := 0; i < 60; i++ {
			node := NodeID(rng.Intn(m.Size()))
			dir := Dir(rng.Intn(m.DirCount()))
			var op string
			switch k := rng.Intn(10); {
			case k < 3:
				op = fmt.Sprintf("FailLink(%d, %v)", node, dir)
				o.FailLink(node, dir)
				ref.setLink(node, dir, true)
			case k < 5:
				op = fmt.Sprintf("RestoreLink(%d, %v)", node, dir)
				o.RestoreLink(node, dir)
				ref.setLink(node, dir, false)
			case k < 7:
				op = fmt.Sprintf("FailNode(%d)", node)
				o.FailNode(node)
				ref.nodeDown[node] = true
			case k < 9:
				// Prefer a node that is actually down, so reboots happen.
				for cand := NodeID(0); int(cand) < m.Size(); cand++ {
					if ref.nodeDown[cand] {
						node = cand
						break
					}
				}
				op = fmt.Sprintf("RestoreNode(%d)", node)
				o.RestoreNode(node)
				ref.nodeDown[node] = false
			default:
				op = "Reset"
				o.Reset()
				clear(ref.arcDown)
				clear(ref.nodeDown)
			}
			ref.check(t, o, fmt.Sprintf("step %d %s", i, op))
		}

		// Restore-node-keeps-cut-links, pinned explicitly: cut a link of a
		// down node, reboot it, and the link is still gone.
		o.Reset()
		clear(ref.arcDown)
		clear(ref.nodeDown)
		centre := NodeID(m.Size() / 2)
		dir := DirPlus(0)
		if !m.HasArc(centre, dir) {
			dir = DirMinus(0)
		}
		o.FailNode(centre)
		o.FailLink(centre, dir)
		o.RestoreNode(centre)
		ref.setLink(centre, dir, true)
		ref.check(t, o, "fail node, cut its link, restore node")
		if o.HasArc(centre, dir) {
			t.Fatalf("%v: rebooting node %d resurrected its cut link %v", m, centre, dir)
		}

		if !slices.Equal(shared, m.Tables().neighbor) || !slices.Equal(sharedArcs, m.Tables().arcs) || m.Tables().dead != 0 {
			t.Fatalf("%v: overlay mutations leaked into the mesh's shared table", m)
		}
	}
}
