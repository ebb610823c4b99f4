package mesh

import (
	"math/rand"
	"testing"
)

// TestDispHopWalk walks packets over random arcs of meshes and tori of
// dimension 1–8 — 32-bit lanes up to four dimensions, 16-bit lanes beyond,
// and a 1-dimensional mesh longer than 2^16 — updating a carried
// displacement with Hop at every step. At every node the carried value must
// equal the coordinate difference (modulo the side on a torus) and stay in
// (−side, side), DispGood on it must equal GoodMask from the coordinate
// rows and Mesh.GoodDirs, and Neighbor must agree with the div/mod
// definition in every direction.
func TestDispHopWalk(t *testing.T) {
	shapes := []struct {
		dim, side int
		wrap      bool
	}{
		{1, 7, false}, {1, 7, true}, {1, 70000, false}, {1, 40000, true},
		{2, 5, false}, {2, 6, true}, {3, 4, false}, {3, 5, true},
		{4, 3, false}, {4, 4, true}, {5, 3, false}, {5, 4, true},
		{6, 3, false}, {7, 3, true}, {8, 2, false}, {8, 3, true},
	}
	rng := rand.New(rand.NewSource(7))
	var coord [MaxDim]int
	for _, sh := range shapes {
		m, err := build(sh.dim, sh.side, sh.wrap)
		if err != nil {
			t.Fatal(err)
		}
		tab := m.Tables()
		for walk := 0; walk < 20; walk++ {
			at := NodeID(rng.Intn(m.Size()))
			dst := NodeID(rng.Intn(m.Size()))
			d := tab.Disp(at, dst)
			for step := 0; step < 60; step++ {
				cd := m.Coord(dst, nil)
				ca := m.Coord(at, coord[:])
				for a := 0; a < sh.dim; a++ {
					v := int(tab.lane(&d, a)) - sh.side
					if v <= -sh.side || v >= sh.side || ((cd[a]-ca[a]-v)%sh.side+sh.side)%sh.side != 0 ||
						!sh.wrap && v != cd[a]-ca[a] {
						t.Fatalf("%v: at %d for %d, axis %d carries %d, coordinates differ by %d", m, at, dst, a, v, cd[a]-ca[a])
					}
				}
				want := uint16(0)
				for _, g := range m.GoodDirs(at, dst, nil) {
					want |= 1 << g
				}
				if got, gm := tab.DispGood(at, &d), tab.GoodMask(at, dst); got != want || gm != want {
					t.Fatalf("%v: at %d for %d: DispGood %b, GoodMask %b, GoodDirs %b", m, at, dst, got, gm, want)
				}
				var dirs []Dir
				for dir := Dir(-1); int(dir) <= m.DirCount(); dir++ {
					got, ok := tab.Neighbor(at, dir)
					want, wok := at, false
					if dir >= 0 && int(dir) < m.DirCount() {
						want, wok = m.Neighbor(at, dir)
					}
					if got != want || ok != wok || tab.HasArc(at, dir) != wok {
						t.Fatalf("%v: node %d dir %d: Neighbor %d %v, want %d %v", m, at, dir, got, ok, want, wok)
					}
					if ok {
						dirs = append(dirs, dir)
					}
				}
				dir := dirs[rng.Intn(len(dirs))]
				at, _ = tab.Neighbor(at, dir)
				tab.Hop(&d, dir)
			}
		}
	}
}
