package octree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/sched"
)

func TestRadixSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, n := range []int{0, 1, 2, 3, 100, 4095, 4096, 50000} {
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.Intn(3) {
			case 0:
				keys[i] = rng.Uint64() >> 1 // full-range 63-bit
			case 1:
				keys[i] = uint64(rng.Intn(16)) // heavy duplicates
			default:
				keys[i] = rng.Uint64() & 0xffff // constant high digits
			}
		}
		want := slices.Clone(keys)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, p := range []*sched.Pool{nil, pool} {
			got := slices.Clone(keys)
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(i)
			}
			radixSortKeys(got, idx, p)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d pool=%v: keys not sorted", n, p != nil)
			}
			// idx must be the permutation that produced the sorted keys,
			// and stable: equal keys keep ascending original positions.
			for i := range got {
				if keys[idx[i]] != got[i] {
					t.Fatalf("n=%d: idx[%d]=%d is not the origin of key %#x", n, i, idx[i], got[i])
				}
				if i > 0 && got[i] == got[i-1] && idx[i] < idx[i-1] {
					t.Fatalf("n=%d: sort not stable at %d (idx %d after %d)", n, i, idx[i], idx[i-1])
				}
			}
		}
	}
}

// TestMortonBuildMatchesRecursive is the structural half of the
// equivalence property: on realistic inputs the Morton build must
// produce the recursive builder's node hierarchy node for node — same
// pre-order layout, ranges, depths, leaf flags and child wiring. Only
// point order WITHIN a leaf may differ, so per-leaf index SETS are
// compared, and centers/radii (whose summation order follows slot
// order) to a tight tolerance.
func TestMortonBuildMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, n := range []int{1, 7, 8, 9, 100, 3000} {
		pts := randPts(rng, n, 40)
		ref, err := Build(pts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mor, err := Build(pts, Options{Builder: BuilderMorton, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if err := mor.Validate(); err != nil {
			t.Fatalf("n=%d: morton tree invalid: %v", n, err)
		}
		if mor.NumNodes() != ref.NumNodes() {
			t.Fatalf("n=%d: %d nodes, recursive has %d", n, mor.NumNodes(), ref.NumNodes())
		}
		for i := range ref.Nodes {
			a, b := &ref.Nodes[i], &mor.Nodes[i]
			if a.Start != b.Start || a.End != b.End || a.Depth != b.Depth ||
				a.IsLeaf != b.IsLeaf || a.Children != b.Children {
				t.Fatalf("n=%d node %d: recursive %+v vs morton %+v", n, i, a, b)
			}
			if a.Center.Dist(b.Center) > 1e-12*(1+a.Radius) ||
				math.Abs(a.Radius-b.Radius) > 1e-12*(1+a.Radius) {
				t.Fatalf("n=%d node %d: geometry drifted: %v/%g vs %v/%g",
					n, i, a.Center, a.Radius, b.Center, b.Radius)
			}
		}
		if !slices.Equal(ref.Leaves(), mor.Leaves()) {
			t.Fatalf("n=%d: leaf lists differ", n)
		}
		for _, li := range ref.Leaves() {
			nd := &ref.Nodes[li]
			sa := slices.Clone(ref.Index[nd.Start:nd.End])
			sb := slices.Clone(mor.Index[nd.Start:nd.End])
			slices.Sort(sa)
			slices.Sort(sb)
			if !slices.Equal(sa, sb) {
				t.Fatalf("n=%d leaf %d: index sets differ: %v vs %v", n, li, sa, sb)
			}
		}
	}
}

// TestMortonBuildDeterministic: the chunk-parallel sort and build must
// give bit-identical trees for any pool size, including none.
func TestMortonBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPts(rng, 20000, 25)
	var ref *Tree
	for _, workers := range []int{0, 1, 3, 8} {
		var pool *sched.Pool
		if workers > 0 {
			pool = sched.NewPool(workers)
		}
		tr, err := Build(pts, Options{Builder: BuilderMorton, Pool: pool})
		if pool != nil {
			pool.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = tr
			continue
		}
		if !slices.Equal(tr.Index, ref.Index) || !slices.Equal(slotKeys(tr), slotKeys(ref)) {
			t.Fatalf("workers=%d: index/keys differ from serial build", workers)
		}
		if !slices.Equal(tr.Nodes, ref.Nodes) {
			t.Fatalf("workers=%d: nodes differ from serial build", workers)
		}
	}
}

// slotKeys recomputes the Morton key of every slot of tr (in tree-slot
// order) from its points and root box.
func slotKeys(tr *Tree) []uint64 {
	keys := make([]uint64, len(tr.Pts))
	geom.MortonKeys(tr.rootBox, tr.Pts, keys)
	return keys
}

// TestMortonDegenerateInputs: coincident clusters, duplicates, planar
// and collinear sets, and a single point. The recursive reference can
// split sub-lattice clusters past the key resolution, so these assert
// the Morton tree's own invariants (Validate, slot ordering by key)
// rather than structural equality.
func TestMortonDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := map[string][]geom.Vec3{
		"single":     {geom.V(3, -2, 5)},
		"coincident": make([]geom.Vec3, 50),
		"planar":     make([]geom.Vec3, 300),
		"collinear":  make([]geom.Vec3, 300),
		"duplicates": make([]geom.Vec3, 400),
	}
	for i := range cases["coincident"] {
		cases["coincident"][i] = geom.V(1, 2, 3)
	}
	for i := range cases["planar"] {
		cases["planar"][i] = geom.V(rng.Float64()*10, rng.Float64()*10, 4.5)
	}
	for i := range cases["collinear"] {
		x := rng.Float64() * 20
		cases["collinear"][i] = geom.V(x, 2*x+1, -x)
	}
	for i := range cases["duplicates"] {
		p := geom.V(float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5)))
		cases["duplicates"][i] = p
	}
	for name, pts := range cases {
		tr, err := Build(pts, Options{Builder: BuilderMorton})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.NumPoints() != len(pts) {
			t.Fatalf("%s: %d points, want %d", name, tr.NumPoints(), len(pts))
		}
		keys := slotKeys(tr)
		for i := 1; i < len(keys); i++ {
			if keys[i] < keys[i-1] {
				t.Fatalf("%s: slot keys not ascending at %d", name, i)
			}
		}
		if d := tr.Depth(); d > geom.MortonBits {
			t.Fatalf("%s: depth %d exceeds key resolution %d", name, d, geom.MortonBits)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	pool := sched.NewPool(0)
	defer b.StopTimer()
	defer pool.Close()
	for _, n := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := randPts(rng, n, 60)
		for _, bc := range []struct {
			name string
			opts Options
		}{
			{"recursive", Options{}},
			{"morton-serial", Options{Builder: BuilderMorton}},
			{"morton-parallel", Options{Builder: BuilderMorton, Pool: pool}},
		} {
			b.Run(bc.name+"/"+itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Build(pts, bc.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func itoa(n int) string {
	switch n {
	case 1000:
		return "1k"
	case 10000:
		return "10k"
	case 100000:
		return "100k"
	}
	return "n"
}
