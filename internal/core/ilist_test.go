package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// The compiled interaction-list path (ilist.go + kernels.go) must
// reproduce the recursive reference traversals to floating-point noise:
// the lists record exactly the far/near decomposition the recursion
// takes, and the batch kernels mirror its arithmetic term-for-term.
// Single-threaded runs keep the summation order fixed, so the 1e-12
// relative tolerance is far above the only real difference (the exact
// kernels' x·(1/√f) reassociation).
func TestCompiledMatchesRecursive(t *testing.T) {
	// EpsBorn/EpsEpol = 0 is expressed as 1e-12 (withDefaults treats 0 as
	// unset); epolFarFactor makes any eps ≤ tiny effectively "never far",
	// which is the ε=0 semantics the recursion has.
	for _, kern := range []BornKernel{R6, R4} {
		for _, strict := range []bool{false, true} {
			for _, eps := range []float64{1e-12, 0.5, 0.9} {
				name := fmt.Sprintf("%v/strict=%v/eps=%g", kern, strict, eps)
				t.Run(name, func(t *testing.T) {
					params := Params{
						EpsBorn: eps, EpsEpol: eps, EpsSolv: 80,
						Kernel: kern, StrictBornMAC: strict,
					}
					sys, _, _ := testSystem(t, 260, 91, params)
					compareCompiledRecursive(t, sys, 1e-12)
				})
			}
		}
	}
}

// Approximate math swaps both paths onto the same fast kernels; the
// compiled sweep must still agree.
func TestCompiledMatchesRecursiveApproxMath(t *testing.T) {
	params := DefaultParams()
	params.Math = mathx.Approximate
	sys, _, _ := testSystem(t, 260, 92, params)
	compareCompiledRecursive(t, sys, 1e-12)
}

func compareCompiledRecursive(t *testing.T, sys *System, tol float64) {
	t.Helper()
	rec, err := RunShared(sys, SharedOptions{Threads: 1, Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(cmp.Epol, rec.Epol); e > tol {
		t.Errorf("Epol compiled %v vs recursive %v (rel %.3g)", cmp.Epol, rec.Epol, e)
	}
	for i := range rec.BornRadii {
		if e := relErr(cmp.BornRadii[i], rec.BornRadii[i]); e > tol {
			t.Fatalf("atom %d Born radius compiled %v vs recursive %v (rel %.3g)",
				i, cmp.BornRadii[i], rec.BornRadii[i], e)
		}
	}
}

// The rigid-transform reuse invariant: after Repose the cached lists are
// still exactly what a fresh compilation would produce, and evaluating
// through them matches a fresh recursive run of the moved system.
func TestCompiledListsSurviveRigidTransform(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 93, DefaultParams())
	sys.Params.DebugCheckLists = true // every run re-verifies the lists

	before, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	lists := sys.Lists(nil)

	tr := geom.Translate(geom.V(17, -4, 9)).Compose(geom.RotateAxis(geom.V(1, 2, 3), 0.8))
	sys.ApplyRigidTransform(tr)
	if got := sys.Lists(nil); got != lists {
		t.Fatal("rigid transform invalidated the compiled lists")
	}
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatalf("lists drifted after rigid transform: %v", err)
	}

	moved, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunShared(sys, SharedOptions{Threads: 1, Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(moved.Epol, rec.Epol); e > 1e-12 {
		t.Errorf("moved compiled %v vs moved recursive %v (rel %.3g)", moved.Epol, rec.Epol, e)
	}

	// Round trip back: the energy is invariant under rigid motion, so the
	// original value must return (up to the kernels' rotation sensitivity).
	sys.ApplyRigidTransform(tr.Inverse())
	after, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(after.Epol, before.Epol); e > 1e-9 {
		t.Errorf("round-trip energy %v vs original %v (rel %.3g)", after.Epol, before.Epol, e)
	}
}

// Non-rigid geometry changes and parameter changes must not be served by
// stale lists.
func TestCompiledListsInvalidation(t *testing.T) {
	sys, mol, _ := testSystem(t, 300, 94, DefaultParams())
	lists := sys.Lists(nil)

	// UpdateAtoms is non-rigid: the cache must drop.
	pos := mol.Positions()
	for i := range pos {
		pos[i].X += 0.25 * float64(i%5)
	}
	if _, err := sys.UpdateAtoms(pos); err != nil {
		t.Fatal(err)
	}
	if got := sys.Lists(nil); got == lists {
		t.Fatal("UpdateAtoms did not invalidate the compiled lists")
	}

	// A parameter change flips the opening criterion: the signature check
	// must trigger a recompile even without an explicit invalidation.
	lists = sys.Lists(nil)
	sys.Params.EpsEpol = 0.4
	if got := sys.Lists(nil); got == lists {
		t.Fatal("EpsEpol change did not recompile the lists")
	}
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatal(err)
	}
}

// Multi-threaded compiled runs agree with the recursive path to the same
// tolerance the repo grants any two stealing schedules.
func TestCompiledMatchesRecursiveParallel(t *testing.T) {
	sys, _, _ := testSystem(t, 400, 95, DefaultParams())
	rec, err := RunShared(sys, SharedOptions{Threads: 4, Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunShared(sys, SharedOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(cmp.Epol, rec.Epol); e > 1e-9 {
		t.Errorf("Epol compiled %v vs recursive %v (rel %.3g)", cmp.Epol, rec.Epol, e)
	}
}

// Both worker accumulators occupy whole cache lines so adjacent workers
// never false-share their hot counters (born.go / epol.go reference this
// test by name).
func TestAccumulatorsCacheLineSized(t *testing.T) {
	if s := unsafe.Sizeof(epolAccum{}); s != 64 {
		t.Errorf("epolAccum is %d bytes, want exactly 64", s)
	}
	if s := unsafe.Sizeof(bornAccum{}); s != 128 {
		t.Errorf("bornAccum is %d bytes, want exactly 128 (two lines)", s)
	}
}

// A warm engine re-evaluating the same pose must not allocate per-pair or
// per-leaf state: lists are cached, scratch comes from pools, kernels are
// allocation-free. The budget covers per-call accumulators, the Result
// and scheduler bookkeeping — all O(workers + atoms), none O(pairs).
func TestComputeSharedWarmAllocs(t *testing.T) {
	sys, mol, _ := testSystem(t, 500, 96, DefaultParams())
	pool := sched.NewPool(2)
	defer pool.Close()
	opts := SharedOptions{Pool: pool}
	if _, err := RunShared(sys, opts); err != nil { // warm: compiles lists
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunShared(sys, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The per-run slices (bornAccum node/atom vectors, slot radii, the
	// epol histograms) dominate; anything growing with interaction count
	// would blow far past this.
	budget := 200 + float64(mol.NumAtoms())/10
	if allocs > budget {
		t.Errorf("warm ComputeShared allocates %.0f objects per run (budget %.0f)", allocs, budget)
	}
}

// RunShared reports the wall time of the list compile it triggered, and
// nothing once the lists are cached.
func TestRunSharedListsSeconds(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 99, DefaultParams())
	cold, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold.ListsSeconds <= 0 || warm.ListsSeconds != 0 {
		t.Errorf("ListsSeconds cold %g, warm %g; want > 0 then 0", cold.ListsSeconds, warm.ListsSeconds)
	}
}

// Compiled op accounting stays faithful to the evaluated work: tighter
// epsilon means more near-field pairs, so more ops — the property the
// plumbing tests rely on.
func TestCompiledOpsMonotoneInEps(t *testing.T) {
	var ops []float64
	for _, eps := range []float64{0.2, 0.9} {
		params := DefaultParams()
		params.EpsBorn, params.EpsEpol = eps, eps
		sys, _, _ := testSystem(t, 300, 97, params)
		res, err := RunShared(sys, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, res.Ops)
	}
	if ops[0] <= ops[1] {
		t.Errorf("ops at eps 0.2 (%v) not above eps 0.9 (%v)", ops[0], ops[1])
	}
}

// referenceCompileLists is the row-at-a-time compiler the two-pass
// compileLists replaced, kept as its oracle: every row classifies into
// slices of its own, a binary search over sorted copies of the near
// lists decides mutuality, and the rows are then packed into CSR.
func referenceCompileLists(atoms, rowTree *octree.Tree, mac float64, pmax, deg int, leafFirst, symmetrize bool) *InteractionLists {
	macs := macLadder(mac, pmax, deg)
	rows := rowTree.Leaves()
	per := make([]listBuf, len(rows))
	sym := make([][]int32, len(rows))
	for i, r := range rows {
		rn := &rowTree.Nodes[r]
		classify(atoms, atoms.Root(), rn.Center, rn.Radius, &macs, pmax, leafFirst, &per[i])
	}
	if symmetrize {
		rowOf := make([]int32, len(rowTree.Nodes))
		for i := range rowOf {
			rowOf[i] = -1
		}
		for i, r := range rows {
			rowOf[r] = int32(i)
		}
		sorted := make([][]int32, len(per))
		for i := range per {
			sorted[i] = slices.Clone(per[i].near)
			slices.Sort(sorted[i])
		}
		for i := range per {
			kept := per[i].near[:0]
			for _, u := range per[i].near {
				j := int(rowOf[u])
				if j == i {
					kept = append(kept, u)
					continue
				}
				if _, mutual := slices.BinarySearch(sorted[j], rows[i]); !mutual {
					kept = append(kept, u)
				} else if j > i {
					sym[i] = append(sym[i], u)
				}
			}
			per[i].near = kept
		}
	}
	il := &InteractionLists{
		Rows:    append([]int32(nil), rows...),
		FarOff:  make([]int32, len(rows)+1),
		NearOff: make([]int32, len(rows)+1),
		SymOff:  make([]int32, len(rows)+1),
	}
	var nf, nn, ns int32
	for i := range per {
		il.FarOff[i], il.NearOff[i], il.SymOff[i] = nf, nn, ns
		nf += int32(len(per[i].far))
		nn += int32(len(per[i].near))
		ns += int32(len(sym[i]))
	}
	il.FarOff[len(rows)], il.NearOff[len(rows)], il.SymOff[len(rows)] = nf, nn, ns
	il.Far = make([]int32, 0, nf)
	il.Near = make([]int32, 0, nn)
	il.Sym = make([]int32, 0, ns)
	withFarO := false
	for i := range per {
		il.Far = append(il.Far, per[i].far...)
		il.Near = append(il.Near, per[i].near...)
		il.Sym = append(il.Sym, sym[i]...)
		if per[i].farO != nil {
			withFarO = true
		}
	}
	if withFarO {
		il.FarOrd = make([]uint8, 0, nf)
		for i := range per {
			il.FarOrd = append(il.FarOrd, per[i].farO...)
		}
	}
	return il
}

// referenceCompile is System.compile on the reference compiler.
func referenceCompile(s *System) *CompiledLists {
	return &CompiledLists{
		bornMAC: s.bornMAC(), epolFar: epolFarFactor(s.Params.EpsEpol), farOrder: s.Params.FarOrder,
		Born: referenceCompileLists(s.Atoms, s.QPts, s.bornMAC(), s.Params.FarOrder, bornLadderDeg(s.Params.Kernel), false, false),
		Epol: referenceCompileLists(s.Atoms, s.Atoms, epolFarFactor(s.Params.EpsEpol), s.Params.FarOrder, epolLadderDeg, true, true),
	}
}

// sameLists names the first field of got that differs from want,
// counting the nil-ness of every slice (a snapshot round trip decodes an
// empty FarOrd as nil, so nil and empty are different lists).
func sameLists(got, want *InteractionLists) error {
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for f := range g.NumField() {
		gf, wf := g.Field(f), w.Field(f)
		if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			return fmt.Errorf("%s differs: len %d nil %v, want len %d nil %v",
				g.Type().Field(f).Name, gf.Len(), gf.IsNil(), wf.Len(), wf.IsNil())
		}
	}
	return nil
}

// coincidentMolecule stacks three atoms on each of n/3 lattice sites, so
// the octree bottoms out in leaves it cannot split.
func coincidentMolecule(n int) *molecule.Molecule {
	m := &molecule.Molecule{Name: "coincident"}
	for i := range n {
		site := i / 3
		m.Atoms = append(m.Atoms, molecule.Atom{
			Pos:    geom.V(float64(site%4)*1.6, float64(site/4%4)*1.6, float64(site/16)*1.6),
			Charge: float64(i%3) - 1,
			Radius: 1.5,
		})
	}
	return m
}

// TestCompileListsMatchReference pins the two-pass parallel compiler to
// the row-at-a-time reference: byte-identical lists (every offset array,
// entry order, FarOrd nil-ness) for every molecule size, far order and
// pool width, with Rows owned rather than aliasing the tree's leaves.
func TestCompileListsMatchReference(t *testing.T) {
	pools := []*sched.Pool{nil, sched.NewPool(1), sched.NewPool(2), sched.NewPool(4)}
	defer func() {
		for _, p := range pools[1:] {
			p.Close()
		}
	}()
	mols := []*molecule.Molecule{coincidentMolecule(48)}
	for _, n := range []int{1, 2, 50, 800, 3000} {
		mols = append(mols, molecule.GenProtein(fmt.Sprintf("oracle-%d", n), n, int64(n)))
	}
	for _, mol := range mols {
		surf, err := surface.ForMolecule(mol, surface.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(mol, surf, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for ord := 0; ord <= maxFarOrder; ord++ {
			sys.Params.FarOrder = ord
			want := referenceCompile(sys)
			for _, pool := range pools {
				workers := 0
				if pool != nil {
					workers = pool.NumWorkers()
				}
				got := sys.compile(pool)
				for _, ph := range []struct {
					name      string
					got, want *InteractionLists
					leaves    []int32
				}{
					{"born", got.Born, want.Born, sys.QPts.Leaves()},
					{"epol", got.Epol, want.Epol, sys.Atoms.Leaves()},
				} {
					if err := sameLists(ph.got, ph.want); err != nil {
						t.Fatalf("%s (%d atoms) farOrder=%d workers=%d %s: %v",
							mol.Name, mol.NumAtoms(), ord, workers, ph.name, err)
					}
					if &ph.got.Rows[0] == &ph.leaves[0] {
						t.Fatalf("%s %s: Rows aliases the tree's leaf slice", mol.Name, ph.name)
					}
				}
			}
		}
	}
}

// FuzzCompileLists compiles tiny lattice-quantized molecules — coincident
// atoms and single-leaf trees are common — and asserts the two-pass
// compiler matches the reference, serial and pooled alike.
func FuzzCompileLists(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 7, 7, 7}, uint8(1), uint8(0), uint8(9))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, uint8(2), uint8(2), uint8(1))
	f.Add([]byte("a lattice of atoms, some on top of one another, most not"), uint8(4), uint8(1), uint8(5))
	pool := sched.NewPool(3)
	defer pool.Close()
	f.Fuzz(func(t *testing.T, data []byte, leafCap, farOrder, eps uint8) {
		// Three bytes per atom, each a coordinate on an 8-point lattice of
		// 1.5 Å spacing; at most 64 atoms. The q-points sit half a cell
		// off the atoms.
		n := min(len(data)/3, 64)
		if n == 0 {
			return
		}
		atomPts := make([]geom.Vec3, n)
		qPts := make([]geom.Vec3, n)
		for i := range atomPts {
			b := data[3*i : 3*i+3]
			atomPts[i] = geom.V(float64(b[0]%8)*1.5, float64(b[1]%8)*1.5, float64(b[2]%8)*1.5)
			qPts[i] = atomPts[i].Add(geom.V(0.75, 0.75, 0.75))
		}
		opts := octree.Options{LeafCap: 1 + int(leafCap%8)}
		atoms, err := octree.Build(atomPts, opts)
		if err != nil {
			t.Fatal(err)
		}
		qtree, err := octree.Build(qPts, opts)
		if err != nil {
			t.Fatal(err)
		}
		pmax := int(farOrder) % (maxFarOrder + 1)
		epsv := 0.05 + float64(eps%32)/16 // 0.05 … 1.99
		for _, ph := range []struct {
			rowTree        *octree.Tree
			mac            float64
			deg            int
			leafFirst, sym bool
		}{
			{qtree, looseMACFactor(epsv), bornLadderDeg(R6), false, false},
			{atoms, epolFarFactor(epsv), epolLadderDeg, true, true},
		} {
			want := referenceCompileLists(atoms, ph.rowTree, ph.mac, pmax, ph.deg, ph.leafFirst, ph.sym)
			for _, p := range []*sched.Pool{nil, pool} {
				got := compileLists(atoms, ph.rowTree, ph.mac, pmax, ph.deg, ph.leafFirst, ph.sym, p)
				if err := sameLists(got, want); err != nil {
					t.Fatalf("%d atoms, leafCap %d, farOrder %d, eps %g, symmetrize=%v, pooled=%v: %v",
						n, opts.LeafCap, pmax, epsv, ph.sym, p != nil, err)
				}
			}
		}
	})
}

// TestCompileListsAllocsFlat pins that a serial compile allocates per
// chunk and per phase, not per row: nearly quadrupling the atom count
// (and the row count with it) may add only the few appends that grow the
// reused chunk buffers.
func TestCompileListsAllocsFlat(t *testing.T) {
	allocs := func(n int) (float64, int) {
		sys, _, _ := testSystem(t, n, 98, DefaultParams())
		rows := len(sys.QPts.Leaves()) + len(sys.Atoms.Leaves())
		return testing.AllocsPerRun(3, func() { sys.compile(nil) }), rows
	}
	small, smallRows := allocs(800)
	large, largeRows := allocs(3000)
	t.Logf("serial compile: %.0f allocs at %d rows, %.0f at %d rows", small, smallRows, large, largeRows)
	if large-small > 24 {
		t.Errorf("serial compile allocations grow with rows: %.0f at %d rows, %.0f at %d rows",
			small, smallRows, large, largeRows)
	}
}
