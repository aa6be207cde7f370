package core

import (
	"fmt"
	"slices"

	"gbpolar/internal/geom"
	"gbpolar/internal/obs"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// This file implements the interaction-list compilation layer: a one-time
// traversal that records, per leaf, exactly which far-field aggregates
// and which near-field leaf pairs the recursive algorithms of Figures 2
// and 3 would evaluate. Production FMM codes (DASHMM, arXiv:1710.06316;
// Multibody Multipole Methods, arXiv:1105.2769) separate list
// construction from kernel evaluation for the same reason this repo does:
// the near–far decomposition depends only on geometry and the opening
// criterion, so it can be built once and swept repeatedly by flat,
// cache-friendly batch kernels (kernels.go) — with zero recursion,
// pointer chasing or opening tests in the steady state.
//
// The lists survive rigid motion: Engine.Repose applies one rigid
// transform to every point and node center, which preserves all pairwise
// distances while node radii are invariant, so every farSeparated verdict
// is unchanged. Docking pose scans therefore pay the traversal cost once
// per complex, not once per pose. Non-rigid changes (UpdateAtoms) and
// parameter changes invalidate the cache (System.InvalidateLists and the
// signature check in Lists).

// InteractionLists is a compiled traversal over the atoms octree for one
// phase, in CSR form. Row i describes the leaf Rows[i] (in tree Leaves()
// order): Far[FarOff[i]:FarOff[i+1]] holds the atoms-octree nodes whose
// far-field aggregate the leaf interacts with, and
// Near[NearOff[i]:NearOff[i+1]] the atom leaves needing exact pairwise
// evaluation.
type InteractionLists struct {
	Rows    []int32
	FarOff  []int32
	Far     []int32
	NearOff []int32
	Near    []int32
	// Sym holds MUTUAL near leaf pairs, stored once on the lower-indexed
	// row and evaluated with double weight: the per-pair GB terms are
	// bitwise symmetric (r², R_u·R_v and f_GB are commutative in u,v), so
	// one swept block stands for both ordered blocks of the recursion.
	// This halves the dominant near-field work. Pairs the classification
	// reaches in only one direction (the epol ordering can be asymmetric:
	// a leaf U is always exact for row V, while row U may see V's
	// ancestors as far) stay in Near with single weight, as does the
	// diagonal U == V, whose ordered double-count is inherent in the
	// block sweep. Born lists never populate Sym (q-leaf rows against the
	// atoms tree have no transpose).
	SymOff []int32
	Sym    []int32
	// FarOrd[k] is the expansion order the ladder admitted Far[k] at
	// (farorder.go). The kernels correct every far entry through the run
	// order, so the stream only records admission: RecordMetrics splits
	// the far counts by it and RecheckLists diffs it. nil when compiled
	// at FarOrder = 0, where every far entry is order 0.
	FarOrd []uint8
}

// NumFar returns the total far-field entry count.
func (il *InteractionLists) NumFar() int { return len(il.Far) }

// NumNear returns the total near leaf-pair count.
func (il *InteractionLists) NumNear() int { return len(il.Near) }

// MemoryBytes reports the list footprint.
func (il *InteractionLists) MemoryBytes() int64 {
	return int64(len(il.Rows)+len(il.FarOff)+len(il.Far)+
		len(il.NearOff)+len(il.Near)+len(il.SymOff)+len(il.Sym))*4 +
		int64(len(il.FarOrd))
}

// CompiledLists bundles the per-phase lists with the opening-criterion
// signature they were compiled under, so parameter changes trigger a
// recompile instead of silently evaluating stale classifications.
type CompiledLists struct {
	// bornMAC and epolFar are the base opening multipliers at compile
	// time; farOrder is the Params.FarOrder the ladder was derived from.
	bornMAC, epolFar float64
	farOrder         int
	// Born rows are q-point leaves (Figure 2); Epol rows are atom leaves
	// (Figure 3).
	Born, Epol *InteractionLists
}

// matches reports whether the cached lists were compiled under the
// system's current opening criteria.
func (cl *CompiledLists) matches(sys *System) bool {
	return cl != nil && cl.bornMAC == sys.bornMAC() && cl.epolFar == epolFarFactor(sys.Params.EpsEpol) &&
		cl.farOrder == sys.Params.FarOrder
}

// MemoryBytes reports the total compiled-list footprint.
func (cl *CompiledLists) MemoryBytes() int64 {
	return cl.Born.MemoryBytes() + cl.Epol.MemoryBytes()
}

// rowLists is one row's lists during compilation.
type rowLists struct {
	far, near, sym []int32
	// farO is the per-entry admitted order; nil when compiled at
	// FarOrder = 0.
	farO []uint8
}

// classify descends the atoms octree from node n against a row cluster
// (center, radius), splitting the subtree into far nodes and near
// leaves. It mirrors the recursive kernels exactly — including their one
// structural difference: APPROX-EPOL tests u.IsLeaf BEFORE the opening
// test (a leaf U is always evaluated exactly), while APPROX-INTEGRALS
// tests openness first (a far leaf uses the pseudo-q-point shortcut).
// leafFirst selects between the two orderings. macs/pmax are the opening
// multiplier ladder (farorder.go); pmax = 0 degenerates to the original
// single-multiplier classification.
func classify(t *octree.Tree, n int32, center geom.Vec3, radius float64, macs *[maxFarOrder + 1]float64, pmax int, leafFirst bool, out *rowLists) {
	node := &t.Nodes[n]
	if leafFirst && node.IsLeaf {
		out.near = append(out.near, n)
		return
	}
	// Loosened rungs admit INTERNAL nodes only: admitting a leaf pair
	// early has nothing to consolidate — it would trade an exact near
	// block for an approximate far entry, spending error budget while
	// GROWING the far list. A leaf therefore classifies by the base
	// multiplier alone (identical to pre-ladder), and rungs ≥ 1 fire
	// exactly where they pay: a rung admission at an internal node
	// replaces its subtree's whole far/near expansion with one entry.
	p := pmax
	if node.IsLeaf {
		p = 0
	}
	ord, far := farOrderOf(center.Sub(node.Center).Norm2(), node.Radius, radius, macs, p)
	if far {
		out.far = append(out.far, n)
		if pmax > 0 {
			out.farO = append(out.farO, uint8(ord))
		}
		return
	}
	if node.IsLeaf {
		out.near = append(out.near, n)
		return
	}
	for _, child := range node.Children {
		if child != octree.NoChild {
			classify(t, child, center, radius, macs, pmax, leafFirst, out)
		}
	}
}

// compileLists builds the CSR lists for all rows in parallel (serially
// when pool is nil). Rows are rowTree's leaves in Leaves() order, each
// classified against the atoms octree. symmetrize moves mutual near leaf
// pairs into the Sym list of the lower-indexed row (valid only when
// rowTree == atoms, i.e. the E_pol phase).
func compileLists(atoms *octree.Tree, rowTree *octree.Tree, mac float64, pmax, deg int, leafFirst bool, symmetrize bool, pool *sched.Pool) *InteractionLists {
	macs := macLadder(mac, pmax, deg)
	rows := rowTree.Leaves()
	per := make([]rowLists, len(rows))
	compileRow := func(i int) {
		rn := &rowTree.Nodes[rows[i]]
		classify(atoms, atoms.Root(), rn.Center, rn.Radius, &macs, pmax, leafFirst, &per[i])
	}
	if pool == nil {
		for i := range rows {
			compileRow(i)
		}
	} else {
		grain := len(rows)/(8*pool.NumWorkers()) + 1
		sched.ParallelFor(pool, len(rows), grain, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				compileRow(i)
			}
		})
	}
	if symmetrize {
		symmetrizeNear(rowTree, rows, per)
	}
	return assembleLists(rows, per)
}

// assembleLists packs per-row compilation results into CSR form.
func assembleLists(rows []int32, per []rowLists) *InteractionLists {
	il := &InteractionLists{
		// rows is typically the rowTree's live leaf slice, which a later
		// Tree.Update rewrites in place (rebuildLeafList) — the lists must
		// own their row ids or a cached compile silently renumbers.
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
		ns += int32(len(per[i].sym))
	}
	il.FarOff[len(rows)], il.NearOff[len(rows)], il.SymOff[len(rows)] = nf, nn, ns
	il.Far = make([]int32, 0, nf)
	il.Near = make([]int32, 0, nn)
	il.Sym = make([]int32, 0, ns)
	withFarO := false
	for i := range per {
		il.Far = append(il.Far, per[i].far...)
		il.Near = append(il.Near, per[i].near...)
		il.Sym = append(il.Sym, per[i].sym...)
		if per[i].farO != nil {
			withFarO = true
		}
	}
	if withFarO { // ladder compiles; every far entry carries its order
		il.FarOrd = make([]uint8, 0, nf)
		for i := range per {
			il.FarOrd = append(il.FarOrd, per[i].farO...)
		}
	}
	return il
}

// symmetrizeNear splits each row's near list into mutual pairs (moved to
// the lower row's sym list, swept once with double weight) and
// one-directional entries (kept in near). Mutuality must be checked
// against the ORIGINAL near sets: the leaf-first ordering of APPROX-EPOL
// can classify U near V while row U resolves V's subtree through an
// ancestor's far aggregate, and such one-way blocks must keep their
// single-direction exact evaluation to match the recursion.
func symmetrizeNear(t *octree.Tree, rows []int32, per []rowLists) {
	rowOf := make([]int32, len(t.Nodes))
	for i := range rowOf {
		rowOf[i] = -1
	}
	for i, r := range rows {
		rowOf[r] = int32(i)
	}
	sorted := make([][]int32, len(per))
	for i := range per {
		c := append([]int32(nil), per[i].near...)
		slices.Sort(c)
		sorted[i] = c
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
				per[i].sym = append(per[i].sym, u)
			}
			// else: row j already swept the mutual pair into its Sym.
		}
		per[i].near = kept
	}
}

// compile builds both phases' lists from the system's current geometry
// and parameters.
func (s *System) compile(pool *sched.Pool) *CompiledLists {
	cl := &CompiledLists{
		bornMAC:  s.bornMAC(),
		epolFar:  epolFarFactor(s.Params.EpsEpol),
		farOrder: s.Params.FarOrder,
	}
	cl.Born = compileLists(s.Atoms, s.QPts, cl.bornMAC, cl.farOrder, bornLadderDeg(s.Params.Kernel), false, false, pool)
	cl.Epol = compileLists(s.Atoms, s.Atoms, cl.epolFar, cl.farOrder, epolLadderDeg, true, true, pool)
	return cl
}

// RecordMetrics publishes the lists' static structure to the observer:
// total row/near/far/sym entry counts per phase plus per-row batch-size
// histograms (the sizes the SoA batch kernels sweep). Everything here is
// derivable from the compiled lists alone, so the hot loops in kernels.go
// carry no instrumentation at all — the counts are recorded once per
// run, off the critical path. No-op when o is nil.
func (cl *CompiledLists) RecordMetrics(o *obs.Obs) {
	if cl == nil || o == nil {
		return
	}
	rec := func(prefix string, il *InteractionLists) {
		o.Counter(prefix + ".rows").Add(int64(len(il.Rows)))
		o.Counter(prefix + ".far_entries").Add(int64(il.NumFar()))
		// Split by admitted expansion order: without a ladder every far
		// entry is order 0, so the .p0 counter always equals the total at
		// FarOrder = 0 and the three orders always sum to far_entries.
		var perOrd [maxFarOrder + 1]int64
		if il.FarOrd == nil {
			perOrd[0] = int64(il.NumFar())
		} else {
			for _, fo := range il.FarOrd {
				perOrd[fo]++
			}
		}
		for p, n := range perOrd {
			o.Counter(fmt.Sprintf("%s.far_entries.p%d", prefix, p)).Add(n)
		}
		o.Counter(prefix + ".near_pairs").Add(int64(il.NumNear()))
		o.Counter(prefix + ".sym_pairs").Add(int64(len(il.Sym)))
		rowFar := o.Histogram(prefix + ".row_far")
		rowNear := o.Histogram(prefix + ".row_near")
		for i := range il.Rows {
			rowFar.Observe(int64(il.FarOff[i+1] - il.FarOff[i]))
			near := il.NearOff[i+1] - il.NearOff[i]
			if il.SymOff != nil {
				near += il.SymOff[i+1] - il.SymOff[i]
			}
			rowNear.Observe(int64(near))
		}
	}
	rec("ilist.born", cl.Born)
	rec("ilist.epol", cl.Epol)
}

// Lists returns the system's compiled interaction lists, building them on
// first use (or after invalidation / parameter change) with the given
// pool (nil compiles serially). Safe for concurrent use: distributed
// ranks sharing the System compile once and reuse.
func (s *System) Lists(pool *sched.Pool) *CompiledLists {
	s.listsMu.Lock()
	defer s.listsMu.Unlock()
	if !s.lists.matches(s) {
		s.lists = s.compile(pool)
	}
	return s.lists
}

// RecheckLists recompiles the interaction lists from the current geometry
// and verifies the cached ones are identical — the debug recheck backing
// the rigid-transform reuse invariant. With no cached lists it is a
// no-op. It returns a descriptive error on the first divergence.
func (s *System) RecheckLists(pool *sched.Pool) error {
	// The lane-padding invariant of the SoA arrays is part of the same
	// "nothing drifted" contract the list recheck guards.
	if err := s.checkSoAPadding(); err != nil {
		return err
	}
	s.listsMu.Lock()
	cached := s.lists
	s.listsMu.Unlock()
	if cached == nil {
		return nil
	}
	if !cached.matches(s) {
		return fmt.Errorf("core: cached lists compiled under bornMAC=%g epolFar=%g farOrder=%d, system now wants %g/%g/%d",
			cached.bornMAC, cached.epolFar, cached.farOrder,
			s.bornMAC(), epolFarFactor(s.Params.EpsEpol), s.Params.FarOrder)
	}
	fresh := s.compile(pool)
	if err := diffLists("born", cached.Born, fresh.Born); err != nil {
		return err
	}
	return diffLists("epol", cached.Epol, fresh.Epol)
}

// diffLists reports the first divergence between two compiled lists.
func diffLists(phase string, a, b *InteractionLists) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("core: %s lists row count drifted: %d -> %d", phase, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return fmt.Errorf("core: %s list row %d leaf drifted: %d -> %d", phase, i, a.Rows[i], b.Rows[i])
		}
		af, bf := a.Far[a.FarOff[i]:a.FarOff[i+1]], b.Far[b.FarOff[i]:b.FarOff[i+1]]
		an, bn := a.Near[a.NearOff[i]:a.NearOff[i+1]], b.Near[b.NearOff[i]:b.NearOff[i+1]]
		as, bs := a.Sym[a.SymOff[i]:a.SymOff[i+1]], b.Sym[b.SymOff[i]:b.SymOff[i+1]]
		if !equalInt32(af, bf) {
			return fmt.Errorf("core: %s list row %d (leaf %d) far set drifted: %d -> %d entries",
				phase, i, a.Rows[i], len(af), len(bf))
		}
		if !equalInt32(an, bn) {
			return fmt.Errorf("core: %s list row %d (leaf %d) near set drifted: %d -> %d entries",
				phase, i, a.Rows[i], len(an), len(bn))
		}
		if !equalInt32(as, bs) {
			return fmt.Errorf("core: %s list row %d (leaf %d) sym set drifted: %d -> %d entries",
				phase, i, a.Rows[i], len(as), len(bs))
		}
		if (a.FarOrd == nil) != (b.FarOrd == nil) {
			return fmt.Errorf("core: %s lists disagree on order annotations (%v -> %v)",
				phase, a.FarOrd != nil, b.FarOrd != nil)
		}
		if a.FarOrd != nil {
			ao := a.FarOrd[a.FarOff[i]:a.FarOff[i+1]]
			bo := b.FarOrd[b.FarOff[i]:b.FarOff[i+1]]
			for k := range ao {
				if ao[k] != bo[k] {
					return fmt.Errorf("core: %s list row %d (leaf %d) far entry %d admitted order drifted: %d -> %d",
						phase, i, a.Rows[i], k, ao[k], bo[k])
				}
			}
		}
	}
	return nil
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
