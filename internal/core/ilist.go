package core

import (
	"fmt"
	"slices"
	"sort"

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

// listBuf accumulates classify output: the far nodes, near leaves and,
// under a ladder, the far entries' admitted orders of consecutive rows.
type listBuf struct {
	far, near []int32
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
func classify(t *octree.Tree, n int32, center geom.Vec3, radius float64, macs *[maxFarOrder + 1]float64, pmax int, leafFirst bool, out *listBuf) {
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

// chunksPerWorker is how many row chunks compileLists cuts per worker:
// enough for work stealing to even out rows of uneven cost, few enough
// that each chunk's copy stays large.
const chunksPerWorker = 8

// compileLists builds the CSR lists of every leaf of rowTree, in
// Leaves() order, each row classified against the atoms octree.
// symmetrize moves mutual near leaf pairs into the Sym list of the
// lower-indexed row (valid only when rowTree == atoms, i.e. the E_pol
// phase). The rows are cut into fixed chunks that run in parallel on
// pool (serially when pool is nil), and the compile takes two passes
// over them:
//
//  1. Classify each row once into its worker's reused buffer, recording
//     the row's far and near counts; each chunk's output is then copied
//     once at its exact size.
//  2. Prefix-sum the counts into the offsets and copy every chunk into
//     its slice of the preallocated CSR arrays (symmetrizeNear does the
//     near half of this step for E_pol).
//
// The result does not depend on the pool: every entry lands where the
// per-row emission order puts it.
func compileLists(atoms *octree.Tree, rowTree *octree.Tree, mac float64, pmax, deg int, leafFirst bool, symmetrize bool, pool *sched.Pool) *InteractionLists {
	macs := macLadder(mac, pmax, deg)
	rows := rowTree.Leaves()
	n := len(rows)
	workers := 1
	if pool != nil {
		workers = pool.NumWorkers()
	}
	per := chunksPerWorker * workers
	ch := rowChunks{n: n, size: max(1, (n+per-1)/per), workers: workers}
	il := &InteractionLists{
		// rows is the rowTree's live leaf slice, which a later Tree.Update
		// rewrites in place (rebuildLeafList) — the lists must own their
		// row ids or a cached compile silently renumbers.
		Rows:    append([]int32(nil), rows...),
		FarOff:  make([]int32, n+1),
		NearOff: make([]int32, n+1),
		SymOff:  make([]int32, n+1),
	}
	// Pass 1: classify. Counts go to off[i+1] for the prefix sum.
	scratch := make([]listBuf, ch.workers)
	chunks := make([]listBuf, ch.count())
	forEach(pool, ch.count(), func(c, w int) {
		buf := &scratch[w]
		buf.far, buf.near, buf.farO = buf.far[:0], buf.near[:0], buf.farO[:0]
		lo, hi := ch.bounds(c)
		for i := lo; i < hi; i++ {
			buf.far, buf.near = reserve(buf.far), reserve(buf.near)
			if pmax > 0 {
				buf.farO = reserve(buf.farO)
			}
			nf, nn := len(buf.far), len(buf.near)
			rn := &rowTree.Nodes[rows[i]]
			classify(atoms, atoms.Root(), rn.Center, rn.Radius, &macs, pmax, leafFirst, buf)
			il.FarOff[i+1] = int32(len(buf.far) - nf)
			il.NearOff[i+1] = int32(len(buf.near) - nn)
		}
		chunks[c] = listBuf{far: slices.Clone(buf.far), near: slices.Clone(buf.near), farO: slices.Clone(buf.farO)}
	})

	// Pass 2: fill.
	prefixSum(il.FarOff)
	prefixSum(il.NearOff)
	il.Far = make([]int32, il.FarOff[n])
	// FarOrd stays nil unless some far entry was admitted under a ladder:
	// a snapshot decodes an empty stream as nil, and RecheckLists holds a
	// restored System's lists to a fresh compile's nil-ness.
	if pmax > 0 && len(il.Far) > 0 {
		il.FarOrd = make([]uint8, len(il.Far))
	}
	if !symmetrize {
		il.Near = make([]int32, il.NearOff[n])
		il.Sym = []int32{}
	}
	forEach(pool, ch.count(), func(c, _ int) {
		lo, _ := ch.bounds(c)
		copy(il.Far[il.FarOff[lo]:], chunks[c].far)
		if il.FarOrd != nil {
			copy(il.FarOrd[il.FarOff[lo]:], chunks[c].farO)
		}
		if !symmetrize {
			copy(il.Near[il.NearOff[lo]:], chunks[c].near)
		}
		chunks[c].far, chunks[c].farO = nil, nil
	})
	if symmetrize {
		symmetrizeNear(il, rowTree, ch, chunks, pool)
	}
	return il
}

// rowChunks cuts n rows into consecutive chunks of size rows (the last
// may be shorter), run by up to workers workers.
type rowChunks struct{ n, size, workers int }

func (ch rowChunks) count() int { return (ch.n + ch.size - 1) / ch.size }

func (ch rowChunks) bounds(c int) (lo, hi int) { return c * ch.size, min(ch.n, (c+1)*ch.size) }

// forEach calls fn(k, worker) for every k in [0, n): one k per task on
// pool, or in order on worker 0 when pool is nil. A worker runs one fn at
// a time, so fn may use per-worker scratch indexed by worker.
func forEach(pool *sched.Pool, n int, fn func(k, worker int)) {
	if pool == nil {
		for k := range n {
			fn(k, 0)
		}
		return
	}
	sched.ParallelFor(pool, n, 1, func(lo, hi, w int) {
		for k := lo; k < hi; k++ {
			fn(k, w)
		}
	})
}

// reserve doubles s's capacity once half of it is used, so one row's
// appends seldom grow it and a reused buffer reaches its peak size in
// log₂ steps rather than in append's 1.25× steps.
func reserve[T any](s []T) []T {
	if c := cap(s); 2*len(s) >= c {
		return slices.Grow(s, max(2*c-len(s), 256))
	}
	return s
}

// prefixSum turns per-row counts in off[1:] into CSR offsets.
func prefixSum(off []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// symmetrizeNear fills the E_pol phase's Near and Sym from the
// classified near entries: il.NearOff holds their offsets on entry and
// chunks[c].near the entries of chunk c's rows. A mutual pair U–V (U in
// row V's near list and V in row U's) moves to the lower row's Sym,
// swept once with double weight, and leaves the higher row; one-way
// entries and the diagonal stay in Near. Mutuality must be checked
// against the ORIGINAL near sets: the leaf-first ordering of APPROX-EPOL
// can classify U near V while row U resolves V's subtree through an
// ancestor's far aggregate, and such one-way blocks must keep their
// single-direction exact evaluation to match the recursion.
//
// The check is linear in the entry count. A counting sort builds the
// transpose of the near relation (for each row, the rows whose near list
// holds it); each row then stamps its transpose into a per-worker array
// indexed by row, after which "is this entry mutual" is one load.
func symmetrizeNear(il *InteractionLists, t *octree.Tree, ch rowChunks, chunks []listBuf, pool *sched.Pool) {
	n := ch.n
	rowOf := make([]int32, len(t.Nodes))
	for i, r := range il.Rows {
		rowOf[r] = int32(i)
	}
	pre := il.NearOff
	// entries returns row i's classified near entries.
	entries := func(i int) []int32 {
		base := pre[i/ch.size*ch.size]
		return chunks[i/ch.size].near[pre[i]-base : pre[i+1]-base]
	}

	// Transpose. The rows are cut into one block per worker, each holding
	// about an equal share of the entries and counting into its own row
	// of cur, so no two blocks share a cursor while they fill.
	nb := ch.workers
	blocks := make([]int, nb+1)
	for k := 1; k < nb; k++ {
		share := int32(int64(pre[n]) * int64(k) / int64(nb))
		blocks[k] = sort.Search(n, func(i int) bool { return pre[i] >= share })
	}
	blocks[nb] = n
	cur := make([]int32, nb*n)
	forEach(pool, nb, func(k, _ int) {
		cnt := cur[k*n : (k+1)*n]
		for i := blocks[k]; i < blocks[k+1]; i++ {
			for _, u := range entries(i) {
				cnt[rowOf[u]]++
			}
		}
	})
	tOff := make([]int32, n+1)
	var pos int32
	for j := range n {
		tOff[j] = pos
		for k := range nb {
			pos, cur[k*n+j] = pos+cur[k*n+j], pos
		}
	}
	tOff[n] = pos
	trans := make([]int32, pos)
	forEach(pool, nb, func(k, _ int) {
		next := cur[k*n : (k+1)*n]
		for i := blocks[k]; i < blocks[k+1]; i++ {
			for _, u := range entries(i) {
				j := rowOf[u]
				trans[next[j]] = int32(i)
				next[j]++
			}
		}
	})

	// Mark: a mutual entry is flipped to ^u (node ids are non-negative),
	// and the row's kept and sym counts go to NearOff/SymOff for the
	// second prefix sum. stamp[w][j] == i+1 while worker w checks row i
	// means row j's near list holds row i.
	nearOff := make([]int32, n+1)
	stamps := make([][]int32, ch.workers)
	forEach(pool, ch.count(), func(c, w int) {
		if stamps[w] == nil {
			stamps[w] = make([]int32, n)
		}
		stamp := stamps[w]
		lo, hi := ch.bounds(c)
		for i := lo; i < hi; i++ {
			mark := int32(i + 1)
			for _, j := range trans[tOff[i]:tOff[i+1]] {
				stamp[j] = mark
			}
			row := entries(i)
			var kept, sym int32
			for k, u := range row {
				j := rowOf[u]
				switch {
				case j == int32(i) || stamp[j] != mark:
					kept++
				case j > int32(i):
					sym++
					row[k] = ^u
				default: // row j already holds the mutual pair in its Sym
					row[k] = ^u
				}
			}
			nearOff[i+1], il.SymOff[i+1] = kept, sym
		}
	})

	// Split: one more prefix sum sizes the final arrays.
	prefixSum(nearOff)
	prefixSum(il.SymOff)
	il.Near = make([]int32, nearOff[n])
	il.Sym = make([]int32, il.SymOff[n])
	forEach(pool, ch.count(), func(c, _ int) {
		lo, hi := ch.bounds(c)
		nk, ns := nearOff[lo], il.SymOff[lo]
		for i := lo; i < hi; i++ {
			for _, u := range entries(i) {
				switch {
				case u >= 0:
					il.Near[nk] = u
					nk++
				case rowOf[^u] > int32(i):
					il.Sym[ns] = ^u
					ns++
				}
			}
		}
	})
	il.NearOff = nearOff
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
	cl, _ := s.fetchLists(pool)
	return cl
}

// fetchLists is Lists, also reporting whether this call compiled.
func (s *System) fetchLists(pool *sched.Pool) (cl *CompiledLists, compiled bool) {
	s.listsMu.Lock()
	defer s.listsMu.Unlock()
	if !s.lists.matches(s) {
		s.lists, compiled = s.compile(pool), true
	}
	return s.lists, compiled
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
