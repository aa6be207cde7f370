package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// coldstart regenerates the cold-path measurement (DESIGN.md §10): the
// time from raw coordinates to a ready octree under the recursive vs
// Morton builders, and the interaction-list compile against the compute
// it serves.
func coldstart(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	pool := sched.NewPool(0)
	defer pool.Close()

	t1 := &Table{
		ID:    "coldstart-build",
		Title: "Cold octree construction: recursive vs Morton radix build (best of reps)",
		Columns: []string{"Atoms", "Recursive (ms)", "Morton serial (ms)",
			"Morton pooled (ms)", "Serial speedup", "Pooled speedup"},
	}
	for _, n := range []int{1000, 10000, 100000} {
		mol := molecule.GenProtein(fmt.Sprintf("cold-%d", n), n, cfg.Seed)
		pts := mol.Positions()
		rec := bestBuildMS(pts, octree.Options{}, cfg.Repetitions)
		ser := bestBuildMS(pts, octree.Options{Builder: octree.BuilderMorton}, cfg.Repetitions)
		par := bestBuildMS(pts, octree.Options{Builder: octree.BuilderMorton, Pool: pool}, cfg.Repetitions)
		t1.AddRow(n, rec, ser, par,
			fmt.Sprintf("%.2fx", rec/ser), fmt.Sprintf("%.2fx", rec/par))
	}
	t1.Notes = append(t1.Notes,
		"best-of-reps wall times; both builders produce node-identical trees (TestMortonBuildMatchesRecursive)",
		"pooled numbers depend on available cores — on a single-core host they track the serial column")
	t2, err := coldLists(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{t1, t2}, nil
}

// coldLists times the cold interaction-list compile of GenProtein
// molecules on a 2-worker pool — System.InvalidateLists then
// System.Lists, best of reps, with the bytes allocated during the best
// compile — next to the warm shared-memory compute the lists serve.
func coldLists(cfg Config) (*Table, error) {
	pool := sched.NewPool(2)
	defer pool.Close()
	t := &Table{
		ID:    "coldstart-lists",
		Title: "Cold interaction-list compile vs the compute it serves (2-worker pool, best of reps)",
		Columns: []string{"Atoms", "Q-points", "Compile (ms)", "Allocated (MB)",
			"List bytes (MB)", "Compute (ms)"},
	}
	for _, n := range []int{20000, 40000} {
		p, err := prepare(molecule.GenProtein(fmt.Sprintf("cold-%d", n), n, cfg.Seed), core.DefaultParams())
		if err != nil {
			return nil, err
		}
		compile, alloc := math.Inf(1), 0.0
		var ms runtime.MemStats
		for i := 0; i < cfg.Repetitions; i++ {
			p.sys.InvalidateLists()
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			t0 := time.Now()
			p.sys.Lists(pool)
			d := float64(time.Since(t0).Microseconds()) / 1000
			runtime.ReadMemStats(&ms)
			if d < compile {
				compile, alloc = d, float64(ms.TotalAlloc-before)/1e6
			}
		}
		compute := math.Inf(1)
		for i := 0; i < cfg.Repetitions; i++ {
			res, err := core.RunShared(p.sys, core.SharedOptions{Pool: pool})
			if err != nil {
				return nil, err
			}
			compute = math.Min(compute, res.WallSeconds*1000)
		}
		t.AddRow(n, p.surf.NumPoints(), compile, alloc,
			float64(p.sys.Lists(pool).MemoryBytes())/1e6, compute)
	}
	t.Notes = append(t.Notes,
		"compile = System.InvalidateLists + System.Lists; allocated = runtime TotalAlloc growth during the fastest compile",
		"compute = the warm RunShared wall time (Born, push-down, E_pol) over the same lists")
	return t, nil
}

// bestBuildMS times reps cold builds of pts under opts and returns the
// fastest, in milliseconds — the standard best-of-N for cold-path wall
// timings, which strips scheduler noise without averaging in outliers.
func bestBuildMS(pts []geom.Vec3, opts octree.Options, reps int) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := octree.Build(pts, opts); err != nil {
			return 0
		}
		d := float64(time.Since(t0).Microseconds()) / 1000
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}
