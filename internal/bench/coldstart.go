package bench

import (
	"fmt"
	"time"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// coldstart regenerates the cold-path measurement (DESIGN.md §10): the
// time from raw coordinates to a ready octree under the recursive vs
// Morton builders.
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
	return []*Table{t1}, nil
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
