package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"gbpolar/internal/bench/gate"
	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// This file is the performance regression gate (`gbbench -baseline` /
// `-compare`, `make perfgate`): the fixed gate workload — a traced
// 4-rank resilient run with one injected crash — is measured N times,
// each repetition reduced to the analyzer's summary stats, and the
// per-stat medians snapshotted into results/baseline.json. A compare run
// re-measures and fails when any tracked stat regresses beyond a
// noise-aware relative tolerance: a per-axis floor plus a multiple of
// the observed run-to-run spread on both sides. The statistical core
// (median/spread reduction, tolerance policy, comparison) lives in
// internal/bench/gate so the live anomaly watchdog (internal/obs/watch)
// shares it; this file keeps the gate workload itself. See DESIGN.md §9.

const (
	gateProcs     = 4
	gateCrashRank = 1
	gateCrashNth  = 2

	// gateOpsPerSecond pins the cost model instead of calibrating it, so
	// the virtual-axis stats are machine-independent: a baseline written
	// on one host compares cleanly on another, and only the wall-axis
	// stats carry real hardware speed.
	gateOpsPerSecond = 1e9
)

// GateStat re-exports the gate package's per-stat distribution.
type GateStat = gate.Stat

// Baseline re-exports the persisted gate snapshot (results/baseline.json).
type Baseline = gate.Baseline

// GateRow re-exports one stat's baseline-vs-current verdict.
type GateRow = gate.Row

// CompareBaselines judges current against base stat-by-stat (see
// gate.Compare).
func CompareBaselines(base, current *Baseline) (rows []GateRow, ok bool) {
	return gate.Compare(base, current)
}

// FprintGate renders the comparison (see gate.Fprint).
func FprintGate(w io.Writer, rows []GateRow, verbose bool) error {
	return gate.Fprint(w, rows, verbose)
}

// ReadBaseline loads a baseline written by Baseline.WriteFile.
func ReadBaseline(path string) (*Baseline, error) { return gate.ReadBaseline(path) }

// gateRun executes the gate workload once against a prepared system:
// the 4-rank resilient OCT_MPI replay with rank 1 crashing at its 2nd
// collective, fully traced.
func gateRun(p *prepared, seed int64, o *obs.Obs) error {
	cc := cluster.Config{
		Topology:       cluster.Lonestar4(1),
		Procs:          gateProcs,
		ThreadsPerProc: 1,
		RanksPerNode:   gateProcs,
		OpsPerSecond:   gateOpsPerSecond,
		Seed:           seed,
		Faults: &cluster.FaultPlan{Faults: []cluster.Fault{
			{Kind: cluster.CrashAtCollective, Rank: gateCrashRank, Nth: gateCrashNth},
		}},
		Obs: o,
	}
	_, err := core.RunDistributedResilient(p.sys, cc)
	return err
}

// gatePrepare builds the gate molecule/system once; repetitions reuse it
// so the warm compiled-list path is what the gate times.
func gatePrepare(atoms int, seed int64) (*prepared, error) {
	mol := molecule.GenProtein(fmt.Sprintf("gate-%d", atoms), atoms, seed)
	return prepare(mol, paperParams(mathx.Exact))
}

// gateBuildStats is the "build" measurement class: one cold octree
// construction per builder over the gate molecule's atom positions,
// timed wall-clock. The stat names carry "wall" so the comparison
// applies the generous wall-clock tolerance floor — these are real
// timings, not modeled ones.
func gateBuildStats(p *prepared) (map[string]float64, error) {
	pts := p.mol.Positions()
	out := make(map[string]float64, 2)
	for _, b := range []struct {
		stat    string
		builder octree.Builder
	}{
		{"build.recursive.wall_ms", octree.BuilderRecursive},
		{"build.morton.wall_ms", octree.BuilderMorton},
	} {
		t0 := time.Now()
		if _, err := octree.Build(pts, octree.Options{Builder: b.builder}); err != nil {
			return nil, fmt.Errorf("bench: gate %s: %w", b.stat, err)
		}
		out[b.stat] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return out, nil
}

// gateCompileStat is the "compile" measurement class: a cold
// interaction-list compile of the gate system (InvalidateLists, then
// Lists on a GOMAXPROCS-wide pool), best of 2, in wall milliseconds. The
// name carries "wall" so the comparison applies the wall-clock floor.
func gateCompileStat(p *prepared) float64 {
	pool := sched.NewPool(0)
	defer pool.Close()
	best := math.Inf(1)
	for rep := 0; rep < 2; rep++ {
		p.sys.InvalidateLists()
		t0 := time.Now()
		p.sys.Lists(pool)
		best = math.Min(best, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return best
}

// GateSamples measures the gate workload reps times and returns one
// analyzer summary per repetition, each merged with the compiled-list
// footprint and the cold-build stats. The first (warm-up) run is
// discarded so list compilation and pool growth don't pollute the wall
// stats.
func GateSamples(atoms, reps int, seed int64) ([]map[string]float64, error) {
	p, err := gatePrepare(atoms, seed)
	if err != nil {
		return nil, err
	}
	if err := gateRun(p, seed, nil); err != nil { // warm-up
		return nil, err
	}
	samples := make([]map[string]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		o := obs.New()
		if err := gateRun(p, seed, o); err != nil {
			return nil, err
		}
		s := analyze.FromTrace(o.Trace).Summary()
		// The lists the run just swept. The name carries no wall/sched
		// marker, so the gate holds it to the strict floor.
		s["mem.lists.bytes"] = float64(p.sys.Lists(nil).MemoryBytes())
		s["ilist.compile.wall_ms"] = gateCompileStat(p)
		builds, err := gateBuildStats(p)
		if err != nil {
			return nil, err
		}
		for k, v := range builds {
			s[k] = v
		}
		kernels, err := gateKernelStats(p)
		if err != nil {
			return nil, err
		}
		for k, v := range kernels {
			s[k] = v
		}
		fars, err := gateFarStats(p)
		if err != nil {
			return nil, err
		}
		for k, v := range fars {
			s[k] = v
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// gateFarStats is the "far" perfgate measurement class: the warm pose
// scan of the gate molecule at each far-field multipole order, best-of-2
// per-pose wall milliseconds. It keeps the order-0 path honest (the
// ladder branch in bornRow must stay off the FarOrder=0 fast path) and
// pins the correction kernels' cost at orders 1 and 2. Stat names carry
// "wall" so the comparison applies the wall-clock tolerance floor.
func gateFarStats(p *prepared) (map[string]float64, error) {
	sys := p.sys
	saved := sys.Params
	defer func() { sys.Params = saved }()
	step := geom.Translate(geom.V(0.9, 0.4, -1.1)).Compose(geom.RotateAxis(geom.V(1, 1, 0), 0.04))
	out := make(map[string]float64, 3)
	for ord := 0; ord <= 2; ord++ {
		sys.Params = saved
		sys.Params.FarOrder = ord
		if _, err := core.RunShared(sys, core.SharedOptions{}); err != nil { // order warm-up (recompiles lists)
			return nil, err
		}
		best := math.Inf(1)
		for rep := 0; rep < 2; rep++ {
			sys.ApplyRigidTransform(step)
			t0 := time.Now()
			if _, err := core.RunShared(sys, core.SharedOptions{}); err != nil {
				return nil, err
			}
			if ms := float64(time.Since(t0)) / float64(time.Millisecond); ms < best {
				best = ms
			}
		}
		out[fmt.Sprintf("far.p%d.wall_ms", ord)] = best
	}
	return out, nil
}

// BuildBaseline reduces per-repetition summaries to median + spread per
// stat (see gate.Reduce) and stamps the gate workload's shape.
func BuildBaseline(samples []map[string]float64, atoms int, seed int64) *Baseline {
	return &Baseline{
		Schema: gate.Schema,
		Atoms:  atoms, Procs: gateProcs,
		Reps: len(samples), Seed: seed,
		Stats: gate.Reduce(samples),
	}
}
