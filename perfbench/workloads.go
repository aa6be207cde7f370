package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"

	"gbpolar"
	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/sched"
)

// Workload sizes, in atoms, at scale 1.
const (
	oneshotAtoms  = 20000
	posescanAtoms = 20000
	mdstepAtoms   = 5000
	clusterAtoms  = 20000
)

const (
	// mdSigma is the per-step Gaussian displacement of every atom, in Å.
	mdSigma = 0.05
	// poseShift bounds each pose's translation per axis, in Å.
	poseShift = 10.0
	// clusterProcs is the rank count of the distributed workload; each
	// rank runs one worker thread.
	clusterProcs = 2

	// Output tolerances, relative: rigid motion must leave E_pol
	// unchanged, the distributed runner must reproduce the shared one,
	// and the compiled lists must reproduce the recursive traversal.
	poseTol      = 1e-9
	clusterTol   = 1e-12
	recursiveTol = 1e-9
	// maxRelErr is the sanity bound on the approximation's error against
	// the exact reference (the paper's ε = 0.9 setting gives about 1%).
	maxRelErr = 0.05
)

// Accuracy probes: epol_rel_err is the mean relative error of E_pol
// against the exact quadratic reference over these fixed molecules, at
// their full size in every run (smoke runs included). The error of one
// molecule swings from 0.06% to 5% with the geometry (a 0.05 Å jiggle is
// enough), so a seeded geometry cannot give a steady figure; fixed probes
// make the metric move only when the program's accuracy does.
const probeAtoms = 3000

var probeSeeds = []int64{1, 2, 3}

// runOneshot: cold "PQR file → E_pol" on a fresh 20,000-atom molecule per
// evaluation. The timed call is LoadMolecule → NewEngine → Compute. Each
// set-up repetition is one such evaluation on a warm-up molecule of its
// own, so the process's one-time costs (the kernel-rate calibration,
// growing the heap to its working size) do not land on a timed one.
func runOneshot(b *bench) error {
	atoms := b.atoms(oneshotAtoms)
	b.atomsPerEval = atoms
	_, err := b.setup(func(rep int, l *layers) (*engine, error) {
		path, err := b.writeProtein(fmt.Sprintf("oneshot-warmup-%d", rep), atoms, b.subSeed("oneshot-warmup", rep))
		if err != nil {
			return nil, err
		}
		e, err := loadEngine(path, !b.cfg.traced, l)
		if err != nil {
			return nil, err
		}
		res, err := e.compute(b.threads, probe{lay: l})
		if err == nil {
			err = finiteEpol(res)
		}
		return e, err
	})
	if err != nil {
		return err
	}

	var files []string
	var res *core.Result
	var firstEpol float64
	haveFirst := false
	b.measure(evaluation{
		prep: func(i int) error {
			path, err := b.writeProtein(fmt.Sprintf("oneshot-%d", i), atoms, b.subSeed("oneshot", i))
			files = append(files, path) // files[i], also when err != nil
			if err != nil {
				return err
			}
			// Start every evaluation from a collected heap, so the
			// previous molecule's garbage is not collected on its time.
			runtime.GC()
			return nil
		},
		timed: func(i int, p probe) error {
			e, err := loadEngine(files[i], !b.cfg.traced, p.lay)
			if err != nil {
				return err
			}
			res, err = e.compute(b.threads, p)
			return err
		},
		check: func(i int, _ probe) error {
			if err := finiteEpol(res); err != nil {
				return err
			}
			if i == 0 {
				firstEpol, haveFirst = res.Epol, true
			}
			b.recordModel(res)
			return nil
		},
	})

	b.check("first molecule matches the recursive reference", func() error {
		if !haveFirst {
			return errors.New("the first evaluation failed")
		}
		e, err := loadEngine(files[0], false, nil)
		if err != nil {
			return err
		}
		ref, err := core.RunShared(e.sys, core.SharedOptions{Threads: b.threads, Recursive: true})
		if err != nil {
			return err
		}
		return within("compiled vs recursive E_pol", firstEpol, ref.Epol, recursiveTol)
	})
	return b.accuracy()
}

// runPosescan: a warm docking scan. The set-up builds a 20,000-atom engine
// and runs its first Compute, which compiles the interaction lists; each
// evaluation is a seeded random rigid Repose followed by Compute.
func runPosescan(b *bench) error {
	atoms := b.atoms(posescanAtoms)
	b.atomsPerEval = atoms
	path, err := b.writeProtein("posescan", atoms, b.subSeed("posescan", 0))
	if err != nil {
		return err
	}
	var e0 float64 // the pre-scan E_pol every pose must reproduce
	e, err := b.setup(func(_ int, l *layers) (*engine, error) {
		e, err := loadEngine(path, !b.cfg.traced, l)
		if err != nil {
			return nil, err
		}
		res, err := e.compute(b.threads, probe{lay: l})
		if err == nil {
			err = finiteEpol(res)
		}
		if err != nil {
			return nil, err
		}
		e0 = res.Epol
		return e, nil
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(b.subSeed("poses", 0)))
	pose := geom.Identity()
	var step geom.Transform // moves the molecule from the previous pose to the next
	var res *core.Result
	b.measure(evaluation{
		prep: func(int) error {
			next := geom.Translate(geom.V(
				(2*rng.Float64()-1)*poseShift, (2*rng.Float64()-1)*poseShift, (2*rng.Float64()-1)*poseShift,
			)).Compose(geom.Euler(2*math.Pi*rng.Float64(), math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()))
			step, pose = next.Compose(pose.Inverse()), next
			return nil
		},
		timed: func(_ int, p probe) error {
			e.repose(step, p.lay)
			res, err = e.compute(b.threads, p)
			return err
		},
		check: func(int, probe) error {
			if err := finiteEpol(res); err != nil {
				return err
			}
			b.recordModel(res)
			return within("pose E_pol vs pre-scan E_pol", res.Epol, e0, poseTol)
		},
	})
	return b.accuracy()
}

// runMdstep: flexible-molecule steps on a 5,000-atom protein with the
// surface held fixed. Each step displaces every atom from its starting
// position by a seeded Gaussian (σ = mdSigma), then calls
// System.UpdateAtoms and Compute, which recompiles the interaction lists.
func runMdstep(b *bench) error {
	atoms := b.atoms(mdstepAtoms)
	b.atomsPerEval = atoms
	path, err := b.writeProtein("mdstep", atoms, b.subSeed("mdstep", 0))
	if err != nil {
		return err
	}
	e, err := b.setup(func(_ int, l *layers) (*engine, error) {
		e, err := loadEngine(path, false, l)
		if err != nil {
			return nil, err
		}
		res, err := e.compute(b.threads, probe{lay: l})
		if err == nil {
			err = finiteEpol(res)
		}
		if err != nil {
			return nil, err
		}
		return e, nil
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(b.subSeed("steps", 0)))
	ref := e.mol.Positions()
	pos := make([]geom.Vec3, len(ref))
	var res *core.Result
	b.measure(evaluation{
		prep: func(int) error {
			for i, r := range ref {
				pos[i] = r.Add(geom.V(rng.NormFloat64()*mdSigma, rng.NormFloat64()*mdSigma, rng.NormFloat64()*mdSigma))
			}
			return nil
		},
		timed: func(_ int, p probe) error {
			var moved int
			p.lay.time("octree.update_ms", func() { moved, err = e.sys.UpdateAtoms(pos) })
			if err != nil {
				return err
			}
			p.lay.first("octree.moved_atoms", float64(moved))
			res, err = e.compute(b.threads, p)
			return err
		},
		check: func(int, probe) error {
			if err := finiteEpol(res); err != nil {
				return err
			}
			b.recordModel(res)
			return nil
		},
	})

	b.check("last step matches the recursive reference", func() error {
		if res == nil {
			return errors.New("no step succeeded")
		}
		last, err := core.RunShared(e.sys, core.SharedOptions{Threads: b.threads})
		if err != nil {
			return err
		}
		ref, err := core.RunShared(e.sys, core.SharedOptions{Threads: b.threads, Recursive: true})
		if err != nil {
			return err
		}
		return within("compiled vs recursive E_pol", last.Epol, ref.Epol, recursiveTol)
	})
	return b.accuracy()
}

// runCluster: the paper's Figure 4 distributed run on a warm 20,000-atom
// System, with clusterProcs ranks of one thread each, in modeled mode with
// a pinned kernel rate. The set-up builds the System and compiles its
// lists.
func runCluster(b *bench) error {
	atoms := b.atoms(clusterAtoms)
	b.atomsPerEval = atoms
	path, err := b.writeProtein("cluster", atoms, b.subSeed("cluster", 0))
	if err != nil {
		return err
	}
	e, err := b.setup(func(_ int, l *layers) (*engine, error) {
		e, err := loadEngine(path, false, l)
		if err != nil {
			return nil, err
		}
		pool := sched.NewPool(b.threads)
		e.lists = l.compile(e.sys, pool, nil)
		pool.Close()
		return e, nil
	})
	if err != nil {
		return err
	}
	shared, err := core.RunShared(e.sys, core.SharedOptions{Threads: b.threads})
	if err != nil {
		return fmt.Errorf("shared reference: %w", err)
	}

	cfg := cluster.Config{
		Procs:          clusterProcs,
		ThreadsPerProc: 1,
		RanksPerNode:   clusterProcs,
		Topology:       cluster.Lonestar4(1),
		Mode:           cluster.Modeled,
		OpsPerSecond:   pinnedOpsPerSecond,
	}
	var res *core.Result
	b.measure(evaluation{
		timed: func(_ int, p probe) error {
			if p.lay != nil {
				e.lists = p.lay.compile(e.sys, nil, e.lists)
			}
			c := cfg
			c.Obs = p.obs
			res, err = core.RunDistributed(e.sys, c)
			return err
		},
		check: func(_ int, p probe) error {
			if err := finiteEpol(res); err != nil {
				return err
			}
			b.modelS = append(b.modelS, res.ModelSeconds)
			p.lay.clusterReport(res.Report)
			return within("distributed vs shared E_pol", res.Epol, shared.Epol, clusterTol)
		},
	})
	return b.accuracy()
}

// accuracy measures epol_rel_err on the fixed probes (untraced runs only;
// it is an end-to-end metric) and checks it against maxRelErr.
func (b *bench) accuracy() error {
	if b.cfg.traced {
		return nil
	}
	debug.FreeOSMemory()
	var sum float64
	for _, seed := range probeSeeds {
		mol := gbpolar.GenerateProtein(fmt.Sprintf("probe-%d", seed), probeAtoms, seed)
		eng, err := gbpolar.NewEngine(mol, gbpolar.Options{})
		if err != nil {
			return fmt.Errorf("accuracy probe: %w", err)
		}
		res, err := eng.Compute()
		if err != nil {
			return fmt.Errorf("accuracy probe: %w", err)
		}
		exact, _ := eng.ComputeNaive()
		sum += math.Abs(res.Epol-exact) / math.Abs(exact)
	}
	b.relErr = sum / float64(len(probeSeeds))
	b.check("approximation error against the exact reference", func() error {
		if !(b.relErr <= maxRelErr) {
			return fmt.Errorf("mean relative E_pol error %g exceeds %g", b.relErr, maxRelErr)
		}
		return nil
	})
	return nil
}

func finiteEpol(res *core.Result) error {
	if res == nil {
		return errors.New("no result")
	}
	if math.IsNaN(res.Epol) || math.IsInf(res.Epol, 0) || res.Epol == 0 {
		return fmt.Errorf("E_pol %v is not a finite non-zero energy", res.Epol)
	}
	return nil
}

// within reports an error when got differs from want by more than tol,
// relative to |want|.
func within(what string, got, want, tol float64) error {
	if d := math.Abs(got-want) / math.Abs(want); !(d <= tol) {
		return fmt.Errorf("%s: %.17g vs %.17g (relative difference %.3g > %g)", what, got, want, d, tol)
	}
	return nil
}
