package main

import (
	"fmt"

	"gbpolar"
	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// engine is one molecule's evaluation state. A facade engine drives the
// public gbpolar API, as a user would; a layered engine performs the same
// steps through the internal layers (molecule, surface, core) so that a
// traced run can time each call.
type engine struct {
	facade *gbpolar.Engine

	mol   *molecule.Molecule
	surf  *surface.Surface
	sys   *core.System
	lists *core.CompiledLists // the lists the last traced compute saw
}

// loadEngine reads a PQR file and builds an engine for it: through the
// facade (LoadMolecule, NewEngine), or layer by layer with each call timed
// on l.
func loadEngine(path string, facade bool, l *layers) (*engine, error) {
	if facade {
		mol, err := gbpolar.LoadMolecule(path)
		if err != nil {
			return nil, err
		}
		eng, err := gbpolar.NewEngine(mol, gbpolar.Options{})
		if err != nil {
			return nil, err
		}
		return &engine{facade: eng}, nil
	}
	e := &engine{}
	var err error
	l.time("molecule.parse_ms", func() { e.mol, err = molecule.LoadFile(path) })
	if err != nil {
		return nil, err
	}
	if err := e.mol.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	l.time("surface.sample_ms", func() { e.surf, err = surface.ForMolecule(e.mol, surface.Options{}) })
	if err != nil {
		return nil, err
	}
	l.time("octree.system_ms", func() { e.sys, err = core.NewSystem(e.mol, e.surf, core.DefaultParams()) })
	if err != nil {
		return nil, err
	}
	l.first("surface.qpoints", float64(e.surf.NumPoints()))
	l.first("system.bytes", float64(e.sys.MemoryBytes()))
	return e, nil
}

// repose rigidly moves the molecule, its surface and both octrees.
func (e *engine) repose(t geom.Transform, l *layers) {
	if e.facade != nil {
		e.facade.Repose(t)
		return
	}
	l.time("repose.ms", func() {
		e.mol.ApplyTransform(t)
		e.surf.ApplyTransform(t)
		e.sys.ApplyRigidTransform(t)
	})
}

// compute evaluates E_pol with the shared-memory runner on threads
// workers. A traced compute fetches (and, if stale, compiles) the
// interaction lists as its own timed call before the runner starts.
func (e *engine) compute(threads int, p probe) (*core.Result, error) {
	if e.facade != nil {
		return e.facade.Compute()
	}
	pool := sched.NewPool(threads)
	defer pool.Close()
	if p.lay != nil {
		e.lists = p.lay.compile(e.sys, pool, e.lists)
	}
	return core.RunShared(e.sys, core.SharedOptions{Pool: pool, Obs: p.obs})
}
