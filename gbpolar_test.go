package gbpolar

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"gbpolar/internal/core"
	"gbpolar/internal/geom"
)

func TestQuickstartFlow(t *testing.T) {
	mol := GenerateProtein("quick", 400, 1)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epol >= 0 {
		t.Errorf("E_pol = %v, want negative", res.Epol)
	}
	if len(res.BornRadii) != mol.NumAtoms() {
		t.Errorf("%d radii for %d atoms", len(res.BornRadii), mol.NumAtoms())
	}
	naiveE, _ := eng.ComputeNaive()
	if rel := math.Abs((res.Epol - naiveE) / naiveE); rel > 0.05 {
		t.Errorf("error vs naive %.2f%%", 100*rel)
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Error("nil molecule accepted")
	}
	if _, err := NewEngine(&Molecule{}, Options{}); err == nil {
		t.Error("empty molecule accepted")
	}
	bad := GenerateProtein("bad", 10, 2)
	bad.Atoms[0].Radius = -1
	if _, err := NewEngine(bad, Options{}); err == nil {
		t.Error("invalid molecule accepted")
	}
}

func TestComputeDistributedFacade(t *testing.T) {
	mol := GenerateProtein("dist", 300, 3)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := eng.ComputeShared(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ComputeDistributed(Cluster{Procs: 4, ThreadsPerProc: 1, Modeled: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((res.Epol-shared.Epol)/shared.Epol) > 1e-9 {
		t.Errorf("distributed %v vs shared %v", res.Epol, shared.Epol)
	}
	if res.Report == nil {
		t.Error("no cluster report")
	}
	if _, err := eng.ComputeDistributed(Cluster{}); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestReposeInvariance(t *testing.T) {
	// Rigidly re-posing the whole system must not change the energy —
	// and must not require rebuilding the engine.
	mol := GenerateProtein("pose", 250, 4)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.ComputeShared(2)
	if err != nil {
		t.Fatal(err)
	}
	eng.Repose(geom.Translate(geom.V(30, -12, 5)).Compose(geom.RotateAxis(geom.V(1, 1, 1), 1.0)))
	after, err := eng.ComputeShared(2)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs((after.Epol - before.Epol) / before.Epol); rel > 1e-9 {
		t.Errorf("energy changed by %.3g under rigid motion: %v -> %v", rel, before.Epol, after.Epol)
	}
}

// Out-of-range options fail NewEngine with the typed sentinel instead of
// being replaced by the default; zero values still mean "default".
func TestEngineRejectsBadOptions(t *testing.T) {
	mol := GenerateProtein("badopts", 30, 4)
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"explicit values", Options{EpsBorn: 0.5, EpsEpol: 0.3, SolventDielectric: 4, LeafCap: 12, FarOrder: 2}, true},
		{"negative EpsBorn", Options{EpsBorn: -1}, false},
		{"NaN EpsEpol", Options{EpsEpol: math.NaN()}, false},
		{"dielectric below 1", Options{SolventDielectric: 0.5}, false},
		{"negative LeafCap", Options{LeafCap: -3}, false},
		{"FarOrder out of range", Options{FarOrder: 5}, false},
		// The bad quadrature degree would fail the surface sampling; the
		// sentinel shows the options were checked before any sampling.
		{"checked before surface", Options{LeafCap: -1, QuadratureDegree: 99}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEngine(mol, tc.opts)
			switch {
			case tc.ok && err != nil:
				t.Fatal(err)
			case !tc.ok && !errors.Is(err, core.ErrInvalidParams):
				t.Fatalf("got %v, want core.ErrInvalidParams", err)
			case !tc.ok && !errors.Is(err, ErrInvalidParams):
				t.Fatalf("facade sentinel does not match %v", err)
			}
		})
	}
}

func TestOptionsPlumbed(t *testing.T) {
	mol := GenerateProtein("opts", 300, 5)
	loose, err := NewEngine(mol, Options{EpsEpol: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewEngine(mol, Options{EpsEpol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := loose.Compute()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tight.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Ops <= rl.Ops {
		t.Errorf("tight eps ops %v not above loose eps ops %v", rt.Ops, rl.Ops)
	}
	naive, _ := loose.ComputeNaive()
	if math.Abs((rt.Epol-naive)/naive) > math.Abs((rl.Epol-naive)/naive)+0.01 {
		t.Error("tighter eps did not improve (or hold) accuracy")
	}
}

func TestFileRoundTripViaFacade(t *testing.T) {
	dir := t.TempDir()
	mol := GenerateLigand("lig", 30, 6)
	path := filepath.Join(dir, "lig.pqr")
	if err := SaveMolecule(path, mol); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMolecule(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != 30 {
		t.Errorf("loaded %d atoms", got.NumAtoms())
	}
}

func TestMergeAndCapsid(t *testing.T) {
	rec := GenerateProtein("rec", 200, 7)
	lig := GenerateLigand("lig", 25, 8)
	cplx := MergeMolecules("cplx", rec, lig)
	if cplx.NumAtoms() != 225 {
		t.Errorf("complex has %d atoms", cplx.NumAtoms())
	}
	cap := GenerateCapsid("cap", 1000, 25, 32, 9)
	if cap.NumAtoms() != 1000 {
		t.Errorf("capsid has %d atoms", cap.NumAtoms())
	}
	eng, err := NewEngine(cap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ComputeShared(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epol >= 0 {
		t.Error("capsid energy not negative")
	}
}

func TestNumQuadraturePointsScalesWithAtoms(t *testing.T) {
	small, err := NewEngine(GenerateProtein("s", 100, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewEngine(GenerateProtein("b", 8000, 11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if big.NumQuadraturePoints() <= small.NumQuadraturePoints() {
		t.Error("q-point count did not grow with molecule size")
	}
}

func TestComputeGradientFacade(t *testing.T) {
	mol := GenerateProtein("gradf", 120, 12)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := eng.ComputeGradient()
	if len(g.Grad) != mol.NumAtoms() {
		t.Fatalf("%d gradients for %d atoms", len(g.Grad), mol.NumAtoms())
	}
	naive, _ := eng.ComputeNaive()
	if math.Abs((g.Epol-naive)/naive) > 1e-9 {
		t.Errorf("gradient energy %v != naive %v", g.Epol, naive)
	}
}

func TestComputeDistributedDynamicFacade(t *testing.T) {
	mol := GenerateProtein("dynf", 300, 13)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := eng.ComputeDistributed(Cluster{Procs: 3, Modeled: true})
	if err != nil {
		t.Fatal(err)
	}
	dyn, stats, err := eng.ComputeDistributedDynamic(Cluster{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("no stats")
	}
	if math.Abs((dyn.Epol-static.Epol)/static.Epol) > 1e-9 {
		t.Errorf("dynamic %v vs static %v", dyn.Epol, static.Epol)
	}
	if _, _, err := eng.ComputeDistributedDynamic(Cluster{}); err == nil {
		t.Error("zero procs accepted")
	}
}
