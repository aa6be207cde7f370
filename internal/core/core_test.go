package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// testSystem builds a molecule+surface+system for n atoms.
func testSystem(t testing.TB, n int, seed int64, params Params) (*System, *molecule.Molecule, *surface.Surface) {
	t.Helper()
	mol := molecule.GenProtein("core-test", n, seed)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	return sys, mol, surf
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// A point charge at the center of a spherical solute of radius a has
// Born radius exactly a — the analytic anchor for the whole r⁶ pipeline.
func TestNaiveBornRadiusSphereAnalytic(t *testing.T) {
	for _, a := range []float64{2.0, 5.0, 17.0} {
		surf, err := surface.SphereSurface(geom.Vec3{}, a, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		mol := &molecule.Molecule{Atoms: []molecule.Atom{{Charge: 1, Radius: 1.0}}}
		r := NaiveBornRadii(mol, surf, mathx.Exact)
		// The icosphere underestimates the sphere slightly; level 4 is
		// within a fraction of a percent.
		if relErr(r[0], a) > 0.01 {
			t.Errorf("sphere radius %v: Born radius %v (rel err %.4f)", a, r[0], relErr(r[0], a))
		}
	}
}

// Off-center charges must have smaller Born radii (closer to the
// surface ⇒ stronger solvent interaction), monotonically in the offset.
func TestNaiveBornRadiusSphereOffCenterMonotone(t *testing.T) {
	a := 10.0
	surf, err := surface.SphereSurface(geom.Vec3{}, a, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, off := range []float64{0, 2, 4, 6, 8} {
		mol := &molecule.Molecule{Atoms: []molecule.Atom{
			{Pos: geom.V(off, 0, 0), Charge: 1, Radius: 1.0},
		}}
		r := NaiveBornRadii(mol, surf, mathx.Exact)[0]
		if r >= prev {
			t.Fatalf("Born radius not decreasing with offset: %.3f at offset %v (prev %.3f)", r, off, prev)
		}
		prev = r
	}
}

// A single atom's GB self-energy is the Born formula −τ/2·q²/R.
func TestNaiveEpolSingleAtomBornFormula(t *testing.T) {
	mol := &molecule.Molecule{Atoms: []molecule.Atom{{Charge: -1, Radius: 2}}}
	e := NaiveEpol(mol, []float64{3.0}, 80, mathx.Exact)
	want := -0.5 * 332.0636 * (1 - 1.0/80) / 3.0
	if relErr(e, want) > 1e-12 {
		t.Errorf("self energy %v want %v", e, want)
	}
}

// The Section II far-field condition guarantees the r⁻⁶ kernel is
// approximated within relative error ε: if d > (rA+rQ)·macFactor(ε),
// then ((d+s)/(d−s))⁶ ≤ 1+ε.
func TestMacFactorErrorBound(t *testing.T) {
	f := func(epsRaw, sRaw, slackRaw float64) bool {
		eps := math.Mod(math.Abs(epsRaw), 2.0)
		if eps == 0 || math.IsNaN(eps) {
			return true
		}
		s := math.Mod(math.Abs(sRaw), 100) + 1e-6
		slack := 1 + math.Mod(math.Abs(slackRaw), 10) // d strictly beyond the bound
		d := s * strictMACFactor(eps) * slack
		ratio := (d + s) / (d - s)
		return math.Pow(ratio, 6) <= 1+eps+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMacFactorEdge(t *testing.T) {
	for _, f := range []func(float64) float64{strictMACFactor, looseMACFactor} {
		if !math.IsInf(f(0), 1) {
			t.Error("MAC factor at ε=0 should be +Inf (never approximate)")
		}
		if f(0.9) < 1 {
			t.Errorf("factor(0.9) = %v", f(0.9))
		}
		// Smaller ε ⇒ stricter (larger) factor.
		if f(0.1) <= f(0.9) {
			t.Error("MAC factor not decreasing in ε")
		}
	}
	// The strict bound is always at least as conservative as the loose one.
	for _, eps := range []float64{0.1, 0.5, 0.9, 2.0} {
		if strictMACFactor(eps) < looseMACFactor(eps) {
			t.Errorf("strict factor below loose at ε=%v", eps)
		}
	}
}

// ε = 0 disables all approximation: the octree traversal must reproduce
// the naïve results up to floating-point summation order.
func TestEpsZeroMatchesNaive(t *testing.T) {
	params := Params{EpsBorn: 1e-12, EpsEpol: 1e-12, EpsSolv: 80, LeafCap: 8}
	sys, mol, surf := testSystem(t, 250, 71, params)
	res, err := RunShared(sys, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	naiveR := NaiveBornRadii(mol, surf, mathx.Exact)
	for i := range naiveR {
		if relErr(res.BornRadii[i], naiveR[i]) > 1e-9 {
			t.Fatalf("atom %d: octree radius %v, naive %v", i, res.BornRadii[i], naiveR[i])
		}
	}
	naiveE := NaiveEpol(mol, naiveR, 80, mathx.Exact)
	if relErr(res.Epol, naiveE) > 1e-9 {
		t.Fatalf("octree E=%v naive E=%v", res.Epol, naiveE)
	}
}

// At the paper's headline setting ε = 0.9/0.9 the energy error vs naive
// must stay in the paper's observed band (|error| well below 5%; the
// paper reports <1% for CMV and a few % across ZDock).
func TestEnergyErrorSmallAtHeadlineEps(t *testing.T) {
	sys, mol, surf := testSystem(t, 600, 72, DefaultParams())
	res, err := RunShared(sys, SharedOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	naiveE, naiveR := NaiveEnergy(mol, surf, 80, mathx.Exact)
	if naiveE >= 0 {
		t.Fatalf("naive E_pol %v not negative", naiveE)
	}
	if e := relErr(res.Epol, naiveE); e > 0.05 {
		t.Errorf("energy error %.2f%% at eps 0.9 exceeds 5%%", 100*e)
	}
	// Born radii individually within the kernel bound (1+ε)^{1/3} ≈ 1.24.
	for i := range naiveR {
		if relErr(res.BornRadii[i], naiveR[i]) > 0.30 {
			t.Fatalf("atom %d Born radius error %.1f%%", i, 100*relErr(res.BornRadii[i], naiveR[i]))
		}
	}
}

// Error decreases as ε shrinks (the paper's Figure 10 trend), and ops
// increase.
func TestErrorAndWorkTrendWithEps(t *testing.T) {
	mol := molecule.GenProtein("trend", 500, 73)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naiveE, _ := NaiveEnergy(mol, surf, 80, mathx.Exact)
	var errs, ops []float64
	for _, eps := range []float64{0.1, 0.5, 0.9} {
		sys, err := NewSystem(mol, surf, Params{EpsBorn: 0.9, EpsEpol: eps, EpsSolv: 80})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunShared(sys, SharedOptions{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, relErr(res.Epol, naiveE))
		ops = append(ops, res.Ops)
	}
	if ops[0] <= ops[2] {
		t.Errorf("ops at eps 0.1 (%v) not larger than at 0.9 (%v)", ops[0], ops[2])
	}
	if errs[0] > 0.05 {
		t.Errorf("error at eps 0.1 = %.2f%%, too large", errs[0]*100)
	}
}

func TestHistogramsConserveCharge(t *testing.T) {
	sys, mol, _ := testSystem(t, 400, 74, DefaultParams())
	radii := make([]float64, mol.NumAtoms())
	for i := range radii {
		radii[i] = 1.5 + 0.1*float64(i%20)
	}
	ctx := NewEpolContext(sys, radii)
	// Root histogram sums to total charge.
	var rootSum float64
	for _, q := range ctx.hist[sys.Atoms.Root()] {
		rootSum += q
	}
	if relErr(rootSum, mol.TotalCharge()) > 1e-9 {
		t.Errorf("root histogram sum %v, total charge %v", rootSum, mol.TotalCharge())
	}
	// Every node's histogram sums to the charge under it.
	for ni := range sys.Atoms.Nodes {
		n := &sys.Atoms.Nodes[ni]
		var want float64
		for s := n.Start; s < n.End; s++ {
			want += sys.Charge[s]
		}
		var got float64
		for _, q := range ctx.hist[ni] {
			got += q
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("node %d histogram sum %v, charge %v", ni, got, want)
		}
	}
}

func TestApproximateMathShiftsSlightly(t *testing.T) {
	mol := molecule.GenProtein("amath", 300, 75)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewSystem(mol, surf, Params{EpsBorn: 0.9, EpsEpol: 0.9, EpsSolv: 80, Math: mathx.Exact})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewSystem(mol, surf, Params{EpsBorn: 0.9, EpsEpol: 0.9, EpsSolv: 80, Math: mathx.Approximate})
	if err != nil {
		t.Fatal(err)
	}
	re, err := RunShared(exact, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := RunShared(approx, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if re.Epol == ra.Epol {
		t.Log("approximate math produced bit-identical energy (kernels very accurate) — acceptable")
	}
	if relErr(ra.Epol, re.Epol) > 0.01 {
		t.Errorf("approximate math changed energy by %.2f%% — too much", 100*relErr(ra.Epol, re.Epol))
	}
}

func TestNewSystemErrors(t *testing.T) {
	mol := molecule.GenProtein("err", 50, 76)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(&molecule.Molecule{}, surf, DefaultParams()); err == nil {
		t.Error("empty molecule accepted")
	}
	if _, err := NewSystem(mol, &surface.Surface{}, DefaultParams()); err == nil {
		t.Error("empty surface accepted")
	}
	if _, err := NewSystem(mol, surf, Params{EpsBorn: math.NaN(), EpsEpol: 1, EpsSolv: 80}); err == nil {
		t.Error("NaN eps accepted")
	}
}

func TestSegment(t *testing.T) {
	// Segments tile [0,n) without gaps or overlaps for any P.
	for _, n := range []int{0, 1, 7, 100, 101} {
		for _, p := range []int{1, 2, 3, 12} {
			at := 0
			for i := 0; i < p; i++ {
				lo, hi := segment(n, p, i)
				if lo != at {
					t.Fatalf("n=%d p=%d: segment %d starts at %d, want %d", n, p, i, lo, at)
				}
				at = hi
			}
			if at != n {
				t.Fatalf("n=%d p=%d: segments end at %d", n, p, at)
			}
		}
	}
}

func TestBornFromIntegralClamps(t *testing.T) {
	k := mathx.ForMode(mathx.Exact)
	if r := bornFromIntegral(-1, 1.5, k); r != 150 {
		t.Errorf("negative integral: %v, want clamp 150", r)
	}
	if r := bornFromIntegral(1e30, 1.5, k); r != 1.5 {
		t.Errorf("huge integral: %v, want vdW clamp 1.5", r)
	}
	// 1/R³ = s/4π with s = 4π/8 gives R = 2.
	if r := bornFromIntegral(4*math.Pi/8, 1.5, k); relErr(r, 2) > 1e-12 {
		t.Errorf("inversion: %v want 2", r)
	}
}

func TestDeterministicSharedRun(t *testing.T) {
	params := DefaultParams()
	sys, _, _ := testSystem(t, 300, 77, params)
	a, err := RunShared(sys, SharedOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShared(sys, SharedOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Per-worker accumulation order varies with stealing, so allow tiny
	// floating-point differences but nothing more.
	if relErr(a.Epol, b.Epol) > 1e-9 {
		t.Errorf("two runs differ: %v vs %v", a.Epol, b.Epol)
	}
}

func TestRandomMoleculesOctreeVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 3; trial++ {
		n := 150 + rng.Intn(250)
		mol := molecule.GenProtein("rand", n, rng.Int63())
		surf, err := surface.ForMolecule(mol, surface.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(mol, surf, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunShared(sys, SharedOptions{Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		naiveE, _ := NaiveEnergy(mol, surf, 80, mathx.Exact)
		if e := relErr(res.Epol, naiveE); e > 0.06 {
			t.Errorf("trial %d (n=%d): energy error %.2f%%", trial, n, 100*e)
		}
	}
}

// Parameters are validated before defaulting: only the zero value means
// "default", and every out-of-range value fails with ErrInvalidParams
// instead of being silently replaced.
func TestParamsValidatedBeforeDefaulting(t *testing.T) {
	mol := molecule.GenProtein("params", 40, 3)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"zero value", Params{}, true},
		{"explicit values kept", Params{EpsBorn: 0.5, EpsSolv: 2, LeafCap: 16}, true},
		{"negative EpsBorn", Params{EpsBorn: -1}, false},
		{"NaN EpsBorn", Params{EpsBorn: math.NaN()}, false},
		{"negative EpsEpol", Params{EpsEpol: -0.5}, false},
		{"infinite EpsEpol", Params{EpsEpol: math.Inf(1)}, false},
		{"EpsSolv below 1", Params{EpsSolv: 0.5}, false},
		{"EpsSolv of 1", Params{EpsSolv: 1}, false},
		{"negative EpsSolv", Params{EpsSolv: -80}, false},
		{"NaN EpsSolv", Params{EpsSolv: math.NaN()}, false},
		{"negative LeafCap", Params{LeafCap: -3}, false},
		{"FarOrder above 2", Params{FarOrder: 3}, false},
		{"negative FarOrder", Params{FarOrder: -1}, false},
		{"unknown math mode", Params{Math: 7}, false},
		{"unknown kernel", Params{Kernel: 9}, false},
		{"unknown precision", Params{Precision: 9}, false},
		{"unknown builder", Params{Builder: 9}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(mol, surf, tc.p)
			if !tc.ok {
				if !errors.Is(err, ErrInvalidParams) {
					t.Fatalf("got %v, want ErrInvalidParams", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.p.withDefaults(); sys.Params != want {
				t.Fatalf("params %+v, want %+v", sys.Params, want)
			}
		})
	}
	if (Params{}).withDefaults() != DefaultParams() {
		t.Fatal("zero Params do not default to DefaultParams")
	}
}
