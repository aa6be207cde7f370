package core

import (
	"fmt"
	"math"
	"testing"
)

// The opening-criterion ladder: slot 0 must be the base multiplier
// EXACTLY (the FarOrder=0 bit-identity hinges on it), slot 1 stays
// pinned at the base (the centroid already cancels the dipole, so a
// dipole-only rung buys accuracy, not admission), and slot 2 must
// loosen while spending exactly the base criterion's certified
// worst-case tail.
func TestMACLadder(t *testing.T) {
	// binom(k+m−1, k): the Gegenbauer coefficient bound for an |x|^−m
	// kernel, recomputed independently of macLadder's recurrence.
	coeff := func(k, m int) float64 {
		a := 1.0
		for i := 1; i <= k; i++ {
			a *= float64(i+m-1) / float64(i)
		}
		return a
	}
	tailSum := func(tv float64, p, m int) float64 {
		s := math.Pow(1-tv, -float64(m))
		for k := 0; k <= p; k++ {
			s -= coeff(k, m) * math.Pow(tv, float64(k))
		}
		return s
	}
	for _, m := range []int{1, 4, 6} {
		for _, mac0 := range []float64{1.05, 1.5, 2.0, 5.0, 20.0} {
			macs := macLadder(mac0, maxFarOrder, m)
			if macs[0] != mac0 {
				t.Fatalf("m=%d mac0=%g: slot 0 is %g, must be the base multiplier exactly", m, mac0, macs[0])
			}
			if macs[1] != mac0 {
				t.Errorf("m=%d mac0=%g: slot 1 is %g, must stay pinned at the base", m, mac0, macs[1])
			}
			t0 := 1 / mac0
			b := tailSum(t0, 0, m)
			if macs[2] >= mac0 {
				t.Errorf("m=%d mac0=%g: rung 2 (%g) does not loosen the base (%g)", m, mac0, macs[2], mac0)
			}
			if macs[2] <= 1 {
				t.Errorf("m=%d mac0=%g: rung 2 is %g, must stay above 1", m, mac0, macs[2])
			}
			// The rung solves "neglected tail at order 2 == the base
			// criterion's certified tail" to bisection precision.
			if g := tailSum(1/macs[2], 2, m) - b; math.Abs(g) > 1e-9*(1+b) {
				t.Errorf("m=%d mac0=%g rung 2: residual %g", m, mac0, g)
			}
		}
	}
	// A steeper kernel must loosen LESS at the same base (its neglected
	// coefficients grow faster).
	c1, c6 := macLadder(2, maxFarOrder, 1), macLadder(2, maxFarOrder, 6)
	if c6[2] <= c1[2] {
		t.Errorf("rung 2: degree-6 multiplier %g not above degree-1's %g", c6[2], c1[2])
	}
	// ε→0 is expressed as an infinite multiplier ("never far"); the
	// ladder must propagate it rather than divide by it.
	inf := macLadder(math.Inf(1), maxFarOrder, 6)
	for p, m := range inf {
		if !math.IsInf(m, 1) {
			t.Errorf("infinite base: rung %d is %g", p, m)
		}
	}
	// pmax=0 keeps every slot at the base, and so does degree 0 — the
	// flat ladder of the E_pol phase, whose Coulomb-limit corrections
	// must not buy admission (farorder.go).
	for _, flat := range [][maxFarOrder + 1]float64{macLadder(1.3, 0, 6), macLadder(1.3, maxFarOrder, 0)} {
		for p, m := range flat {
			if m != 1.3 {
				t.Errorf("flat ladder: slot %d is %g, want base", p, m)
			}
		}
	}
}

func farOrderParams(order int, eps float64) Params {
	p := DefaultParams()
	p.FarOrder = order
	if eps > 0 {
		p.EpsBorn, p.EpsEpol = eps, eps
	}
	return p
}

// At FarOrder 1 and 2 the compiled batch kernels must still reproduce
// the recursive reference traversals (both paths admit by the same
// ladder and add the same moment corrections, so they agree to
// summation-order noise like the order-0 suite).
func TestFarOrderCompiledMatchesRecursive(t *testing.T) {
	for _, order := range []int{1, 2} {
		for _, kern := range []BornKernel{R6, R4} {
			for _, eps := range []float64{0.5, 1.5} {
				t.Run(fmt.Sprintf("p%d/%v/eps=%g", order, kern, eps), func(t *testing.T) {
					p := farOrderParams(order, eps)
					p.Kernel = kern
					sys, _, _ := testSystem(t, 260, 97, p)
					compareCompiledRecursive(t, sys, 1e-12)
				})
			}
		}
	}
}

// FarOrder=0 must not grow any per-entry order metadata: the admitted
// orders array stays nil so the hot loops take the moment-free path.
func TestFarOrderZeroCompilesNoOrders(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 98, DefaultParams())
	lists := sys.Lists(nil)
	if lists.Born.FarOrd != nil || lists.Epol.FarOrd != nil {
		t.Fatal("FarOrder=0 compiled non-nil FarOrd")
	}
	sys2, _, _ := testSystem(t, 200, 98, farOrderParams(2, 0))
	lists2 := sys2.Lists(nil)
	if lists2.Born.FarOrd == nil || lists2.Epol.FarOrd == nil {
		t.Fatal("FarOrder=2 compiled nil FarOrd")
	}
	if len(lists2.Born.FarOrd) != len(lists2.Born.Far) || len(lists2.Epol.FarOrd) != len(lists2.Epol.Far) {
		t.Fatal("FarOrd not parallel to Far")
	}
}

// The point of the ladder: at equal ε, FarOrder=2 must consolidate the
// far field — admit interactions higher in the tree, for MATERIALLY
// fewer far entries — while the moment corrections keep the measured
// energy error at or below the order-0 level (the rung spends the base
// criterion's certified worst-case budget, and order 0 additionally
// enjoys the centroid's dipole cancellation, which the corrections
// capture exactly). The reference is a quasi-exact run (ε=1e-12 never
// fires the far field).
func TestFarOrderEqualErrorFewerEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the quasi-exact reference run")
	}
	const eps = 0.5
	ref, _, _ := testSystem(t, 600, 99, farOrderParams(0, 1e-12))
	exact, err := RunShared(ref, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var errs [2]float64
	var far [2]int
	for i, order := range []int{0, 2} {
		sys, _, _ := testSystem(t, 600, 99, farOrderParams(order, eps))
		res, err := RunShared(sys, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		errs[i] = relErr(res.Epol, exact.Epol)
		lists := sys.Lists(nil)
		far[i] = lists.Born.NumFar() + lists.Epol.NumFar()
	}
	if far[1] > far[0]*3/4 {
		t.Errorf("FarOrder=2 far entries %d not ≥25%% below order-0's %d", far[1], far[0])
	}
	if errs[1] > errs[0] {
		t.Errorf("FarOrder=2 error %.3g vs order-0 %.3g — corrections not holding equal error", errs[1], errs[0])
	}
}

// Every precision tier must stay inside its accuracy class with the
// moment corrections active (both fast tiers sit in the paper's
// approximate-math ~1e-4 class relative to the exact tier).
func TestFarOrderPrecisionTiers(t *testing.T) {
	base := farOrderParams(2, 0.5)
	sysE, _, _ := testSystem(t, 400, 101, base)
	want, err := RunShared(sysE, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tier Precision
		tol  float64
	}{
		{PrecisionLanes, 1e-4},
		{PrecisionF32, 1e-4},
	} {
		p := base
		p.Precision = tc.tier
		sys, _, _ := testSystem(t, 400, 101, p)
		res, err := RunShared(sys, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.Epol, want.Epol); e > tc.tol {
			t.Errorf("%v: Epol %v vs exact tier %v (rel %.3g > %.3g)", tc.tier, res.Epol, want.Epol, e, tc.tol)
		}
	}
}

// A FarOrder=2 snapshot round-trips with its admitted orders intact.
func TestFarOrderSnapshotRoundTrip(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 105, farOrderParams(2, 0.5))
	sys.Lists(nil)
	data, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params.FarOrder != 2 {
		t.Fatalf("FarOrder restored as %d", got.Params.FarOrder)
	}
	if err := got.RecheckLists(nil); err != nil {
		t.Fatalf("decoded lists differ from a fresh compile: %v", err)
	}
	want, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunShared(got, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epol != want.Epol {
		t.Fatalf("E_pol drifted through the snapshot: %.17g vs %.17g", res.Epol, want.Epol)
	}
}
