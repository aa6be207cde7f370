package octree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/wire"
)

// attachTestMoments attaches one scalar channel and one 3-channel vector
// set with deterministic pseudo-random weights.
func attachTestMoments(t *testing.T, tr *Tree, rng *rand.Rand) {
	t.Helper()
	n := tr.NumPoints()
	scalar := make([]float64, n)
	vec := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		scalar[i] = rng.Float64()*2 - 1
		for c := 0; c < 3; c++ {
			vec[c][i] = rng.Float64()*2 - 1
		}
	}
	if err := tr.AttachMoments("charge", [][]float64{scalar}, false); err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachMoments("wn", vec, true); err != nil {
		t.Fatal(err)
	}
}

// checkMomentsBruteForce recomputes every reachable node's moments
// directly over its point range and compares against the bottom-up pass.
func checkMomentsBruteForce(t *testing.T, tr *Tree, label string) {
	t.Helper()
	for _, ms := range tr.moments {
		for c := range ms.Ch {
			ch := &ms.Ch[c]
			tr.walkReachable(func(id int32) {
				nd := &tr.Nodes[id]
				var w float64
				var d geom.Vec3
				var q geom.Sym3
				for s := nd.Start; s < nd.End; s++ {
					wt := ch.w[tr.Index[s]]
					dl := tr.Pts[s].Sub(nd.Center)
					w += wt
					d = d.Add(dl.Scale(wt))
					q = q.Add(geom.Outer(dl).Scale(wt))
				}
				// Scale-aware 1e-12 agreement: the M2M recurrence must match
				// the direct sum to relative rounding, at any depth.
				near := func(a, b, scale float64) bool {
					return math.Abs(a-b) <= 1e-12*(1+scale)
				}
				wScale := math.Abs(w) + math.Abs(ch.W[id])
				qScale := 0.0
				for s := nd.Start; s < nd.End; s++ {
					dl := tr.Pts[s].Sub(nd.Center)
					qScale += math.Abs(ch.w[tr.Index[s]]) * dl.Norm2()
				}
				dScale := math.Sqrt(qScale) * math.Sqrt(wScale+1)
				ok := near(w, ch.W[id], wScale) &&
					near(d.X, ch.D[id].X, dScale) && near(d.Y, ch.D[id].Y, dScale) && near(d.Z, ch.D[id].Z, dScale) &&
					near(q.XX, ch.Q[id].XX, qScale) && near(q.YY, ch.Q[id].YY, qScale) && near(q.ZZ, ch.Q[id].ZZ, qScale) &&
					near(q.XY, ch.Q[id].XY, qScale) && near(q.XZ, ch.Q[id].XZ, qScale) && near(q.YZ, ch.Q[id].YZ, qScale)
				if !ok {
					t.Fatalf("%s: set %q ch %d node %d: bottom-up W=%v D=%v Q=%v, brute force W=%v D=%v Q=%v",
						label, ms.Name, c, id, ch.W[id], ch.D[id], ch.Q[id], w, d, q)
				}
			})
		}
	}
}

func TestMomentsMatchBruteForce(t *testing.T) {
	for _, b := range []struct {
		name    string
		builder Builder
	}{{"recursive", BuilderRecursive}, {"morton", BuilderMorton}} {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(271))
			pts := randPts(rng, 3000, 70)
			tr, err := Build(pts, Options{LeafCap: 8, Builder: b.builder})
			if err != nil {
				t.Fatal(err)
			}
			attachTestMoments(t, tr, rng)
			checkMomentsBruteForce(t, tr, "fresh build")
		})
	}
}

// TestMomentsSurviveUpdate walks a trajectory of Update calls — large
// enough jiggles that points relocate, leaves materialize and prune —
// and re-derives every node's moments by brute force after each round.
func TestMomentsSurviveUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(277))
	pts := randPts(rng, 2500, 60)
	tr, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	attachTestMoments(t, tr, rng)
	for round, d := range []float64{2.5, 2.5, 2.5, 2.5, 4.0} {
		pts = jiggle(rng, pts, d)
		moved, err := tr.Update(pts)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && moved == 0 {
			t.Fatal("jiggle relocated no points; the test exercises nothing")
		}
		checkMomentsBruteForce(t, tr, fmt.Sprintf("after Update round %d", round))
	}
}

func TestMomentsRotateWithTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	pts := randPts(rng, 1200, 50)
	tr, err := Build(pts, Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	attachTestMoments(t, tr, rng)
	// Keep an independent copy of the vector weights to rotate by hand.
	wn := tr.MomentsOf("wn")
	origW := make([][]float64, 3)
	for c := 0; c < 3; c++ {
		origW[c] = append([]float64(nil), wn.Ch[c].w...)
	}
	rot := geom.RotateAxis(geom.V(1, 2, -1), 0.7).Compose(geom.Translate(geom.V(4, -3, 9)))
	tr.ApplyTransform(rot)
	// In-place rotated per-point weight vectors must equal hand-rotated
	// ones; then the brute-force check (which uses the stored weights and
	// the transformed points) validates the per-node tensor rotation.
	for p := 0; p < tr.NumPoints(); p++ {
		v := rot.ApplyVector(geom.V(origW[0][p], origW[1][p], origW[2][p]))
		got := geom.V(wn.Ch[0].w[p], wn.Ch[1].w[p], wn.Ch[2].w[p])
		if got.Sub(v).Norm2() > 1e-24*(1+v.Norm2()) {
			t.Fatalf("point %d weight vector: got %v, want %v", p, got, v)
		}
	}
	checkMomentsBruteForce(t, tr, "after rigid transform")
}

func TestMomentsCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	pts := randPts(rng, 800, 40)
	tr, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	attachTestMoments(t, tr, rng)
	var w wire.Writer
	tr.AppendTo(&w)
	got, err := DecodeTree(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.moments) != 2 {
		t.Fatalf("decoded %d moment sets, want 2", len(got.moments))
	}
	for si, ms := range tr.moments {
		dec := got.moments[si]
		if dec.Name != ms.Name || dec.Vec != ms.Vec || len(dec.Ch) != len(ms.Ch) {
			t.Fatalf("set %d header mismatch: %+v vs %+v", si, dec, ms)
		}
		for c := range ms.Ch {
			for i := range ms.Ch[c].W {
				if ms.Ch[c].W[i] != dec.Ch[c].W[i] || ms.Ch[c].D[i] != dec.Ch[c].D[i] || ms.Ch[c].Q[i] != dec.Ch[c].Q[i] {
					t.Fatalf("set %q ch %d node %d not bit-identical after round trip", ms.Name, c, i)
				}
			}
			for p := range ms.Ch[c].w {
				if ms.Ch[c].w[p] != dec.Ch[c].w[p] {
					t.Fatalf("set %q ch %d point weight %d not bit-identical", ms.Name, c, p)
				}
			}
		}
	}
	// CompactNodes must remap the per-node arrays consistently.
	tr.CompactNodes()
	checkMomentsBruteForce(t, tr, "after CompactNodes")
}
