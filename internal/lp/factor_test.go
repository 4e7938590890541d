package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestJitterPerturbsZeroCostColumns pins the retry perturbation's shape:
// it must be additive and scaled by max|c|, because the old relative
// (multiplicative) jitter was a no-op on zero-cost columns — exactly the
// tied columns that produce the degenerate pivots the retry exists to
// break.
func TestJitterPerturbsZeroCostColumns(t *testing.T) {
	p := NewProblem()
	r := p.AddRow(LE, 1)
	conv := p.AddRow(EQ, 1)
	for i := 0; i < 6; i++ {
		p.MustAddVar(0, 0, 1, []Entry{{r, 1}, {conv, 1}}) // identical zero-cost tie
	}
	s, _ := p.newSimplex(1e-10, &workspace{})
	seen := make(map[float64]bool)
	for j := 0; j < p.NumVars(); j++ {
		if s.cost[j] == 0 {
			t.Fatalf("column %d: perturbed cost still exactly zero — jitter cannot break zero-cost ties", j)
		}
		if seen[s.cost[j]] {
			t.Errorf("columns share perturbed cost %g — ties survive the jitter", s.cost[j])
		}
		seen[s.cost[j]] = true
	}
	// And the all-zero-cost degenerate instance solves under perturbation
	// with its true (unperturbed) objective of zero.
	sol, err := p.solveOnce(1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Obj != 0 {
		t.Fatalf("obj = %g, want exactly 0: Obj must be computed from true costs, not perturbed ones", sol.Obj)
	}
}

// TestJitterScalesWithCostMagnitude: with costs of magnitude ~1e8 the
// jitter must stay proportional (≈1e-10·1e8 = 1e-2 absolute) so it can
// actually move reduced costs of that scale.
func TestJitterScalesWithCostMagnitude(t *testing.T) {
	p := NewProblem()
	r := p.AddRow(LE, 1)
	p.MustAddVar(1e8, 0, 1, []Entry{{r, 1}})
	p.MustAddVar(0, 0, 1, []Entry{{r, 1}})
	s, _ := p.newSimplex(1e-10, &workspace{})
	d := s.cost[1] // jitter on the zero-cost column
	if d <= 0 || d > 1e-10*1e8*1.01 {
		t.Fatalf("zero-cost column jitter %g outside (0, ~1e-2]", d)
	}
}

// randomBasis builds a random sparse nonsingular-ish column set for
// factorization tests: a permuted diagonal (guaranteed nonsingular)
// plus random off-diagonal fill.
func randomBasis(rng *rand.Rand, m int) ([][]Entry, []int) {
	perm := rng.Perm(m)
	cols := make([][]Entry, m)
	basis := make([]int, m)
	for pos := 0; pos < m; pos++ {
		col := []Entry{{Row: perm[pos], Coef: 1 + rng.Float64()}}
		for k := 0; k < 2; k++ {
			if rng.Float64() < 0.5 {
				col = append(col, Entry{Row: rng.IntN(m), Coef: rng.Float64()*2 - 1})
			}
		}
		// Dedup rows (AddVar-style columns have unique rows).
		seen := map[int]bool{}
		ded := col[:0]
		for _, e := range col {
			if !seen[e.Row] {
				seen[e.Row] = true
				ded = append(ded, e)
			}
		}
		cols[pos] = ded
		basis[pos] = pos
	}
	return cols, basis
}

// TestFactorBasisSolves cross-checks FTRAN/BTRAN against direct
// matrix-vector products on random sparse bases, including after a
// sequence of eta updates.
func TestFactorBasisSolves(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.IntN(40)
		cols, basis := randomBasis(rng, m)
		lu := new(basisLU)
		var fw luWorkspace
		ok, dep, _ := factorBasis(&fw, lu, m, cols, basis)
		if !ok {
			t.Fatalf("trial %d: spurious dependency report %v", trial, dep)
		}
		mulB := func(w []float64) []float64 { // B·w in row space
			out := make([]float64, m)
			for pos, j := range basis {
				for _, e := range cols[j] {
					out[e.Row] += e.Coef * w[pos]
				}
			}
			return out
		}
		mulBT := func(y []float64) []float64 { // Bᵀ·y in position space
			out := make([]float64, m)
			for pos, j := range basis {
				for _, e := range cols[j] {
					out[pos] += e.Coef * y[e.Row]
				}
			}
			return out
		}
		checkClose := func(kind string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
					t.Fatalf("trial %d m=%d: %s[%d] = %g, want %g", trial, m, kind, i, got[i], want[i])
				}
			}
		}
		// FTRAN against a random structural-style column.
		a := []Entry{{Row: rng.IntN(m), Coef: 1 + rng.Float64()}}
		w := make([]float64, m)
		lu.ftranCol(a, w)
		bw := mulB(w)
		want := make([]float64, m)
		for _, e := range a {
			want[e.Row] = e.Coef
		}
		checkClose("B·ftran(a)", bw, want)
		// BTRAN against a random cost vector.
		cb := make([]float64, m)
		for i := range cb {
			cb[i] = rng.Float64()*2 - 1
		}
		y := make([]float64, m)
		lu.btran(cb, y)
		checkClose("Bᵀ·btran(c)", mulBT(y), cb)
		// A couple of eta updates, then re-check both directions.
		for u := 0; u < 3; u++ {
			pos := rng.IntN(m)
			newCol := []Entry{{Row: rng.IntN(m), Coef: 2 + rng.Float64()}, {Row: rng.IntN(m), Coef: rng.Float64()}}
			seen := map[int]bool{}
			ded := newCol[:0]
			for _, e := range newCol {
				if !seen[e.Row] {
					seen[e.Row] = true
					ded = append(ded, e)
				}
			}
			newCol = ded
			lu.ftranCol(newCol, w)
			if math.Abs(w[pos]) < 1e-6 {
				continue // would make the basis near-singular; not this test's business
			}
			cols = append(cols, newCol)
			basis[pos] = len(cols) - 1
			lu.update(pos, w)
			lu.ftranCol(a, w)
			checkClose("post-eta B·ftran(a)", mulB(w), want)
			lu.btran(cb, y)
			checkClose("post-eta Bᵀ·btran(c)", mulBT(y), cb)
		}
	}
}

// randSparseCol draws a random entering column for an m-row basis: one
// dominant entry plus up to two off-diagonal ones, rows distinct.
func randSparseCol(rng *rand.Rand, m int) []Entry {
	col := []Entry{{Row: rng.IntN(m), Coef: 1 + rng.Float64()*4}}
	for _, i := range rng.Perm(m)[:rng.IntN(min(3, m))] {
		if i != col[0].Row {
			col = append(col, Entry{Row: i, Coef: rng.Float64()*2 - 1})
		}
	}
	return col
}

// TestEtaUpdateEquivalence drives random column-replacement sequences
// through the product-form update, up to a full eta file, and checks
// every FTRAN/BTRAN against a fresh factorization of the updated basis.
// It also pins update's refactorize signal: false exactly when the eta
// file reaches maxEtas, or when the pivot is weak (|w_r| ≤
// etaWeakTol·max|w|).
func TestEtaUpdateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	const tol = 1e-8
	var fw luWorkspace
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.IntN(18)
		cols, basis := randomBasis(rng, m)
		lu := new(basisLU)
		if ok, dep, _ := factorBasis(&fw, lu, m, cols, basis); !ok {
			t.Fatalf("trial %d: spurious dependency report %v", trial, dep)
		}
		w, wRef := make([]float64, m), make([]float64, m)
		y, yRef, cb := make([]float64, m), make([]float64, m), make([]float64, m)
		for upd := 1; upd <= maxEtas; upd++ {
			// Replace a random basis position with a fresh random column,
			// redrawing until the pivot is comfortably strong so the
			// sequence can run all the way to a full eta file.
			var r int
			var newCol []Entry
			for {
				r = rng.IntN(m)
				newCol = randSparseCol(rng, m)
				lu.ftranCol(newCol, w)
				if math.Abs(w[r]) >= 1e-2*maxAbs(w) {
					break
				}
			}
			healthy := lu.update(r, w)
			if want := upd < maxEtas; healthy != want {
				t.Fatalf("trial %d: update %d returned %v, want %v (eta file %d of %d)",
					trial, upd, healthy, want, len(lu.etas), maxEtas)
			}
			cols = append(cols, newCol)
			basis[r] = len(cols) - 1

			// Reference: factor the updated basis from scratch.
			ref := new(basisLU)
			if ok, dep, _ := factorBasis(&fw, ref, m, cols, basis); !ok {
				t.Fatalf("trial %d update %d: updated basis reported dependent %v", trial, upd, dep)
			}
			probe := []Entry{{Row: rng.IntN(m), Coef: rng.Float64()*4 - 2}}
			if i := rng.IntN(m); i != probe[0].Row {
				probe = append(probe, Entry{Row: i, Coef: rng.Float64()*4 - 2})
			}
			lu.ftranCol(probe, w)
			ref.ftranCol(probe, wRef)
			for i := 0; i < m; i++ {
				if d := math.Abs(w[i] - wRef[i]); d > tol*(1+math.Abs(wRef[i])) {
					t.Fatalf("trial %d update %d: FTRAN mismatch at %d: %g vs %g", trial, upd, i, w[i], wRef[i])
				}
			}
			for i := range cb {
				cb[i] = rng.Float64()*2 - 1
			}
			lu.btran(cb, y)
			ref.btran(cb, yRef)
			for i := 0; i < m; i++ {
				if d := math.Abs(y[i] - yRef[i]); d > tol*(1+math.Abs(yRef[i])) {
					t.Fatalf("trial %d update %d: BTRAN mismatch at %d: %g vs %g", trial, upd, i, y[i], yRef[i])
				}
			}
		}
	}
}

// TestEtaUpdateWeakPivot pins the other refactorize signal: an entering
// column whose FTRAN image has |w_r| ≤ etaWeakTol·max|w| makes update
// report false even with a nearly empty eta file, while a small but
// not weak pivot keeps it healthy.
func TestEtaUpdateWeakPivot(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	const m = 8
	var fw luWorkspace
	for _, tc := range []struct {
		wr   float64 // pivot of the entering column's FTRAN image
		want bool
	}{
		{0, false},
		{etaWeakTol / 4, false},
		{1e-6, true},
		{1, true},
	} {
		cols, basis := randomBasis(rng, m)
		lu := new(basisLU)
		if ok, _, _ := factorBasis(&fw, lu, m, cols, basis); !ok {
			t.Fatal("random basis reported dependent")
		}
		// Build a = B·v with v_r = tc.wr and the other entries of order
		// one, so FTRAN(a) recovers v: max|w| = 1 and w_r = tc.wr up to
		// round-off far below the etaWeakTol band.
		const r = 3
		v := make([]float64, m)
		for i := range v {
			v[i] = 0.5 + 0.5*rng.Float64()
		}
		v[0] = 1
		v[r] = tc.wr
		dense := make([]float64, m)
		for pos, j := range basis {
			for _, e := range cols[j] {
				dense[e.Row] += e.Coef * v[pos]
			}
		}
		var a []Entry
		for i, c := range dense {
			if c != 0 {
				a = append(a, Entry{Row: i, Coef: c})
			}
		}
		w := make([]float64, m)
		lu.ftranCol(a, w)
		if got := lu.update(r, w); got != tc.want {
			t.Errorf("w_r = %g (FTRAN gave %g, max|w| = %g): update = %v, want %v",
				tc.wr, w[r], maxAbs(w), got, tc.want)
		}
	}
}

// maxAbs returns max_i |v_i|.
func maxAbs(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		mx = math.Max(mx, math.Abs(x))
	}
	return mx
}

// TestFactorBasisReportsDependency: duplicated and zero columns must be
// reported (aligned with the rows left unpivoted), not silently factored.
func TestFactorBasisReportsDependency(t *testing.T) {
	// B = [e0+e1, e0+e1, e2]: positions 0 and 1 are dependent.
	cols := [][]Entry{
		{{Row: 0, Coef: 1}, {Row: 1, Coef: 1}},
		{{Row: 0, Coef: 1}, {Row: 1, Coef: 1}},
		{{Row: 2, Coef: 1}},
	}
	var fw luWorkspace
	ok, depPos, depRows := factorBasis(&fw, new(basisLU), 3, cols, []int{0, 1, 2})
	if ok {
		t.Fatal("dependent basis factored without complaint")
	}
	if len(depPos) != 1 || len(depRows) != 1 {
		t.Fatalf("dependency report: positions %v rows %v, want one of each", depPos, depRows)
	}
	if depPos[0] != 0 && depPos[0] != 1 {
		t.Fatalf("dependent position %d, want 0 or 1", depPos[0])
	}
	if depRows[0] != 0 && depRows[0] != 1 {
		t.Fatalf("unpivoted row %d, want 0 or 1", depRows[0])
	}

	// An all-zero column: same story.
	cols = [][]Entry{{{Row: 0, Coef: 1}}, nil, {{Row: 2, Coef: 1}}}
	ok, depPos, depRows = factorBasis(&fw, new(basisLU), 3, cols, []int{0, 1, 2})
	if ok {
		t.Fatal("zero column factored without complaint")
	}
	if len(depPos) != 1 || depPos[0] != 1 || len(depRows) != 1 || depRows[0] != 1 {
		t.Fatalf("dependency report: positions %v rows %v, want [1] [1]", depPos, depRows)
	}
}

// TestRepairRecoversSingularBasis drives the simplex-level repair: a
// warm-start snapshot that declares two dependent columns basic must be
// repaired (or rejected) — never crash, never return a wrong optimum.
func TestRepairRecoversSingularBasis(t *testing.T) {
	p := NewProblem()
	r1 := p.AddRow(LE, 4)
	r2 := p.AddRow(LE, 6)
	// Two identical columns: any basis holding both is singular.
	p.MustAddVar(-1, 0, 10, []Entry{{r1, 1}, {r2, 1}})
	p.MustAddVar(-1, 0, 10, []Entry{{r1, 1}, {r2, 1}})
	b := &Basis{Vars: []VarStatus{StatusBasic, StatusBasic}, Rows: []VarStatus{StatusLower, StatusLower}}
	sol, err := p.SolveFrom(b)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-(-4)) > 1e-8 {
		t.Fatalf("status %v obj %g, want optimal -4", sol.Status, sol.Obj)
	}
}
