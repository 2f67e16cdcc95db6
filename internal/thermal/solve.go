package thermal

import (
	"tecopt/internal/faults"
	"tecopt/internal/mat"
	"tecopt/internal/num"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// Solver method selection for steady-state solves.
type Method int

const (
	// MethodAuto picks BandCholesky (direct, exact) — the right choice
	// for the repeated factor-and-solve pattern of the optimizer.
	MethodAuto Method = iota
	// MethodBandCholesky forces the RCM + banded direct solver.
	MethodBandCholesky
	// MethodDenseCholesky forces a dense O(n^3) factorization — the
	// paper's stated method, practical for small models and useful as a
	// reference in solver-equivalence tests.
	MethodDenseCholesky
	// MethodSMW identifies the Sherman-Morrison-Woodbury fast path of
	// ReusableSystem in solve reports: one base factorization of G,
	// corrected per current against the rank-2*#TEC capacitance matrix.
	MethodSMW
)

// String names the method for reports, trace annotations and logs.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodBandCholesky:
		return "band-cholesky"
	case MethodDenseCholesky:
		return "dense-cholesky"
	case MethodSMW:
		return "smw"
	default:
		return "unknown"
	}
}

// ErrNotPD reports that the system matrix is not positive definite, i.e.
// the operating point is at or beyond the thermal-runaway limit. It
// carries tecerr.CodeNotPD.
var ErrNotPD error = tecerr.New(tecerr.CodeNotPD, "thermal.factor",
	"thermal: system matrix not positive definite (beyond runaway limit?)")

// Factorization is a reusable direct factorization of a system matrix,
// with the RCM permutation folded in.
type Factorization struct {
	chol *sparse.BandCholesky
	perm []int // old -> new
	inv  []int // new -> old
}

// Factor computes an RCM-ordered banded Cholesky factorization of the
// symmetric positive definite matrix a. perm may be a precomputed RCM
// permutation for a's pattern (pass nil to compute one here); reusing a
// permutation across the many G - i*D factorizations of the optimizer
// saves the ordering cost, since the pattern never changes with i.
func Factor(a *sparse.CSR, perm []int) (*Factorization, error) {
	if perm == nil {
		perm = sparse.RCM(a)
	}
	ap := a.Permute(perm)
	chol, err := sparse.NewBandCholesky(ap)
	if err != nil {
		return nil, ErrNotPD
	}
	return &Factorization{chol: chol, perm: perm, inv: sparse.InvertPerm(perm)}, nil
}

// Solve solves A x = b using the factorization. A wrong-length rhs is
// reported as a tecerr.CodeInvalidInput error.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	if len(b) != len(f.perm) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.factor",
			"thermal: Factorization.Solve rhs length %d, want %d", len(b), len(f.perm))
	}
	xp, err := f.chol.Solve(sparse.PermuteVec(f.perm, b))
	if err != nil {
		return nil, err
	}
	return sparse.PermuteVec(f.inv, xp), nil
}

// SolveSteady solves G*theta = rhs with the selected method.
func SolveSteady(g *sparse.CSR, rhs []float64, m Method) ([]float64, error) {
	switch m {
	case MethodAuto, MethodBandCholesky:
		f, err := Factor(g, nil)
		if err != nil {
			return nil, err
		}
		return f.Solve(rhs)
	case MethodDenseCholesky:
		n := g.Rows()
		d := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			cols, vals := g.RowNNZ(i)
			for k, j := range cols {
				d.Set(i, j, vals[k])
			}
		}
		chol, err := mat.NewCholesky(d)
		if err != nil {
			return nil, ErrNotPD
		}
		return chol.Solve(rhs), nil
	default:
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.solve",
			"thermal: unknown method %d", m)
	}
}

// PowerVector assembles the full nodal power vector p from per-tile
// silicon powers (W): p[SilNode[t]] = tilePower[t], everything else zero.
// Joule terms for active TECs are added by the caller, which owns the
// current level.
func (pn *PackageNetwork) PowerVector(tilePower []float64) ([]float64, error) {
	if len(tilePower) != pn.NumTiles() {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.power",
			"thermal: tile power length %d, want %d", len(tilePower), pn.NumTiles())
	}
	p := make([]float64, pn.Net.NumNodes())
	for t, pw := range tilePower {
		pw = faults.Float64(faults.SitePower, pw)
		if !num.IsFinite(pw) {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.power",
				"thermal: non-finite power %g at tile %d", pw, t)
		}
		if pw < 0 {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.power",
				"thermal: negative power %g at tile %d", pw, t)
		}
		p[pn.SilNode[t]] = pw
	}
	return p, nil
}

// SiliconTemps extracts the silicon-tile temperatures (kelvin) from a
// full nodal solution.
func (pn *PackageNetwork) SiliconTemps(theta []float64) []float64 {
	out := make([]float64, pn.NumTiles())
	for t, n := range pn.SilNode {
		out[t] = theta[n]
	}
	return out
}

// PeakSilicon returns the hottest silicon tile temperature and its index.
func (pn *PackageNetwork) PeakSilicon(theta []float64) (maxK float64, tile int) {
	maxK, tile = theta[pn.SilNode[0]], 0
	for t, n := range pn.SilNode[1:] {
		if theta[n] > maxK {
			maxK, tile = theta[n], t+1
		}
	}
	return maxK, tile
}

// SolvePassive is a convenience: solve the package with the given
// per-tile powers and no TEC current (pure conduction + convection).
func (pn *PackageNetwork) SolvePassive(tilePower []float64, m Method) ([]float64, error) {
	p, err := pn.PowerVector(tilePower)
	if err != nil {
		return nil, err
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	return SolveSteady(pn.Net.G(), rhs, m)
}
