package sparse

import (
	"errors"
	"math"

	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// ErrNotConverged is returned when an iterative solve fails to reach the
// requested tolerance within its iteration budget. Near the thermal
// runaway limit lambda_m the system G - i*D becomes arbitrarily
// ill-conditioned, so callers must handle this error rather than assume
// convergence. It carries tecerr.CodeDiverged.
var ErrNotConverged error = tecerr.New(tecerr.CodeDiverged, "sparse.cg",
	"sparse: conjugate gradient did not converge")

// ErrBreakdown is returned when CG encounters a non-positive curvature
// direction, which signals that the operator is not positive definite
// (e.g. the supply current exceeded lambda_m). It carries
// tecerr.CodeNotPD.
var ErrBreakdown error = tecerr.New(tecerr.CodeNotPD, "sparse.cg",
	"sparse: conjugate gradient breakdown (matrix not positive definite)")

// Preconditioner applies z = M^{-1} r for a symmetric positive definite
// approximation M of the system matrix.
type Preconditioner interface {
	Apply(z, r []float64)
}

// IdentityPreconditioner performs no preconditioning.
type IdentityPreconditioner struct{}

// Apply copies r into z.
func (IdentityPreconditioner) Apply(z, r []float64) { copy(z, r) }

// JacobiPreconditioner scales by the inverse diagonal of the matrix.
type JacobiPreconditioner struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
// Zero diagonal entries are treated as 1 to stay well-defined.
func NewJacobi(a *CSR) *JacobiPreconditioner {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if num.IsZero(v) {
			inv[i] = 1
		} else {
			inv[i] = 1 / v
		}
	}
	return &JacobiPreconditioner{invDiag: inv}
}

// Apply computes z = D^{-1} r.
func (p *JacobiPreconditioner) Apply(z, r []float64) {
	for i, v := range r {
		z[i] = v * p.invDiag[i]
	}
}

// CGOptions configures a conjugate-gradient solve.
type CGOptions struct {
	// Tol is the relative residual tolerance ||r|| <= Tol * ||b||.
	// Defaults to 1e-10.
	Tol float64
	// MaxIter caps the iteration count. Defaults to 10*n.
	MaxIter int
	// Precond supplies the preconditioner. Defaults to Jacobi.
	Precond Preconditioner
	// DivergenceWindow is how many consecutive residual-growth
	// iterations the divergence guard tolerates before aborting with a
	// tecerr.CodeDiverged error (the residual must also sit well above
	// its best value, so preconditioned non-monotonicity on healthy
	// systems never trips it). <= 0 selects the default of 25.
	DivergenceWindow int
}

// CGResult reports solve statistics.
type CGResult struct {
	X          []float64
	Iterations int
	Residual   float64 // final relative residual
}

// SolveCG solves the symmetric positive definite system A x = b with the
// preconditioned conjugate gradient method. The result always carries
// the iteration count and final relative residual (even on a
// non-convergence or divergence error); when observability is enabled
// they are also reported under "sparse.cg.*".
func SolveCG(a *CSR, b []float64, opt CGOptions) (*CGResult, error) {
	r := obs.Enabled()
	if r == nil {
		return solveCG(a, b, opt)
	}
	start := r.Now()
	res, err := solveCG(a, b, opt)
	r.Counter("sparse.cg.solves").Inc()
	r.Histogram("sparse.cg.solve_ns").Observe(clampNS(r.Now() - start))
	if res != nil {
		r.Histogram("sparse.cg.iterations").Observe(uint64(res.Iterations))
		r.Gauge("sparse.cg.last_iterations").Set(int64(res.Iterations))
		r.FloatGauge("sparse.cg.last_residual").Set(res.Residual)
	}
	switch {
	case errors.Is(err, ErrNotConverged):
		r.Counter("sparse.cg.not_converged").Inc()
	case errors.Is(err, ErrBreakdown):
		r.Counter("sparse.cg.breakdowns").Inc()
	case errors.Is(err, tecerr.ErrDiverged):
		r.Counter("sparse.cg.diverged").Inc()
	}
	return res, err
}

// solveCG is the uninstrumented CG implementation.
func solveCG(a *CSR, b []float64, opt CGOptions) (*CGResult, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.cg",
			"sparse: CG needs a square matrix, have %dx%d", n, a.Cols())
	}
	if len(b) != n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.cg",
			"sparse: CG rhs length %d, want %d", len(b), n)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
		if opt.MaxIter < 100 {
			opt.MaxIter = 100
		}
	}
	if opt.Precond == nil {
		opt.Precond = NewJacobi(a)
	}
	if opt.DivergenceWindow <= 0 {
		opt.DivergenceWindow = 25
	}

	// The iteration starts from x = 0, so the initial residual is b.
	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b)
	normB := norm2(b)
	if num.IsZero(normB) {
		return &CGResult{X: x, Iterations: 0, Residual: 0}, nil
	}

	z := make([]float64, n)
	opt.Precond.Apply(z, r)
	p := make([]float64, n)
	copy(p, z)
	rz := dot(r, z)
	ap := make([]float64, n)

	// Divergence-guard state: the best residual seen and the length of
	// the current run of consecutive residual increases.
	best := math.Inf(1)
	prev := math.Inf(1)
	growth := 0

	for k := 1; k <= opt.MaxIter; k++ {
		if err := faults.Check(faults.SiteCGIteration); err != nil {
			return &CGResult{X: x, Iterations: k - 1, Residual: prev}, err
		}
		a.MulVecTo(ap, p)
		pap := dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, ErrBreakdown
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		res := faults.Float64(faults.SiteCGResidual, norm2(r)/normB)
		if res <= opt.Tol {
			return &CGResult{X: x, Iterations: k, Residual: res}, nil
		}
		// Divergence guard. A NaN/Inf residual can never recover; a long
		// run of strictly growing residuals sitting far above the best
		// one means the iteration is actively diverging (ill-conditioned
		// system near lambda_m, or a perturbed operator) and burning the
		// remaining budget would be pointless.
		if math.IsNaN(res) || math.IsInf(res, 0) {
			return &CGResult{X: x, Iterations: k, Residual: res},
				tecerr.Newf(tecerr.CodeDiverged, "sparse.cg",
					"sparse: CG residual became %g at iteration %d (best %.3g)", res, k, best)
		}
		if res > prev {
			growth++
		} else {
			growth = 0
		}
		if res < best {
			best = res
		}
		prev = res
		if growth >= opt.DivergenceWindow && res > 10*best {
			return &CGResult{X: x, Iterations: k, Residual: res},
				tecerr.Newf(tecerr.CodeDiverged, "sparse.cg",
					"sparse: CG diverging: residual grew for %d consecutive iterations to %.3g at iteration %d (best %.3g)",
					growth, res, k, best)
		}
		opt.Precond.Apply(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return &CGResult{X: x, Iterations: opt.MaxIter, Residual: norm2(r) / normB}, ErrNotConverged
}

// clampNS converts a clock difference to a histogram value, flooring
// negative diffs (possible only with a misbehaving injected clock) at
// zero.
func clampNS(d int64) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d)
}

func dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func norm2(x []float64) float64 {
	return math.Sqrt(dot(x, x))
}
