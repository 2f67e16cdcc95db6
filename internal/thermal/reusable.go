package thermal

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync/atomic"

	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// ReusableSystem owns one banded Cholesky factorization of the base
// matrix G and solves the whole current family (G - i*D) theta = rhs
// from it: per current it applies a Sherman-Morrison-Woodbury
// correction against the rank-2*#TEC capacitance matrix (sparse.SMW)
// instead of refactoring — the O(n*bw) fast path behind the runaway
// bisection, the current optimizer and the h_kl sweeps.
//
// The SMW eigendata also yields the spectral runaway limit
// lambda = 1/mu_max for free, so positive definiteness of G - i*D is a
// scalar comparison (PD) rather than a factorization attempt.
//
// Near the limit the capacitance matrix approaches singularity, so
// within a relative window around lambda SolveAtCurrent defers to an
// authoritative direct factorization of the shifted matrix (memoized
// for repeated solves at one current). Should the conditioning guard
// trip outside that window — or under fault injection — the same
// direct factorization answers, and the GuardedReport marks the
// result Degraded.
//
// All methods are safe for concurrent use.
type ReusableSystem struct {
	g    *sparse.CSR
	d    []float64
	perm []int
	base *Factorization
	smw  *sparse.SMW
	// lambda is the spectral runaway limit 1/mu_max (+Inf when the
	// update has no positive direction); window is the relative
	// near-limit band handled by direct factorization.
	lambda float64
	window float64
	// near memoizes the last direct factorization of G - i*D.
	near atomic.Pointer[nearFactor]
}

// GuardedReport describes which path produced a SolveAtCurrent answer.
type GuardedReport struct {
	// Method is MethodSMW for the fast path and MethodBandCholesky for
	// a direct factorization of the shifted matrix.
	Method Method
	// Degraded is true when the SMW conditioning guard tripped and the
	// direct factorization answered instead: the result is correct but
	// came off the fast path. Callers that must surface this can wrap
	// it via tecerr.CodeDegraded.
	Degraded bool
}

// nearFactor is one memoized direct factorization of G - i*D (err
// keeps a not-PD outcome without refactoring).
type nearFactor struct {
	i   float64
	f   *Factorization
	err error
}

// reusableWindow is the relative band around the spectral limit where
// solves use a direct factorization: the spectral lambda and the
// Cholesky-breakdown boundary agree only to roughly eps*kappa(G), so
// within the band the factorization attempt is the authority on
// ErrNotPD, and the near-singular capacitance matrix could not hold the
// SMW accuracy contract anyway.
const reusableWindow = 1e-6

// NewReusableSystem factors G once (reusing perm as the RCM ordering
// when non-nil) and precomputes the SMW correction data for the
// diagonal update d. It returns ErrNotPD when G itself is not positive
// definite; an SMW setup failure (degenerate update) is returned as-is,
// and callers may fall back to per-current direct factorization.
func NewReusableSystem(g *sparse.CSR, d []float64, perm []int) (*ReusableSystem, error) {
	if g.Rows() != len(d) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: diagonal update length %d, want %d", len(d), g.Rows())
	}
	base, err := Factor(g, perm)
	if err != nil {
		return nil, err
	}
	smw, err := sparse.NewSMW(d, base.Solve)
	if err != nil {
		return nil, err
	}
	rs := &ReusableSystem{
		g:      g,
		d:      d,
		perm:   base.perm,
		base:   base,
		smw:    smw,
		lambda: smw.Lambda(),
		window: reusableWindow,
	}
	if r := obs.Enabled(); r != nil {
		r.Counter("thermal.reusable.setups").Inc()
	}
	return rs, nil
}

// Lambda returns the spectral runaway limit 1/mu_max of the system
// (+Inf when it cannot run away).
func (rs *ReusableSystem) Lambda() float64 { return rs.lambda }

// Rank returns the SMW update rank (2 per deployed TEC).
func (rs *ReusableSystem) Rank() int { return rs.smw.Rank() }

// PD reports whether G - i*D is positive definite, decided spectrally
// in O(1): i < lambda. The spectral limit and the Cholesky-breakdown
// boundary agree to roughly eps*kappa(G) relative — far tighter than
// any physically meaningful probe — which makes PD the constant-time
// predicate behind the runaway bisection.
func (rs *ReusableSystem) PD(i float64) bool { return i < rs.lambda }

// SolveAtCurrent solves (G - i*D) theta = rhs. The report says which
// path produced the solution: MethodSMW for the fast path,
// MethodBandCholesky for a direct factorization (Degraded when the
// conditioning guard forced it). Currents at or beyond the runaway
// limit return ErrNotPD, matching the direct path.
func (rs *ReusableSystem) SolveAtCurrent(ctx context.Context, i float64, rhs []float64) ([]float64, *GuardedReport, error) {
	if !num.IsFinite(i) {
		return nil, nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: non-finite supply current %g", i)
	}
	if len(rhs) != len(rs.d) {
		return nil, nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: rhs length %d, want %d", len(rhs), len(rs.d))
	}
	r := obs.Enabled()
	var sp obs.Span
	if r.FlightOn() {
		// The per-solve span is the flight recorder's record of WHICH
		// regime this solve took; it exists only in flight mode so flat
		// traces stay byte-compatible. Annotate is a no-op on the zero
		// Span, so the regime paths below annotate unconditionally.
		_, sp = r.StartSpanCtx(ctx, "thermal.reusable.solve")
		sp.AnnotateFloat("current", i)
		defer sp.End()
	}
	if rs.smw.Rank() == 0 || num.IsZero(i) {
		x, err := rs.base.Solve(rhs)
		if err != nil {
			return nil, nil, err
		}
		if r != nil {
			r.Counter("thermal.reusable.smw_hits").Inc()
		}
		sp.Annotate("regime", "smw")
		return x, &GuardedReport{Method: MethodSMW}, nil
	}
	if !math.IsInf(rs.lambda, 1) {
		switch {
		case i >= rs.lambda*(1+rs.window):
			// Unambiguously beyond the limit: indefinite, like a failed
			// factorization attempt, without paying for one.
			if r != nil {
				r.Counter("thermal.reusable.beyond_limit").Inc()
			}
			sp.Annotate("regime", "beyond-limit")
			return nil, nil, ErrNotPD
		case i >= rs.lambda*(1-rs.window):
			return rs.solveNear(i, rhs, sp)
		}
	}

	y, err := rs.base.Solve(rhs)
	if err != nil {
		return nil, nil, err
	}
	cerr := rs.smw.Correct(i, y)
	if cerr == nil {
		if r != nil {
			r.Counter("thermal.reusable.smw_hits").Inc()
		}
		sp.Annotate("regime", "smw")
		return y, &GuardedReport{Method: MethodSMW}, nil
	}
	if errors.Is(cerr, tecerr.ErrInvalidInput) {
		return nil, nil, cerr
	}
	// Conditioning guard tripped (organically outside the near-limit
	// window only for pathological spectra, or under fault injection):
	// the direct factorization of G - i*D answers, as inside the window.
	if r != nil {
		r.Counter("thermal.reusable.fallbacks").Inc()
	}
	sp.Annotate("guard_reason", tecerr.CodeOf(cerr).String())
	x, rep, err := rs.solveDirect(i, rhs, sp)
	if err != nil {
		return nil, nil, err
	}
	rep.Degraded = true
	return x, rep, nil
}

// solveNear handles currents inside the near-limit window, where the
// direct factorization is the authority on ErrNotPD.
func (rs *ReusableSystem) solveNear(i float64, rhs []float64, sp obs.Span) ([]float64, *GuardedReport, error) {
	if r := obs.Enabled(); r != nil {
		r.Counter("thermal.reusable.near_limit").Inc()
	}
	return rs.solveDirect(i, rhs, sp)
}

// solveDirect solves at current i with a memoized direct factorization
// of G - i*D: deterministic, and amortized across repeated solves at
// one current (the h_kl column sweeps solve many right-hand sides at
// the same i).
func (rs *ReusableSystem) solveDirect(i float64, rhs []float64, sp obs.Span) ([]float64, *GuardedReport, error) {
	sp.Annotate("regime", "direct")
	nf := rs.near.Load()
	memo := nf != nil && num.ExactEqual(nf.i, i)
	sp.Annotate("near_memo", strconv.FormatBool(memo))
	if !memo {
		f, err := Factor(rs.g.AddScaledDiag(-i, rs.d), rs.perm)
		nf = &nearFactor{i: i, f: f, err: err}
		rs.near.Store(nf)
	}
	if nf.err != nil {
		return nil, nil, nf.err
	}
	x, err := nf.f.Solve(rhs)
	if err != nil {
		return nil, nil, err
	}
	return x, &GuardedReport{Method: MethodBandCholesky}, nil
}
