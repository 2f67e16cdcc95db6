package thermal

import (
	"context"
	"errors"
	"math"
	"testing"

	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// testReusable builds a reusable system over the default package with a
// synthetic mixed-sign Seebeck-like diagonal on a few TEC-adjacent
// nodes, scaled so the runaway limit is finite and well inside the
// test's current range.
func testReusable(t *testing.T) (*ReusableSystem, *sparse.CSR, []float64, []float64) {
	t.Helper()
	_, g, rhs := testPackage(t)
	d := make([]float64, g.Rows())
	// Hot rows pump heat in (+), cold rows pump it out (-): the same
	// signature core.Array writes, without needing a deployment.
	for _, k := range []int{10, 25, 40, 55} {
		d[k] = 0.08
		d[k+1] = -0.05
	}
	rs, err := NewReusableSystem(g, d, nil)
	if err != nil {
		t.Fatalf("NewReusableSystem: %v", err)
	}
	return rs, g, d, rhs
}

// directAt is the reference: refactor the shifted matrix and solve.
func directAt(t *testing.T, g *sparse.CSR, d []float64, i float64, rhs []float64) []float64 {
	t.Helper()
	f, err := Factor(g.AddScaledDiag(-i, d), nil)
	if err != nil {
		t.Fatalf("direct factorization at i=%g: %v", i, err)
	}
	x, err := f.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestReusableMatchesDirectAcrossCurrents(t *testing.T) {
	rs, g, d, rhs := testReusable(t)
	lam := rs.Lambda()
	if math.IsInf(lam, 1) || lam <= 0 {
		t.Fatalf("lambda = %v, want finite positive", lam)
	}
	if rs.Rank() != 8 {
		t.Fatalf("rank = %d, want 8", rs.Rank())
	}
	ctx := context.Background()
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
		i := frac * lam
		x, rep, err := rs.SolveAtCurrent(ctx, i, rhs)
		if err != nil {
			t.Fatalf("SolveAtCurrent(%.3g*lambda): %v", frac, err)
		}
		if rep.Method != MethodSMW || rep.Degraded {
			t.Fatalf("i=%.3g*lambda: report %+v, want clean MethodSMW", frac, rep)
		}
		want := directAt(t, g, d, i, rhs)
		for k := range want {
			if math.Abs(x[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
				t.Fatalf("i=%.3g*lambda node %d: smw %v, direct %v", frac, k, x[k], want[k])
			}
		}
	}
}

// Inside the near-limit window the solve must come from the memoized
// direct factorization (the authority on ErrNotPD there) and still
// match a fresh direct solve exactly.
func TestReusableNearLimitWindow(t *testing.T) {
	rs, g, d, rhs := testReusable(t)
	i := rs.Lambda() * (1 - 1e-7) // inside the 1e-6 relative window
	x, rep, err := rs.SolveAtCurrent(context.Background(), i, rhs)
	if err != nil {
		t.Fatalf("near-limit solve: %v", err)
	}
	if rep.Method != MethodBandCholesky {
		t.Fatalf("near-limit method = %v, want MethodBandCholesky", rep.Method)
	}
	want := directAt(t, g, d, i, rhs)
	for k := range want {
		if !num.ExactEqual(x[k], want[k]) {
			t.Fatalf("memoized near-limit solve differs at node %d", k)
		}
	}
	// Second solve at the same current reuses the memo (same backing
	// factorization, identical output).
	x2, _, err := rs.SolveAtCurrent(context.Background(), i, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range x {
		if !num.ExactEqual(x[k], x2[k]) {
			t.Fatal("memoized factorization is not deterministic")
		}
	}
}

func TestReusableBeyondLimit(t *testing.T) {
	rs, _, _, rhs := testReusable(t)
	i := rs.Lambda() * (1 + 1e-3)
	if _, _, err := rs.SolveAtCurrent(context.Background(), i, rhs); !errors.Is(err, ErrNotPD) {
		t.Fatalf("beyond-limit err = %v, want ErrNotPD", err)
	}
	if rs.PD(i) {
		t.Fatal("PD true beyond lambda")
	}
	if !rs.PD(0.5 * rs.Lambda()) {
		t.Fatal("PD false below lambda")
	}
}

// A tripped conditioning guard must answer from the direct
// factorization of the shifted matrix, flag the report Degraded, and
// match a fresh direct solve exactly.
func TestReusableGuardFallbackDegraded(t *testing.T) {
	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	defer obs.SetGlobal(prev)

	rs, g, d, rhs := testReusable(t)
	i := 0.4 * rs.Lambda()
	faults.Install(faults.New(1).Arm(faults.Rule{
		Site: faults.SiteSMWGuard,
		Kind: faults.KindNaN,
	}))
	defer faults.Uninstall()

	x, rep, err := rs.SolveAtCurrent(context.Background(), i, rhs)
	if err != nil {
		t.Fatalf("degraded solve: %v", err)
	}
	if !rep.Degraded || rep.Method != MethodBandCholesky {
		t.Fatalf("report = %+v, want Degraded MethodBandCholesky", rep)
	}
	faults.Uninstall() // reference must run clean
	want := directAt(t, g, d, i, rhs)
	for k := range want {
		if !num.ExactEqual(x[k], want[k]) {
			t.Fatalf("degraded solve node %d: %v, direct %v", k, x[k], want[k])
		}
	}
	if got := r.Counter("thermal.reusable.fallbacks").Value(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	if got := r.Counter("thermal.reusable.near_limit").Value(); got != 0 {
		t.Fatalf("near-limit counter = %d, want 0 (guard trips count as fallbacks only)", got)
	}
}

func TestReusableZeroRankAndZeroCurrent(t *testing.T) {
	_, g, rhs := testPackage(t)
	rs, err := NewReusableSystem(g, make([]float64, g.Rows()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rank() != 0 || !math.IsInf(rs.Lambda(), 1) {
		t.Fatalf("rank %d lambda %v, want 0 and +Inf", rs.Rank(), rs.Lambda())
	}
	want := directAt(t, g, make([]float64, g.Rows()), 0, rhs)
	for _, i := range []float64{0, 2.5} { // i is irrelevant when D = 0
		x, rep, err := rs.SolveAtCurrent(context.Background(), i, rhs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Method != MethodSMW {
			t.Fatalf("method = %v, want MethodSMW", rep.Method)
		}
		for k := range want {
			if math.Abs(x[k]-want[k]) > 1e-12*(1+math.Abs(want[k])) {
				t.Fatalf("zero-rank solve differs at node %d", k)
			}
		}
	}
}

func TestReusableInvalidInput(t *testing.T) {
	rs, _, _, rhs := testReusable(t)
	ctx := context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, err := rs.SolveAtCurrent(ctx, bad, rhs); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("current %v: err = %v, want CodeInvalidInput", bad, err)
		}
	}
	if _, _, err := rs.SolveAtCurrent(ctx, 0.1, rhs[:3]); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("short rhs err = %v, want CodeInvalidInput", err)
	}
	if _, err := NewReusableSystem(rs.g, make([]float64, 2), nil); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("mismatched d err = %v, want CodeInvalidInput", err)
	}
}
