package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/num"
)

func residual(a *CSR, x, b []float64) float64 {
	r := a.MulVec(x)
	var s float64
	for i := range r {
		d := b[i] - r[i]
		s += d * d
	}
	return math.Sqrt(s) / (1 + norm2(b))
}

func TestCGSolvesSmallSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 20, 0.2)
	want := make([]float64, 20)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := a.MulVec(want)
	res, err := SolveCG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("SolveCG: %v", err)
	}
	if r := residual(a, res.X, b); r > 1e-10 {
		t.Fatalf("residual = %v", r)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(2)), 5, 0.5)
	res, err := SolveCG(a, make([]float64, 5), CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.X {
		if !num.IsZero(v) {
			t.Fatal("nonzero solution for zero rhs")
		}
	}
	if res.Iterations != 0 {
		t.Fatalf("Iterations = %d, want 0", res.Iterations)
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	// [-1 0; 0 -1] is negative definite: CG must report breakdown.
	b := NewBuilder(2, 2)
	b.Add(0, 0, -1)
	b.Add(1, 1, -1)
	_, err := SolveCG(b.Build(), []float64{1, 1}, CGOptions{})
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("err = %v, want ErrBreakdown", err)
	}
}

func TestCGDimensionErrors(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(4)), 4, 0.5)
	if _, err := SolveCG(a, []float64{1, 2}, CGOptions{}); err == nil {
		t.Error("expected rhs length error")
	}
	rect := NewBuilder(2, 3).Build()
	if _, err := SolveCG(rect, []float64{1, 2}, CGOptions{}); err == nil {
		t.Error("expected non-square error")
	}
}

func TestCGNotConverged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 50, 0.1)
	b := make([]float64, 50)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, err := SolveCG(a, b, CGOptions{Tol: 1e-14, MaxIter: 1, Precond: IdentityPreconditioner{}})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

func TestIC0BeatsJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := gridLaplacian(40, 40) // 1600-node 2D grid, the thermal-model shape
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	jac, err := SolveCG(a, b, CGOptions{Tol: 1e-10, Precond: NewJacobi(a)})
	if err != nil {
		t.Fatalf("Jacobi CG: %v", err)
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	icg, err := SolveCG(a, b, CGOptions{Tol: 1e-10, Precond: ic})
	if err != nil {
		t.Fatalf("IC0 CG: %v", err)
	}
	if icg.Iterations >= jac.Iterations {
		t.Fatalf("IC0 iterations %d >= Jacobi %d", icg.Iterations, jac.Iterations)
	}
	if r := residual(a, icg.X, b); r > 1e-8 {
		t.Fatalf("IC0 residual %v", r)
	}
}

func TestIC0Breakdown(t *testing.T) {
	// An indefinite matrix must be rejected.
	b := NewBuilder(2, 2)
	b.AddSym(0, 1, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if _, err := NewIC0(b.Build()); !errors.Is(err, ErrBreakdown) {
		t.Fatalf("err = %v, want ErrBreakdown", err)
	}
	// NewBestPreconditioner must fall back to Jacobi, not fail.
	if p := NewBestPreconditioner(b.Build()); p == nil {
		t.Fatal("NewBestPreconditioner returned nil")
	}
}

// TestCGIterationCountRegression pins the exact iteration counts CG
// needs on a reference 2D grid Laplacian under each preconditioner.
// The solve is serial and float arithmetic is deterministic, so the
// counts are stable; a change here means the CG kernel or a
// preconditioner changed numerically and the CG-vs-direct solver
// ablation may have shifted too.
func TestCGIterationCountRegression(t *testing.T) {
	a := gridLaplacian(24, 24)
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Preconditioner
		want int
	}{
		{"identity", IdentityPreconditioner{}, 107},
		{"jacobi", NewJacobi(a), 106},
		{"ic0", ic, 40},
	}
	for _, tc := range cases {
		res, err := SolveCG(a, b, CGOptions{Tol: 1e-10, Precond: tc.p})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Iterations != tc.want {
			t.Errorf("%s: %d iterations, want %d", tc.name, res.Iterations, tc.want)
		}
		if res.Residual > 1e-10 {
			t.Errorf("%s: final residual %g above tolerance", tc.name, res.Residual)
		}
	}
}

// gridLaplacian builds the 5-point Laplacian of an nx x ny grid with a
// small positive shift (Dirichlet-like legs), mimicking a thermal layer.
func gridLaplacian(nx, ny int) *CSR {
	idx := func(x, y int) int { return y*nx + x }
	b := NewBuilder(nx*ny, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			if x+1 < nx {
				b.AddSym(i, idx(x+1, y), -1)
				b.Add(i, i, 1)
				b.Add(idx(x+1, y), idx(x+1, y), 1)
			}
			if y+1 < ny {
				b.AddSym(i, idx(x, y+1), -1)
				b.Add(i, i, 1)
				b.Add(idx(x, y+1), idx(x, y+1), 1)
			}
			b.Add(i, i, 0.01)
		}
	}
	return b.Build()
}

// Property: CG solution satisfies the system for random SPD matrices under
// every preconditioner.
func TestCGPreconditionersAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		a := randomSPD(rng, n, 0.3)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for _, p := range []Preconditioner{IdentityPreconditioner{}, NewJacobi(a), NewBestPreconditioner(a)} {
			res, err := SolveCG(a, b, CGOptions{Tol: 1e-11, Precond: p})
			if err != nil {
				return false
			}
			if residual(a, res.X, b) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
