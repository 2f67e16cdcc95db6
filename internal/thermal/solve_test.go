package thermal

import (
	"errors"
	"math"
	"testing"

	"tecopt/internal/sparse"
)

func TestSolveSteadyMethodsAgree(t *testing.T) {
	pn := defaultPN(t, nil)
	tile := make([]float64, pn.NumTiles())
	tile[70] = 3
	tile[10] = 1
	p, err := pn.PowerVector(tile)
	if err != nil {
		t.Fatal(err)
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	g := pn.Net.G()

	band, err := SolveSteady(g, rhs, MethodBandCholesky)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := SolveSteady(g, rhs, MethodDenseCholesky)
	if err != nil {
		t.Fatal(err)
	}
	for i := range band {
		if math.Abs(band[i]-dense[i]) > 1e-6 {
			t.Fatalf("band vs dense at node %d: %v vs %v", i, band[i], dense[i])
		}
	}
}

func TestSolveSteadyUnknownMethod(t *testing.T) {
	pn := defaultPN(t, nil)
	if _, err := SolveSteady(pn.Net.G(), pn.Net.BaseRHS(), Method(99)); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestSolveSteadyNotPD(t *testing.T) {
	// An indefinite matrix must yield ErrNotPD under every method.
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, -1)
	b.Add(1, 1, -1)
	m := b.Build()
	for _, method := range []Method{MethodBandCholesky, MethodDenseCholesky} {
		if _, err := SolveSteady(m, []float64{1, 1}, method); !errors.Is(err, ErrNotPD) {
			t.Errorf("method %d: err = %v, want ErrNotPD", method, err)
		}
	}
}

func TestFactorReusesPermutation(t *testing.T) {
	pn := defaultPN(t, nil)
	g := pn.Net.G()
	perm := sparse.RCM(g)
	f1, err := Factor(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Factor(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rhs := pn.Net.BaseRHS()
	a, err := f1.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f2.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("permutation reuse changed the solution at node %d", i)
		}
	}
}
