// Chaos suite: a seeded injector crossed with {panic, NaN, cancel,
// non-convergence} crossed with {serial, parallel}, run against the
// real solve pipeline. The contract under test is the PR's robustness
// invariant: every injected fault must surface as a typed tecerr error
// or as a recorded degraded-but-correct result — never as a crash, a
// deadlock, or a silently wrong answer. CI runs this file under -race
// (make chaos).
//
// The injector is process-global, so no test here calls t.Parallel;
// each installs its injector and defers Uninstall.
package faults_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"tecopt/internal/core"
	"tecopt/internal/engine"
	"tecopt/internal/faults"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// tinySystem builds a small model (4x4 die, 5x5 coarse layers, one TEC)
// so chaos runs stay fast under -race.
func tinySystem(t *testing.T) *core.System {
	t.Helper()
	p := make([]float64, 16)
	for i := range p {
		p[i] = 0.15
	}
	p[5] = 1.2
	sys, err := core.NewSystem(core.Config{
		Cols: 4, Rows: 4, SpreaderCells: 5, SinkCells: 5,
		TilePower: p,
	}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// tinyNetwork builds the matching bare package network plus its
// tile-power map for thermal-layer chaos.
func tinyNetwork(t *testing.T) (*thermal.PackageNetwork, []float64) {
	t.Helper()
	pn, err := thermal.BuildPackage(material.DefaultPackage(), thermal.BuildOptions{
		Cols: 4, Rows: 4, SpreaderCells: 5, SinkCells: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := make([]float64, 16)
	for i := range tp {
		tp[i] = 0.15
	}
	tp[5] = 1.2
	return pn, tp
}

// sweepCurrents samples well inside the runaway limit so a healthy
// sweep cannot fail on its own.
func sweepCurrents(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.1 * float64(i) / float64(n)
	}
	return out
}

// eachPool runs the body once serially and once on the full worker
// pool — the {serial, parallel} axis of the chaos matrix.
func eachPool(t *testing.T, body func(t *testing.T, pool engine.Pool)) {
	t.Helper()
	t.Run("serial", func(t *testing.T) { body(t, engine.Pool{Workers: 1}) })
	t.Run("parallel", func(t *testing.T) { body(t, engine.Pool{Workers: 0}) })
}

// TestChaosSweepPanic injects a panic into a pool worker mid-sweep and
// demands it comes back as a typed CodePanic error with the recovered
// stack — not a process crash and not a deadlocked WaitGroup.
func TestChaosSweepPanic(t *testing.T) {
	sys := tinySystem(t)
	k := sys.PN.SilNode[5]
	l := sys.Array.Hot[0]
	eachPool(t, func(t *testing.T, pool engine.Pool) {
		faults.Install(faults.New(1).Arm(faults.Rule{
			Site: faults.SitePoolTask, Kind: faults.KindPanic, OnHit: 3,
		}))
		defer faults.Uninstall()
		_, err := sys.HklSweepParallelCtx(context.Background(), k, l, sweepCurrents(16), pool)
		if !errors.Is(err, tecerr.ErrPanic) {
			t.Fatalf("injected worker panic surfaced as %v, want CodePanic", err)
		}
		var te *tecerr.Error
		if !errors.As(err, &te) || len(te.Stack) == 0 {
			t.Fatalf("recovered panic lost its stack: %#v", err)
		}
	})
}

// TestChaosSweepInjectedError arms a plain injected error at a sweep
// point and checks it propagates unmangled (errors.Is reaches the
// ErrInjected cause through every wrapping layer).
func TestChaosSweepInjectedError(t *testing.T) {
	sys := tinySystem(t)
	k := sys.PN.SilNode[5]
	l := sys.Array.Hot[0]
	eachPool(t, func(t *testing.T, pool engine.Pool) {
		faults.Install(faults.New(2).Arm(faults.Rule{
			Site: faults.SiteSweepPoint, Kind: faults.KindError, OnHit: 2,
		}))
		defer faults.Uninstall()
		_, err := sys.HklSweepParallelCtx(context.Background(), k, l, sweepCurrents(16), pool)
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("injected sweep error surfaced as %v, want ErrInjected in the chain", err)
		}
	})
}

// TestChaosCancelMidSweep cancels the sweep's own context from inside a
// sweep point. Serially the remaining points must be abandoned with a
// typed CodeCancelled error; in parallel the workers race the cancel,
// so either the typed error surfaces or the sweep completed with every
// sample finite — never a partial slice passed off as complete.
func TestChaosCancelMidSweep(t *testing.T) {
	sys := tinySystem(t)
	k := sys.PN.SilNode[5]
	l := sys.Array.Hot[0]
	eachPool(t, func(t *testing.T, pool engine.Pool) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faults.Install(faults.New(3).Arm(faults.Rule{
			Site: faults.SiteSweepPoint, Kind: faults.KindCall, OnHit: 2, Call: cancel,
		}))
		defer faults.Uninstall()
		hs, err := sys.HklSweepParallelCtx(ctx, k, l, sweepCurrents(64), pool)
		if err != nil {
			if !errors.Is(err, tecerr.ErrCancelled) {
				t.Fatalf("mid-sweep cancel surfaced as %v, want CodeCancelled", err)
			}
			return
		}
		for i, h := range hs {
			if !num.IsFinite(h) {
				t.Fatalf("nil-error sweep has non-finite sample %g at %d", h, i)
			}
		}
	})
}

// tinySteady assembles the tiny network's passive system G*theta = rhs
// for the solver-level chaos cases.
func tinySteady(t *testing.T, pn *thermal.PackageNetwork, tp []float64) (*sparse.CSR, []float64) {
	t.Helper()
	p, err := pn.PowerVector(tp)
	if err != nil {
		t.Fatal(err)
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	return pn.Net.G(), rhs
}

// TestChaosCGDivergenceFallsBack poisons every CG residual with NaN:
// the divergence guard must stop the iteration and classify it as
// CodeDiverged instead of returning a NaN solution.
func TestChaosCGDivergenceFallsBack(t *testing.T) {
	pn, tp := tinyNetwork(t)
	g, rhs := tinySteady(t, pn, tp)
	faults.Install(faults.New(4).Arm(faults.Rule{
		Site: faults.SiteCGResidual, Kind: faults.KindNaN,
	}))
	defer faults.Uninstall()
	res, err := sparse.SolveCG(g, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(g)})
	if !errors.Is(err, tecerr.ErrDiverged) {
		t.Fatalf("NaN residual surfaced as %v, want CodeDiverged", err)
	}
	if res == nil || res.Iterations != 1 {
		t.Fatalf("result = %+v, want the guard to stop at iteration 1", res)
	}
}

// TestChaosCGNonConvergenceFallsBack injects an error into the CG
// iteration loop (the forced non-convergence axis) and checks it
// propagates to the caller unchanged, with no iterations counted.
func TestChaosCGNonConvergenceFallsBack(t *testing.T) {
	pn, tp := tinyNetwork(t)
	g, rhs := tinySteady(t, pn, tp)
	faults.Install(faults.New(5).Arm(faults.Rule{
		Site: faults.SiteCGIteration, Kind: faults.KindError,
	}))
	defer faults.Uninstall()
	res, err := sparse.SolveCG(g, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(g)})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injected iteration error surfaced as %v, want faults.ErrInjected", err)
	}
	if res == nil || res.Iterations != 0 {
		t.Fatalf("result = %+v, want the error before the first iteration", res)
	}
}

// TestChaosPowerNaN injects NaN into a power map and demands the typed
// invalid-input rejection before anything is solved.
func TestChaosPowerNaN(t *testing.T) {
	pn, tp := tinyNetwork(t)
	faults.Install(faults.New(6).Arm(faults.Rule{
		Site: faults.SitePower, Kind: faults.KindNaN, OnHit: 3,
	}))
	defer faults.Uninstall()
	_, err := pn.SolvePassive(tp, thermal.MethodAuto)
	if !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("NaN power surfaced as %v, want CodeInvalidInput", err)
	}
}

// TestChaosBandPerturbEscalatesToDense corrupts the banded
// factorization's loaded band hard enough to destroy positive
// definiteness. The direct solve must fail typed as CodeNotPD, never
// return an answer from the corrupted factor; the dense reference
// factorization reads the uncorrupted matrix and still solves it.
func TestChaosBandPerturbEscalatesToDense(t *testing.T) {
	pn, tp := tinyNetwork(t)
	faults.Install(faults.New(7).Arm(faults.Rule{
		Site: faults.SiteBandMatrix, Kind: faults.KindPerturb, Scale: 50,
	}))
	defer faults.Uninstall()
	if _, err := pn.SolvePassive(tp, thermal.MethodBandCholesky); !errors.Is(err, tecerr.ErrNotPD) {
		t.Fatalf("band corruption surfaced as %v, want CodeNotPD", err)
	}
	if _, err := pn.SolvePassive(tp, thermal.MethodDenseCholesky); err != nil {
		t.Fatalf("dense reference under band corruption: %v", err)
	}
}

// TestChaosConjectureCancel cancels a Conjecture-1 campaign from inside
// a pool task and checks the partial report plus the typed error come
// back instead of a hang or a fabricated full count.
func TestChaosConjectureCancel(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faults.Install(faults.New(8).Arm(faults.Rule{
			Site: faults.SitePoolTask, Kind: faults.KindCall, OnHit: 5, Call: cancel,
		}))
		defer faults.Uninstall()
		rep, err := core.VerifyConjecture1Ctx(ctx, rand.New(rand.NewSource(9)), core.ConjectureOptions{
			Matrices: 20, MaxOrder: 6, Parallel: 1,
		})
		if !errors.Is(err, tecerr.ErrCancelled) {
			t.Fatalf("mid-campaign cancel surfaced as %v, want CodeCancelled", err)
		}
		if rep.Matrices == 0 || rep.Matrices >= 20 {
			t.Fatalf("partial report covers %d matrices, want a strict nonzero subset of 20", rep.Matrices)
		}
		if rep.Violations != 0 {
			t.Fatalf("partial report fabricated %d violations", rep.Violations)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faults.Install(faults.New(8).Arm(faults.Rule{
			Site: faults.SitePoolTask, Kind: faults.KindCall, OnHit: 5, Call: cancel,
		}))
		defer faults.Uninstall()
		rep, err := core.VerifyConjecture1Ctx(ctx, rand.New(rand.NewSource(9)), core.ConjectureOptions{
			Matrices: 64, MaxOrder: 6, Parallel: 0,
		})
		// Workers race the cancel: either the typed error surfaces with a
		// partial count, or every trial beat it and the report is full.
		if err != nil && !errors.Is(err, tecerr.ErrCancelled) {
			t.Fatalf("mid-campaign cancel surfaced as %v, want CodeCancelled", err)
		}
		if err == nil && rep.Matrices != 64 {
			t.Fatalf("nil error with %d of 64 matrices: partial report passed off as complete", rep.Matrices)
		}
		if rep.Violations != 0 {
			t.Fatalf("report fabricated %d violations", rep.Violations)
		}
	})
}

// TestGuardedMatchesReferenceOnHealthySystems is the property half of
// the suite: with no faults installed, the production band solver and
// IC(0)-preconditioned CG must agree with the dense reference
// factorization to solver tolerance.
func TestGuardedMatchesReferenceOnHealthySystems(t *testing.T) {
	pn, tp := tinyNetwork(t)
	uniform := make([]float64, len(tp))
	for i := range uniform {
		uniform[i] = 0.4
	}
	for name, tilePower := range map[string][]float64{"hotspot": tp, "uniform": uniform} {
		ref, err := pn.SolvePassive(tilePower, thermal.MethodDenseCholesky)
		if err != nil {
			t.Fatal(err)
		}
		band, err := pn.SolvePassive(tilePower, thermal.MethodBandCholesky)
		if err != nil {
			t.Fatalf("%s/band: healthy solve failed: %v", name, err)
		}
		g, rhs := tinySteady(t, pn, tilePower)
		cg, err := sparse.SolveCG(g, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(g)})
		if err != nil {
			t.Fatalf("%s/cg: healthy solve failed: %v", name, err)
		}
		for sname, theta := range map[string][]float64{"band": band, "cg": cg.X} {
			for i := range ref {
				if !num.EqualWithin(theta[i], ref[i], 1e-8) {
					t.Fatalf("%s/%s: node %d: %g vs reference %g", name, sname, i, theta[i], ref[i])
				}
			}
		}
	}
}
