package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/tecerr"
)

// randomChip builds a random hotspot chip configuration and TEC
// deployment for the solve-path equivalence property.
func randomChip(rng *rand.Rand) (Config, []int) {
	cfg := smallConfig()
	p := make([]float64, cfg.Cols*cfg.Rows)
	for i := range p {
		p[i] = 0.05 + 0.05*rng.Float64()
	}
	nHot := 1 + rng.Intn(4)
	for h := 0; h < nHot; h++ {
		p[rng.Intn(len(p))] = 0.4 + 0.5*rng.Float64()
	}
	cfg.TilePower = p
	seen := map[int]bool{}
	var sites []int
	for len(sites) < 2+rng.Intn(5) {
		s := rng.Intn(len(p))
		if !seen[s] {
			seen[s] = true
			sites = append(sites, s)
		}
	}
	return cfg, sites
}

// The SMW path (SolveAuto) must match per-current direct refactorization
// (SolveDirect) to 1e-9 relative across random chips and currents
// bracketing the runaway limit, and agree on ErrNotPD beyond it.
func TestSolvePathAutoMatchesDirectProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg, sites := randomChip(rng)

		cfg.Solve = SolveAuto
		auto := mustSystem(t, cfg, sites)
		cfg.Solve = SolveDirect
		direct := mustSystem(t, cfg, sites)

		lamA, err := auto.RunawayLimit(RunawayOptions{})
		if err != nil {
			t.Fatalf("seed %d: auto RunawayLimit: %v", seed, err)
		}
		lamD, err := direct.RunawayLimit(RunawayOptions{})
		if err != nil {
			t.Fatalf("seed %d: direct RunawayLimit: %v", seed, err)
		}
		if !num.IsFinite(lamA) || !num.IsFinite(lamD) || lamD <= 0 {
			t.Fatalf("seed %d: runaway limits not finite positive: %v / %v", seed, lamA, lamD)
		}
		if math.Abs(lamA-lamD) > 1e-6*lamD {
			t.Fatalf("seed %d: runaway limits disagree: spectral %v, bisection %v", seed, lamA, lamD)
		}

		for _, frac := range []float64{0, 0.25, 0.6, 0.9, 0.999} {
			i := frac * lamD
			xa, err := auto.SolveAt(i)
			if err != nil {
				t.Fatalf("seed %d i=%.3g*lambda: auto SolveAt: %v", seed, frac, err)
			}
			xd, err := direct.SolveAt(i)
			if err != nil {
				t.Fatalf("seed %d i=%.3g*lambda: direct SolveAt: %v", seed, frac, err)
			}
			for k := range xd {
				if math.Abs(xa[k]-xd[k]) > 1e-9*(1+math.Abs(xd[k])) {
					t.Fatalf("seed %d i=%.3g*lambda node %d: auto %v, direct %v",
						seed, frac, k, xa[k], xd[k])
				}
			}
		}

		// Beyond the limit both paths must agree on not-PD.
		beyond := lamD * 1.01
		if _, err := auto.SolveAt(beyond); !errors.Is(err, tecerr.ErrNotPD) {
			t.Fatalf("seed %d: auto beyond-limit err = %v, want ErrNotPD", seed, err)
		}
		if _, err := direct.SolveAt(beyond); !errors.Is(err, tecerr.ErrNotPD) {
			t.Fatalf("seed %d: direct beyond-limit err = %v, want ErrNotPD", seed, err)
		}
	}
}

// The optimizer must land on the same current and peak through either
// solve path.
func TestSolvePathOptimizeCurrentAgrees(t *testing.T) {
	cfg := smallConfig()
	sites := []int{27, 28, 35, 36}

	cfg.Solve = SolveAuto
	auto := mustSystem(t, cfg, sites)
	cfg.Solve = SolveDirect
	direct := mustSystem(t, cfg, sites)

	ra, err := auto.OptimizeCurrent(CurrentOptions{})
	if err != nil {
		t.Fatalf("auto OptimizeCurrent: %v", err)
	}
	rd, err := direct.OptimizeCurrent(CurrentOptions{})
	if err != nil {
		t.Fatalf("direct OptimizeCurrent: %v", err)
	}
	if math.Abs(ra.IOpt-rd.IOpt) > 1e-3*(1+rd.IOpt) {
		t.Fatalf("IOpt: auto %v, direct %v", ra.IOpt, rd.IOpt)
	}
	if math.Abs(ra.PeakK-rd.PeakK) > 1e-6*(1+rd.PeakK) {
		t.Fatalf("PeakK: auto %v, direct %v", ra.PeakK, rd.PeakK)
	}
}

// A fault-forced guard trip must route SolveAt through the direct
// factorization of G - i*D: bit-identical to the SolveDirect path.
func TestSolvePathGuardFallbackMatchesDirect(t *testing.T) {
	cfg := smallConfig()
	sites := []int{27, 28, 35, 36}
	cfg.Solve = SolveAuto
	auto := mustSystem(t, cfg, sites)
	cfg.Solve = SolveDirect
	direct := mustSystem(t, cfg, sites)

	lam, err := auto.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !num.IsFinite(lam) || lam <= 0 {
		t.Fatalf("lambda = %v, want finite positive", lam)
	}
	i := 0.5 * lam
	faults.Install(faults.New(3).Arm(faults.Rule{
		Site: faults.SiteSMWGuard,
		Kind: faults.KindNaN,
	}))
	xa, aerr := auto.SolveAt(i)
	faults.Uninstall()
	if aerr != nil {
		t.Fatalf("fallback SolveAt: %v", aerr)
	}
	xd, err := direct.SolveAt(i)
	if err != nil {
		t.Fatal(err)
	}
	for k := range xd {
		if !num.ExactEqual(xa[k], xd[k]) {
			t.Fatalf("fallback node %d: auto %v, direct %v", k, xa[k], xd[k])
		}
	}
}

func TestConfigValidateRejectsUnknownSolvePath(t *testing.T) {
	cfg := smallConfig()
	cfg.Solve = SolvePath(99)
	if _, err := NewSystem(cfg, []int{27}); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("err = %v, want CodeInvalidInput", err)
	}
}
