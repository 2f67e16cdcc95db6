// Package core implements the paper's contribution: configuration of an
// on-chip active cooling system built from thin-film thermoelectric
// coolers. It assembles the coupled package+TEC model
// (G - i*D) theta = p, computes the thermal-runaway current limit
// lambda_m (Theorem 1), optimizes the shared TEC supply current by convex
// programming over [0, lambda_m) (Section V.C), decides the TEC
// deployment with the GreedyDeploy algorithm (Figure 5), certifies
// optimality via the Theorem-4 convexity check, and provides the
// Full-Cover baseline and the Conjecture-1 verification campaign of the
// experimental section.
package core

import (
	"context"

	"tecopt/internal/engine"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/power"
	"tecopt/internal/sparse"
	"tecopt/internal/tec"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// Config bundles everything needed to instantiate a cooling-system model.
type Config struct {
	// Geom is the package geometry; defaults to material.DefaultPackage.
	Geom material.PackageGeometry
	// Cols, Rows define the die tiling (default 12x12).
	Cols, Rows int
	// SpreaderCells, SinkCells set the coarse-layer resolutions
	// (defaults 20, 20).
	SpreaderCells, SinkCells int
	// Device gives the TEC parameters; defaults to tec.ChowdhuryDevice.
	Device tec.DeviceParams
	// TilePower is the worst-case per-tile silicon power (W), length
	// Cols*Rows.
	TilePower []float64
	// Solve selects the per-current solve strategy (default SolveAuto:
	// the Sherman-Morrison-Woodbury fast path with direct fallback).
	Solve SolvePath
}

// SolvePath selects how SolveAt/Hkl/RunawayLimit evaluate the current
// family (G - i*D) theta = p(i).
type SolvePath int

const (
	// SolveAuto factors G once and applies per-current SMW corrections
	// (thermal.ReusableSystem), falling back to direct factorization
	// of G - i*D near the runaway limit and whenever the capacitance
	// matrix loses conditioning.
	SolveAuto SolvePath = iota
	// SolveDirect forces the legacy path: one banded Cholesky
	// factorization per current, through the shared factor cache.
	SolveDirect
)

// Validate checks the configuration before any network assembly: the
// tiling and tile-power vector must be consistent, every tile power
// finite and nonnegative, and the geometry and device parameters
// physical. CLIs call it up front so a bad input fails with a typed
// tecerr.CodeInvalidInput error instead of poisoning a solve.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Cols <= 0 || c.Rows <= 0 {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: tiling %dx%d must be positive", c.Cols, c.Rows)
	}
	nt := c.Cols * c.Rows
	if len(c.TilePower) != nt {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: tile power length %d, want %d", len(c.TilePower), nt)
	}
	if err := power.ValidateTilePower(c.TilePower); err != nil {
		return err
	}
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if c.Solve != SolveAuto && c.Solve != SolveDirect {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: unknown solve path %d", c.Solve)
	}
	return c.Device.Validate()
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Geom == (material.PackageGeometry{}) {
		c.Geom = material.DefaultPackage()
	}
	if c.Cols == 0 && c.Rows == 0 {
		c.Cols, c.Rows = 12, 12
	}
	if c.SpreaderCells == 0 {
		c.SpreaderCells = 20
	}
	if c.SinkCells == 0 {
		c.SinkCells = 20
	}
	if c.Device == (tec.DeviceParams{}) {
		c.Device = tec.ChowdhuryDevice()
	}
	return c
}

// System is an assembled thermal model of a package with a fixed TEC
// deployment, ready for current-domain analysis: (G - i*D) theta = p(i).
type System struct {
	Cfg   Config
	PN    *thermal.PackageNetwork
	Array *tec.Array // empty (Count()==0) when no TECs are deployed

	g    *sparse.CSR
	d    []float64
	base []float64 // ambient legs + silicon tile powers (current-free RHS)
	perm []int     // RCM ordering of g's pattern, shared by every G - i*D
	gen  uint64    // factorization-cache generation (unique per System)
}

// factorCache is the process-wide LRU of banded Cholesky factorizations,
// keyed by (system generation, current). Every System takes a fresh
// generation at construction, so a deployment change (a new System in
// the greedy loop) can never alias a cached factor; stale generations
// simply age out of the LRU. Safe for concurrent use — the engine pool
// workers of the parallel sweeps share it.
var factorCache = engine.NewFactorCache(engine.DefaultCacheCapacity)

// solverCache is the process-wide LRU of SMW fast-path states: one
// thermal.ReusableSystem per system generation (Key.Current is always
// zero), holding the base factorization of G plus the rank-2*#TEC
// correction data that every per-current solve of that system shares.
// One entry replaces the dozens of per-current factorizations a single
// OptimizeCurrent used to push through factorCache, which is what fixes
// the cache thrash of concurrent per-chip runs (Table I measured 80
// misses and 48 evictions per optimization against the 32-entry LRU).
var solverCache = engine.NewCache[*thermal.ReusableSystem]("solver_cache", 16)

// FactorCacheStats reports the cumulative hit/miss/eviction counters
// and resident entry count of the shared factorization cache
// (diagnostics and benchmarks).
func FactorCacheStats() engine.CacheStats { return factorCache.Stats() }

// SolverCacheStats is FactorCacheStats for the SMW fast-path cache.
func SolverCacheStats() engine.CacheStats { return solverCache.Stats() }

// The shared caches publish their counters into every obs snapshot, so
// a metrics dump at exit reflects them even for phases that ran before
// observability was enabled.
func init() {
	obs.RegisterSnapshotHook(func(r *obs.Registry) {
		factorCache.PublishStats(r)
		solverCache.PublishStats(r)
	})
}

// ResetFactorCache empties the shared factorization and solver caches
// and zeroes their counters. Tests and long-lived servers use it to
// establish a known cache state; correctness never depends on it.
func ResetFactorCache() {
	factorCache.Reset()
	solverCache.Reset()
}

// NewSystem builds the package network with the given TEC sites reserved,
// attaches one device per site, and assembles G, D and the base RHS.
// sites may be empty for a passive (no-TEC) model.
func NewSystem(cfg Config, sites []int) (*System, error) {
	cfg = cfg.withDefaults()
	nt := cfg.Cols * cfg.Rows
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts := thermal.BuildOptions{
		Cols: cfg.Cols, Rows: cfg.Rows,
		SpreaderCells: cfg.SpreaderCells, SinkCells: cfg.SinkCells,
		TECSites: make(map[int]bool, len(sites)),
	}
	for _, s := range sites {
		if s < 0 || s >= nt {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.system",
				"core: TEC site %d out of range %d", s, nt)
		}
		if opts.TECSites[s] {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.system",
				"core: duplicate TEC site %d", s)
		}
		opts.TECSites[s] = true
	}
	pn, err := thermal.BuildPackage(cfg.Geom, opts)
	if err != nil {
		return nil, err
	}
	arr, err := tec.Attach(pn, cfg.Device, sites)
	if err != nil {
		return nil, err
	}

	g := pn.Net.G()
	base := pn.Net.BaseRHS()
	p, err := pn.PowerVector(cfg.TilePower)
	if err != nil {
		return nil, err
	}
	for i, v := range p {
		base[i] += v
	}
	return &System{
		Cfg:   cfg,
		PN:    pn,
		Array: arr,
		g:     g,
		d:     arr.DVector(pn.Net.NumNodes()),
		base:  base,
		perm:  sparse.RCM(g),
		gen:   engine.NextGeneration(),
	}, nil
}

// NumNodes returns the network size.
func (s *System) NumNodes() int { return s.PN.Net.NumNodes() }

// Sites returns the deployed TEC tiles.
func (s *System) Sites() []int { return s.Array.Tiles }

// Matrix returns G - i*D as a fresh CSR matrix.
func (s *System) Matrix(i float64) *sparse.CSR {
	if num.IsZero(i) || s.Array.Count() == 0 {
		return s.g
	}
	return s.g.AddScaledDiag(-i, s.d)
}

// Factor factors G - i*D (reusing the shared RCM ordering). It returns
// thermal.ErrNotPD when i is at or beyond the runaway limit. Repeated
// calls at the same current hit the process-wide factorization cache —
// golden-section endpoint re-evaluation, the Hkl-then-PeakAt pairs of
// the Figure 6 sweep and greedy re-solves all reuse one factorization.
// Factor is safe for concurrent use by the engine pool workers.
func (s *System) Factor(i float64) (*thermal.Factorization, error) {
	return s.factorCtx(context.Background(), i)
}

// factorCtx is Factor under a flight-recorder context: the cache
// lookup's hit/miss event parents to the context span.
func (s *System) factorCtx(ctx context.Context, i float64) (*thermal.Factorization, error) {
	return factorCache.DoCtx(ctx, engine.Key{Gen: s.gen, Current: i}, func() (*thermal.Factorization, error) {
		return thermal.Factor(s.Matrix(i), s.perm)
	})
}

// RHS assembles p(i): ambient legs + silicon tile powers + the r*i^2/2
// Joule sources of the deployed devices.
func (s *System) RHS(i float64) []float64 {
	rhs := make([]float64, len(s.base))
	copy(rhs, s.base)
	s.Array.JoulePower(rhs, i)
	return rhs
}

// reusable returns the system's SMW fast-path state, built on first use
// and cached by generation, or nil when the configuration forces the
// direct path or the setup failed (a degenerate update; the caller then
// factors per current exactly as before the fast path existed).
func (s *System) reusable() *thermal.ReusableSystem {
	return s.reusableCtx(context.Background())
}

// reusableCtx is reusable under a flight-recorder context.
func (s *System) reusableCtx(ctx context.Context) *thermal.ReusableSystem {
	if s.Cfg.Solve == SolveDirect {
		return nil
	}
	rs, err := solverCache.DoCtx(ctx, engine.Key{Gen: s.gen}, func() (*thermal.ReusableSystem, error) {
		return thermal.NewReusableSystem(s.g, s.d, s.perm)
	})
	if err != nil {
		// The error is cached per generation, so the direct fallback
		// costs one failed setup per System, not one per solve.
		if r := obs.Enabled(); r != nil {
			r.Counter("core.system.reusable_setup_failures").Inc()
		}
		return nil
	}
	return rs
}

// solveVec solves (G - i*D) x = rhs on the fastest available path: the
// SMW correction of the base factorization when the fast path is up,
// the cached per-current factorization otherwise. Both paths report
// ErrNotPD at or beyond the runaway limit.
func (s *System) solveVec(i float64, rhs []float64) ([]float64, error) {
	return s.solveVecCtx(context.Background(), i, rhs)
}

// solveVecCtx is solveVec under a flight-recorder context: the regime
// span of the solve (and any cache events along the way) parent to the
// span carried by ctx.
func (s *System) solveVecCtx(ctx context.Context, i float64, rhs []float64) ([]float64, error) {
	if rs := s.reusableCtx(ctx); rs != nil {
		x, _, err := rs.SolveAtCurrent(ctx, i, rhs)
		return x, err
	}
	f, err := s.factorCtx(ctx, i)
	if err != nil {
		return nil, err
	}
	return f.Solve(rhs)
}

// SolveAt solves the steady state at supply current i.
func (s *System) SolveAt(i float64) ([]float64, error) {
	return s.SolveAtCtx(context.Background(), i)
}

// SolveAtCtx is SolveAt under a context carrying the flight-recorder
// span of the caller, so the solve's trace records link into the
// caller's hierarchy. The context does not cancel the solve itself (a
// factorization is one atomic unit of work).
func (s *System) SolveAtCtx(ctx context.Context, i float64) ([]float64, error) {
	if !num.IsFinite(i) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.system",
			"core: non-finite supply current %g", i)
	}
	if i < 0 {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.system",
			"core: negative supply current %g", i)
	}
	return s.solveVecCtx(ctx, i, s.RHS(i))
}

// PeakAt solves at current i and returns the hottest silicon tile
// temperature (kelvin) with its tile index and the full field.
func (s *System) PeakAt(i float64) (peakK float64, tile int, theta []float64, err error) {
	return s.PeakAtCtx(context.Background(), i)
}

// PeakAtCtx is PeakAt under a flight-recorder context (see SolveAtCtx).
func (s *System) PeakAtCtx(ctx context.Context, i float64) (peakK float64, tile int, theta []float64, err error) {
	theta, err = s.SolveAtCtx(ctx, i)
	if err != nil {
		return 0, 0, nil, err
	}
	peakK, tile = s.PN.PeakSilicon(theta)
	return peakK, tile, theta, nil
}

// OverLimitTiles returns the silicon tiles whose temperature exceeds
// limitK in the given field — the set T of the GreedyDeploy loop.
func (s *System) OverLimitTiles(theta []float64, limitK float64) []int {
	var out []int
	for t, n := range s.PN.SilNode {
		if theta[n] > limitK {
			out = append(out, t)
		}
	}
	return out
}

// TECPower evaluates the array's total electrical input power (Eq. 3) in
// the field theta at current i.
func (s *System) TECPower(theta []float64, i float64) float64 {
	return s.Array.TotalInputPower(theta, i)
}
