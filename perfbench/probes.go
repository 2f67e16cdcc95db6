package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/dtm"
	"tecopt/internal/eigen"
	"tecopt/internal/mat"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
	"tecopt/internal/thermal"
)

// probeInput is the workload's own input the layer probes run on.
type probeInput struct {
	// names are the named chips the workload resolves.
	names []string
	// d is the representative design: the deployment that dominates the
	// workload's time.
	d *design
	// deploy, when set, is the 12x12 configuration the greedy and
	// full-cover probes run on; nil when the traced pass measured them.
	deploy *core.Config
	// dtm runs a short policy simulation on d; false when the traced
	// pass measured dtm.Run itself.
	dtm bool
	// serve runs the closed-loop serve probe on d; false when the traced
	// pass measured the serve layer itself.
	serve bool
}

// probeLayers times the public entry point of every layer on the
// workload's input, each call under a span named for it. Timings are
// medians over repeated calls; counts come with them.
func probeLayers(t *traceSession, rep *report, in probeInput) error {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	d := in.d
	cfg := d.cfg
	if cfg.Cols == 0 {
		cfg.Cols, cfg.Rows = 12, 12
	}
	if cfg.Geom == (material.PackageGeometry{}) {
		cfg.Geom = material.DefaultPackage()
	}

	// chipload
	names := in.names
	if len(names) == 0 {
		names = []string{"alpha"}
	}
	k := 0
	dur, err := t.timeMedian("chipload.Load", 3*len(names), func(context.Context) error {
		_, err := chipload.Load(chipload.Spec{Name: names[k%len(names)]})
		k++
		return err
	})
	if err != nil {
		return err
	}
	rep.set("chipload.load_us", "us", us(dur))

	// thermal: network assembly
	sites := map[int]bool{}
	for _, s := range d.sites {
		sites[s] = true
	}
	dur, err = t.timeMedian("thermal.BuildPackage", 5, func(context.Context) error {
		_, err := thermal.BuildPackage(cfg.Geom, thermal.BuildOptions{Cols: cfg.Cols, Rows: cfg.Rows, SpreaderCells: 20, SinkCells: 20, TECSites: sites})
		return err
	})
	if err != nil {
		return err
	}
	rep.set("thermal.build_package_ms", "ms", ms(dur))

	// core
	var sys *core.System
	dur, err = t.timeMedian("core.NewSystem", 5, func(context.Context) error {
		sys, err = core.NewSystem(cfg, d.sites)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.new_system_ms", "ms", ms(dur))
	dur, err = t.timeMedian("core.PeakAtCtx.first", 3, func(ctx context.Context) error {
		fresh, err := core.NewSystem(cfg, d.sites)
		if err != nil {
			return err
		}
		_, _, _, err = fresh.PeakAtCtx(ctx, 0.5)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.first_solve_ms", "ms", ms(dur))

	lambda, err := sys.RunawayLimit(core.RunawayOptions{})
	if err != nil {
		return err
	}
	top := 0.9 * min(lambda, 20)
	rng := rand.New(rand.NewSource(1))
	currents := make([]float64, 200)
	for i := range currents {
		currents[i] = top * rng.Float64()
	}
	k = 0
	peakAt, err := t.timeMedian("core.PeakAtCtx", len(currents), func(ctx context.Context) error {
		_, _, _, err := sys.PeakAtCtx(ctx, currents[k%len(currents)])
		k++
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.peak_at_us", "us", us(peakAt))
	kn, ln := sys.PN.SilNode[0], sys.PN.SilNode[len(sys.PN.SilNode)-1]
	dur, err = t.timeMedian("core.HklCtx", 100, func(ctx context.Context) error {
		_, err := sys.HklCtx(ctx, currents[k%len(currents)], kn, ln)
		k++
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.hkl_us", "us", us(dur))
	probes0 := t.counts()["core.runaway.probes"]
	dur, err = t.timeMedian("core.RunawayLimit", 20, func(ctx context.Context) error {
		_, err := sys.RunawayLimit(core.RunawayOptions{Ctx: ctx})
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.runaway_limit_us", "us", us(dur))
	rep.set("core.runaway.probes_per_search", "count", float64(t.counts()["core.runaway.probes"]-probes0)/20)
	var evals []float64
	dur, err = t.timeMedian("core.OptimizeCurrent", 3, func(ctx context.Context) error {
		res, err := sys.OptimizeCurrent(core.CurrentOptions{Ctx: ctx})
		if err == nil {
			evals = append(evals, float64(res.Evaluations))
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.optimize_current_ms", "ms", ms(dur))
	rep.set("core.optimize_current.evaluations_per_run", "count", median(evals))

	if in.deploy != nil {
		var iters int
		dur, err = t.timeMedian("core.GreedyDeploy", 1, func(ctx context.Context) error {
			res, err := core.GreedyDeploy(*in.deploy, material.CelsiusToKelvin(85), core.CurrentOptions{Ctx: ctx})
			if err == nil {
				iters = len(res.Iterations)
			}
			return err
		})
		if err != nil {
			return err
		}
		rep.set("core.greedy_deploy_ms", "ms", ms(dur))
		rep.set("core.greedy.iterations", "count", float64(iters))
		dur, err = t.timeMedian("core.FullCover", 1, func(ctx context.Context) error {
			_, _, err := core.FullCover(*in.deploy, core.CurrentOptions{Ctx: ctx})
			return err
		})
		if err != nil {
			return err
		}
		rep.set("core.full_cover_ms", "ms", ms(dur))
	}

	// thermal: the SMW fast-path state and its per-current solve
	g := sys.Matrix(0)
	n := sys.NumNodes()
	dvec := sys.Array.DVector(n)
	perm := sparse.RCM(g)
	var rs *thermal.ReusableSystem
	dur, err = t.timeMedian("thermal.NewReusableSystem", 3, func(context.Context) error {
		rs, err = thermal.NewReusableSystem(g, dvec, perm)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("thermal.reusable_setup_ms", "ms", ms(dur))
	rep.set("thermal.reusable_setup.rank", "count", float64(rs.Rank()))
	var theta []float64
	dur, err = t.timeMedian("thermal.SolveAtCurrent", len(currents), func(ctx context.Context) error {
		i := currents[k%len(currents)]
		k++
		theta, _, err = rs.SolveAtCurrent(ctx, i, sys.RHS(i))
		return err
	})
	if err != nil {
		return err
	}
	rep.set("thermal.solve_at_current_us", "us", us(dur))
	dur, err = t.timeMedian("thermal.PeakSilicon", 1000, func(context.Context) error {
		sys.PN.PeakSilicon(theta)
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("thermal.peak_silicon_us", "us", us(dur))

	// sparse: band Cholesky of G in RCM order, its solve, SMW setup and
	// one correction
	gp := g.Permute(perm)
	var bc *sparse.BandCholesky
	dur, err = t.timeMedian("sparse.NewBandCholesky", 3, func(context.Context) error {
		bc, err = sparse.NewBandCholesky(gp)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("sparse.factor_ms", "ms", ms(dur))
	rep.set("sparse.factor.n", "count", float64(bc.Size()))
	rep.set("sparse.factor_entries", "count", float64(bc.Size()*(bc.BandwidthUsed()+1)))
	b := sys.RHS(0)
	dur, err = t.timeMedian("sparse.BandCholesky.Solve", 200, func(context.Context) error {
		_, err := bc.Solve(b)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("sparse.solve_us", "us", us(dur))
	f, err := thermal.Factor(g, perm)
	if err != nil {
		return err
	}
	var smw *sparse.SMW
	dur, err = t.timeMedian("sparse.NewSMW", 3, func(context.Context) error {
		smw, err = sparse.NewSMW(dvec, f.Solve)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("sparse.smw.setup_ms", "ms", ms(dur))
	x0, err := f.Solve(sys.RHS(0))
	if err != nil {
		return err
	}
	y := make([]float64, len(x0))
	dur, err = t.timeMedian("sparse.SMW.Correct", 200, func(context.Context) error {
		copy(y, x0)
		err := smw.Correct(currents[k%len(currents)], y)
		k++
		return err
	})
	if err != nil {
		return err
	}
	rep.set("sparse.smw.correct_us", "us", us(dur))

	// eigen: a dense symmetric eigendecomposition at the capacitance
	// dimension (the SMW rank) of this design
	dim := max(rs.Rank(), 1)
	a := randomSPD(dim)
	dur, err = t.timeMedian("eigen.SymEig", 3, func(context.Context) error {
		_, _, err := eigen.SymEig(a, true)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("eigen.symeig_ms", "ms", ms(dur))
	rep.set("eigen.symeig.dim", "count", float64(dim))

	if in.dtm && len(d.sites) > 0 {
		if err := probeDTM(t, rep, sys, cfg.TilePower); err != nil {
			return err
		}
	}
	if in.serve {
		if err := probeServe(t, rep, d, peakAt); err != nil {
			return err
		}
	}
	return nil
}

// randomSPD returns a seeded symmetric positive definite n x n matrix.
func randomSPD(n int) *mat.Dense {
	rng := rand.New(rand.NewSource(int64(n)))
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64() - 0.5
			if i == j {
				v += float64(n)
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// probeDTM runs a short bang-bang simulation on sys (10 simulated
// seconds, the workload's step and control period) for workloads whose
// pass does not step the transient model.
func probeDTM(t *traceSession, rep *report, sys *core.System, busy []float64) error {
	before, c0 := t.reg.Snapshot(), t.counts()
	peak, _, _, err := sys.PeakAt(0)
	if err != nil {
		return err
	}
	ctrl := &dtm.BangBang{OnAboveK: peak - 5, OffBelowK: peak - 15, CurrentA: 1}
	phases := []dtm.PowerPhase{{Duration: 10, TilePower: busy}}
	dur, err := t.timeMedian("dtm.Run", 1, func(ctx context.Context) error {
		_, err := dtm.Run(sys, phases, ctrl, peak, dtmOptions(ctx, nil))
		return err
	})
	if err != nil {
		return err
	}
	reportDTMRuns(rep, []float64{float64(dur) / 1e6}, before, t.reg.Snapshot(), t.counts().sub(c0))
	return nil
}

// reportDTMRuns records the dtm/transient layer metrics of a set of
// dtm.Run calls: their median wall time, the mean backward-Euler step
// from the program's dtm.step_ns histogram, and the band factorizations
// they made.
func reportDTMRuns(rep *report, runMS []float64, before, after *obs.Snapshot, c counts) {
	rep.set("dtm.run_ms", "ms", median(runMS))
	rep.set("transient.step_us", "us", histMean(histDelta(after, before, "dtm.step_ns"))/1e3)
	rep.set("dtm.factorizations", "count", float64(c["sparse.band.factors"]))
}

// reportServeLayer records the serve layer's metrics: its overhead over
// the warm solve, gate queue wait, system cache hit ratio, shed ratio
// and coalesced sweep points.
func reportServeLayer(rep *report, overheadNS float64, before, after *obs.Snapshot, hits, misses uint64, shed, attempted, coalesced int) {
	rep.set("serve.overhead_us", "us", overheadNS/1e3)
	h := histDelta(after, before, "tecserve.gate.queue_wait_ns")
	rep.set("serve.gate.queue_wait_p50_us", "us", histQuantile(h, 0.5)/1e3)
	rep.set("serve.gate.queue_wait_p99_us", "us", histQuantile(h, 0.99)/1e3)
	rep.set("serve.system_cache.hit_ratio", "1", float64(hits)/float64(max(hits+misses, 1)))
	rep.set("serve.shed_ratio", "1", float64(shed)/float64(max(attempted, 1)))
	rep.set("serve.sweep.coalesced", "count", float64(coalesced))
}

// probeServe measures the serve layer's own cost on d: 200 closed-loop
// /v1/solve requests against a warm server, whose median latency less
// the median warm core.PeakAtCtx is the serve overhead.
func probeServe(t *traceSession, rep *report, d *design, peakAt time.Duration) error {
	s, closeFn, err := startWarm([]*design{d})
	if err != nil {
		return err
	}
	defer closeFn()
	cache0 := s.srv.SystemCacheStats()
	before := t.reg.Snapshot()
	calls := hotCalls(2, 200, []*design{d})
	var lat []float64
	shed := 0
	for i := range calls {
		calls[i].endpoint = "solve"
		r := calls[i].request()
		ctx, sp := t.span(context.Background(), "serve.http")
		start := time.Now()
		status, body, err := httpSender(s.client, s.base)(ctx, &r)
		lat = append(lat, float64(time.Since(start)))
		sp.End()
		if err != nil {
			return err
		}
		if status == http.StatusTooManyRequests {
			shed++
			continue
		}
		if status != http.StatusOK {
			return fmt.Errorf("serve probe: status %d: %s", status, body)
		}
		if err := r.check(body); err != nil {
			rep.fail("serve probe: %v", err)
		}
	}
	cache := s.srv.SystemCacheStats()
	reportServeLayer(rep, median(lat)-float64(peakAt), before, t.reg.Snapshot(), cache.Hits-cache0.Hits, cache.Misses-cache0.Misses, shed, len(calls), 0)
	return nil
}
