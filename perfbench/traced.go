package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/dtm"
	"tecopt/internal/obs"
)

// A traced run does the workload's fixed unit of work three times: once
// with the registry off (the base of obs.trace_overhead_ratio) and twice
// under the flight recorder (passes a and b, whose work counters must
// agree exactly). Layer self times come from pass a; the layer probes
// run last, on the workload's own inputs.

func traceTableI(cfg config, rep *report, chips []chip, oracle *tableIOracle) (*report, error) {
	core.ResetFactorCache()
	p0, err := runTableIPass(context.Background(), chips, nil)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(p0.rows))
	oracle.check(rep, p0)

	t := startTrace()
	defer t.stop()
	var traced []*tableIPass
	pass := func(ctx context.Context) error {
		p, err := runTableIPass(ctx, chips, t)
		traced = append(traced, p)
		return err
	}
	a, err := t.runTraced(resetCaches, pass)
	if err != nil {
		return nil, err
	}
	b, err := t.runTraced(resetCaches, pass)
	if err != nil {
		return nil, err
	}
	for _, p := range traced {
		rep.attempted += int64(len(p.rows))
		if p.table != p0.table {
			rep.fail("traced Table I differs from the untraced one")
		}
	}
	reportTraced(rep, a, b, traced[0].wallS*1e9, median([]float64{traced[0].wallS, traced[1].wallS})/p0.wallS)

	// Greedy and Full Cover per chip, from the program's own
	// core.greedy_deploy spans under each chip span: the rest of a chip
	// is its Full Cover baseline.
	var greedyMS, fullMS []float64
	iters := 0
	for _, row := range traced[0].rows {
		iters += row.Iterations
	}
	for _, s := range a.spans {
		if s.Name != "bench.chip" {
			continue
		}
		var g int64
		for _, c := range a.spans {
			if c.Parent == s.ID && c.Name == "core.greedy_deploy" {
				g += c.DurNS
			}
		}
		greedyMS = append(greedyMS, float64(g)/1e6)
		fullMS = append(fullMS, float64(s.DurNS-g)/1e6)
	}
	rep.set("core.greedy_deploy_ms", "ms", median(greedyMS))
	rep.set("core.full_cover_ms", "ms", median(fullMS))
	rep.set("core.greedy.iterations", "count", float64(iters))

	// The representative design is Alpha under Full Cover: the rank-288
	// operator every chip's baseline builds.
	alpha, err := namedDesign("alpha", nil)
	if err != nil {
		return nil, err
	}
	for s := 0; s < alpha.tiles; s++ {
		alpha.sites = append(alpha.sites, s)
	}
	names := []string{"alpha"}
	for k := 1; k <= 10; k++ {
		if cfg.seed == canonicalSeed {
			names = append(names, fmt.Sprintf("hc%02d", k))
		} else {
			names = append(names, fmt.Sprintf("hc:%d", cfg.seed*1000+int64(k)))
		}
	}
	rep.set("loadgen.late_p99_ms", "ms", 0)
	return rep, probeLayers(t, rep, probeInput{names: names, d: alpha, dtm: true, serve: true})
}

func traceDTM(cfg config, rep *report, d *dtmDesign) (*report, error) {
	block := dtmScenarios(cfg.seed*7919, 4, d.busy)
	runBlock := func(ctx context.Context, t *traceSession) ([][]*dtm.RunResult, float64, error) {
		start := time.Now()
		var out [][]*dtm.RunResult
		for _, ph := range block {
			sctx := ctx
			var sp obs.Span
			if t != nil {
				sctx, sp = t.span(ctx, "bench.scenario")
			}
			res, _, err := dtmScenarioRun(sctx, d, ph)
			sp.End()
			if err != nil {
				return nil, 0, err
			}
			out = append(out, res)
		}
		return out, time.Since(start).Seconds(), nil
	}
	res0, wall0, err := runBlock(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(block))
	checkDTM(rep, d, cfg.seed, block, res0)

	t := startTrace()
	defer t.stop()
	var walls []float64
	pass := func(ctx context.Context) error {
		res, wall, err := runBlock(ctx, t)
		walls = append(walls, wall)
		rep.attempted += int64(len(res))
		for s := range res {
			for k := range res[s] {
				x, y := res[s][k], res0[s][k]
				if !sameBits(x.MaxPeakK, y.MaxPeakK) || !sameBits(x.TECEnergyJ, y.TECEnergyJ) || !sameBits(x.TimeAboveLimitS, y.TimeAboveLimitS) {
					rep.fail("traced dtm scenario %d differs from the untraced run", s)
				}
			}
		}
		return err
	}
	a, err := t.runTraced(noPrep, pass)
	if err != nil {
		return nil, err
	}
	b, err := t.runTraced(noPrep, pass)
	if err != nil {
		return nil, err
	}
	reportTraced(rep, a, b, walls[0]*1e9, median(walls)/wall0)
	var runMS []float64
	for _, s := range a.spans {
		if s.Name == "dtm.run" {
			runMS = append(runMS, float64(s.DurNS)/1e6)
		}
	}
	reportDTMRuns(rep, runMS, a.before, a.after, a.counts)
	rep.set("loadgen.late_p99_ms", "ms", 0)

	alpha, err := namedDesign("alpha", d.sys.Sites())
	if err != nil {
		return nil, err
	}
	return rep, probeLayers(t, rep, probeInput{names: []string{"alpha"}, d: alpha, deploy: &alpha.cfg, serve: true})
}

// tracedSender wraps send in a "serve.http" span per request: the
// client's view of the HTTP/JSON layer.
func tracedSender(t *traceSession, send sender) sender {
	return func(ctx context.Context, r *request) (int, []byte, error) {
		ctx, sp := t.span(ctx, "serve.http")
		defer sp.End()
		return send(ctx, r)
	}
}

// reportServePass records the serve-layer and load-generator metrics of
// a traced serve pass. The serve overhead is the median /v1/solve
// latency on the client less the median warm core.PeakAtCtx.
func reportServePass(rep *report, calls []call, tp *tracedPass, lr *loadResult, hits, misses uint64) {
	var solveNS []float64
	shed, coalesced := 0, 0
	for i := range lr.outcomes {
		o := &lr.outcomes[i]
		if o.status == http.StatusTooManyRequests {
			shed++
		}
		if !o.ok() {
			continue
		}
		switch calls[i].endpoint {
		case "solve":
			solveNS = append(solveNS, float64(o.done-o.sent))
		case "sweep":
			var r sweepResponse
			if json.Unmarshal(o.body, &r) == nil {
				coalesced += r.Coalesced
			}
		}
	}
	overhead := median(solveNS) - rep.metrics["core.peak_at_us"].Value*1e3
	reportServeLayer(rep, overhead, tp.before, tp.after, hits, misses, shed, len(calls), coalesced)
	rep.set("loadgen.late_p99_ms", "ms", percentile(lr.lateMS(), 0.99))
}

// latencyNS is the sum of the completed requests' latencies: the
// end-to-end total the layer self times are charged against.
func latencyNS(lr *loadResult) float64 {
	var s float64
	for _, v := range lr.latenciesMS() {
		s += v * 1e6
	}
	return s
}

// traceServe runs the untraced and the two traced schedules of a serve
// workload. fresh returns the server a schedule runs against and a
// function that releases it.
func traceServe(cfg config, rep *report, calls []call, rate float64, fresh func() (*liveServer, func(), error), in probeInput) (*report, error) {
	reqs := requestsOf(calls)
	var (
		s       *liveServer
		release func()
	)
	prep := func() error {
		var err error
		s, release, err = fresh()
		return err
	}
	schedule := func(ctx context.Context, t *traceSession) (lr *loadResult, hits, misses uint64) {
		defer release()
		send := httpSender(s.client, s.base)
		if t != nil {
			send = tracedSender(t, send)
		}
		c0 := s.srv.SystemCacheStats()
		lr = openLoop(ctx, send, reqs, rate, conns(), true)
		c := s.srv.SystemCacheStats()
		return lr, c.Hits - c0.Hits, c.Misses - c0.Misses
	}
	if err := prep(); err != nil {
		return nil, err
	}
	lr0, _, _ := schedule(context.Background(), nil)
	rep.attempted += int64(len(calls))
	checkOutcomes(rep, calls, lr0, 8, cfg.seed)

	t := startTrace()
	defer t.stop()
	var (
		lrs          []*loadResult
		hits, misses uint64
	)
	pass := func(ctx context.Context) error {
		lr, h, m := schedule(ctx, t)
		if len(lrs) == 0 {
			hits, misses = h, m
		}
		lrs = append(lrs, lr)
		rep.attempted += int64(len(calls))
		for i := range lr.outcomes {
			if !lr.outcomes[i].ok() {
				rep.fail("traced %s: %v", calls[i].endpoint, lr.outcomes[i].err)
			}
		}
		return nil
	}
	a, err := t.runTraced(prep, pass)
	if err != nil {
		return nil, err
	}
	b, err := t.runTraced(prep, pass)
	if err != nil {
		return nil, err
	}
	p50 := func(lr *loadResult) float64 { return percentile(lr.latenciesMS(), 0.5) }
	reportTraced(rep, a, b, latencyNS(lrs[0]), median([]float64{p50(lrs[0]), p50(lrs[1])})/p50(lr0))
	if err := probeLayers(t, rep, in); err != nil {
		return nil, err
	}
	reportServePass(rep, calls, a, lrs[0], hits, misses)
	return rep, nil
}

func traceServeHot(cfg config, rep *report, s *liveServer, designs []*design) (*report, error) {
	calls := hotCalls(cfg.seed, int(hotRate*cfg.seconds/3), designs)
	// Every schedule runs against the warm server of the set-up: the
	// hot set stays cached, so the passes repeat the same work.
	fresh := func() (*liveServer, func(), error) { return s, func() {}, nil }
	var names []string
	for _, d := range designs {
		names = append(names, d.spec.Name)
	}
	in := probeInput{names: names, d: designs[0], deploy: &designs[0].cfg, dtm: true}
	return traceServe(cfg, rep, calls, hotRate, fresh, in)
}

func traceServeCold(cfg config, rep *report) (*report, error) {
	calls := coldCalls(cfg.seed, int(coldRate*cfg.seconds/3))
	// Each schedule gets a new server and empty solver caches, so every
	// pass misses exactly as the first did.
	fresh := func() (*liveServer, func(), error) { return startWarm(nil) }
	in := probeInput{names: []string{"alpha"}, dtm: true}
	for i := range calls {
		d := calls[i].d
		if in.d == nil || d.tiles > in.d.tiles {
			in.d = d
		}
		if in.deploy == nil && d.tiles == 144 {
			in.deploy = &d.cfg
		}
	}
	return traceServe(cfg, rep, calls, coldRate, fresh, in)
}

// sameBits reports whether two floats are identical bit for bit: a
// traced run must reproduce the untraced one exactly.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// resetCaches empties the program's factorization and solver caches,
// so a pass starts cold; noPrep leaves them as they are.
func resetCaches() error { core.ResetFactorCache(); return nil }

func noPrep() error { return nil }
