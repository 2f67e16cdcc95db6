package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/material"
	"tecopt/internal/serve"
)

// liveServer is an in-process serve.Server on a loopback listener,
// with a client limited to nproc connections.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// conns is the generator's connection and sender count, and the
// server's gate width: one process never uses more than nproc of any.
func conns() int { return runtime.NumCPU() }

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:    serve.New(serve.Options{Workers: conns()}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns(),
			MaxIdleConnsPerHost: conns(),
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the service, shuts the listener down and waits for the
// serving goroutine to end.
func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := s.srv.Drain(ctx)
	shutErr := s.hs.Shutdown(ctx)
	if err := <-s.served; err != http.ErrServerClosed {
		return fmt.Errorf("serve loop: %w", err)
	}
	s.client.CloseIdleConnections()
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}

// post sends one request outside the open loop (warm-up, probes) and
// decodes a 200 answer into out.
func (s *liveServer) post(path string, body []byte, out any) error {
	status, resp, err := httpSender(s.client, s.base)(context.Background(), &request{path: path, body: body})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, status, resp)
	}
	return json.Unmarshal(resp, out)
}

// Wire shapes of the serve API (internal/serve/request.go).
type (
	chipSpec struct {
		Name       string    `json:"name,omitempty"`
		Cols       int       `json:"cols,omitempty"`
		Rows       int       `json:"rows,omitempty"`
		TilePowerW []float64 `json:"tile_power_w,omitempty"`
	}
	apiRequest struct {
		Chip      chipSpec  `json:"chip"`
		Sites     []int     `json:"sites"`
		CurrentA  *float64  `json:"current_a,omitempty"`
		K         int       `json:"k,omitempty"`
		L         int       `json:"l,omitempty"`
		CurrentsA []float64 `json:"currents_a,omitempty"`
	}
	solveResponse struct {
		PeakC     float64 `json:"peak_c"`
		PeakTile  int     `json:"peak_tile"`
		TECPowerW float64 `json:"tec_power_w"`
	}
	optimizeResponse struct {
		IOptA       float64  `json:"i_opt_a"`
		PeakC       float64  `json:"peak_c"`
		PeakTile    int      `json:"peak_tile"`
		TECPowerW   float64  `json:"tec_power_w"`
		LambdaMA    *float64 `json:"lambda_m_a"`
		Evaluations int      `json:"evaluations"`
	}
	runawayResponse struct {
		HasLimit bool     `json:"has_limit"`
		LambdaMA *float64 `json:"lambda_m_a"`
	}
	sweepResponse struct {
		Points []struct {
			CurrentA float64  `json:"current_a"`
			H        *float64 `json:"h"`
			Runaway  bool     `json:"runaway"`
		} `json:"points"`
		Done      int `json:"done"`
		Total     int `json:"total"`
		Coalesced int `json:"coalesced"`
	}
)

// design is one chip + deployment a request runs on.
type design struct {
	spec   chipSpec
	sites  []int
	cfg    core.Config // the resolved model, for the oracle
	tiles  int
	lambda float64 // runaway limit (A), +Inf when none
}

// call is one scheduled API call with what the oracle needs to redo it.
type call struct {
	endpoint string // solve, optimize-current, runaway-limit, sweep
	d        *design
	current  float64
	k, l     int
	currents []float64
}

func (c *call) request() request {
	req := apiRequest{Chip: c.d.spec, Sites: c.d.sites}
	switch c.endpoint {
	case "solve":
		req.CurrentA = &c.current
	case "sweep":
		req.K, req.L, req.CurrentsA = c.k, c.l, c.currents
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of finite numbers always marshal
	}
	tiles := c.d.tiles
	return request{path: "/v1/" + c.endpoint, body: body, check: func(b []byte) error { return cheapCheck(c.endpoint, tiles, b) }}
}

// cheapCheck holds every response to invariants that need no solve:
// finite numbers, a peak tile in range, complete sweeps with positive
// transfer coefficients. TEC input power is not sign-checked: at small
// currents the devices run in generator mode, where it is negative.
func cheapCheck(endpoint string, tiles int, body []byte) error {
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	switch endpoint {
	case "solve":
		var r solveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !finite(r.PeakC, r.TECPowerW) || r.PeakTile < 0 || r.PeakTile >= tiles {
			return fmt.Errorf("solve answer out of range: %+v", r)
		}
	case "optimize-current":
		var r optimizeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !finite(r.IOptA, r.PeakC, r.TECPowerW) || r.IOptA < 0 || r.PeakTile < 0 || r.PeakTile >= tiles ||
			r.Evaluations < 1 || (r.LambdaMA != nil && r.IOptA >= *r.LambdaMA) {
			return fmt.Errorf("optimize answer out of range: %+v", r)
		}
	case "runaway-limit":
		var r runawayResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.HasLimit != (r.LambdaMA != nil) || (r.LambdaMA != nil && !(*r.LambdaMA > 0)) {
			return fmt.Errorf("runaway answer inconsistent: %+v", r)
		}
	case "sweep":
		var r sweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Done != r.Total || len(r.Points) != r.Total {
			return fmt.Errorf("sweep incomplete: %d of %d", r.Done, r.Total)
		}
		for _, p := range r.Points {
			if p.Runaway || p.H == nil || !finite(*p.H) || *p.H <= 0 {
				return fmt.Errorf("sweep point out of range at %g A", p.CurrentA)
			}
		}
	}
	return nil
}

// directCheck re-solves one answered call with core.SolveDirect (one
// factorization per current, no SMW) and compares at 1e-9 relative.
func directCheck(c *call, body []byte) error {
	cfg := c.d.cfg
	cfg.Solve = core.SolveDirect
	sys, err := core.NewSystem(cfg, c.d.sites)
	if err != nil {
		return err
	}
	peakMatches := func(i, peakC, powerW float64, tile int) error {
		peak, t, theta, err := sys.PeakAt(i)
		if err != nil {
			return err
		}
		pw := sys.TECPower(theta, i)
		if !relClose(material.CelsiusToKelvin(peakC), peak, 1e-9) || t != tile || math.Abs(pw-powerW) > 1e-9*math.Max(1, math.Abs(pw)) {
			return fmt.Errorf("%s at %.9g A: peak %.12g C tile %d power %.12g W, direct %.12g C tile %d power %.12g W",
				c.endpoint, i, peakC, tile, powerW, material.KelvinToCelsius(peak), t, pw)
		}
		return nil
	}
	switch c.endpoint {
	case "solve":
		var r solveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return peakMatches(c.current, r.PeakC, r.TECPowerW, r.PeakTile)
	case "optimize-current":
		var r optimizeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return peakMatches(r.IOptA, r.PeakC, r.TECPowerW, r.PeakTile)
	case "runaway-limit":
		var r runawayResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.LambdaMA == nil {
			return nil
		}
		// The limit brackets the positive-definiteness boundary: the
		// direct factorization succeeds just below it and fails just
		// above.
		lam := *r.LambdaMA
		if _, err := sys.Factor(lam * (1 - 1e-6)); err != nil {
			return fmt.Errorf("lambda %.12g A: not PD just below: %v", lam, err)
		}
		if _, err := sys.Factor(lam * (1 + 1e-6)); err == nil {
			return fmt.Errorf("lambda %.12g A: still PD just above", lam)
		}
		return nil
	case "sweep":
		var r sweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		kn, ln := sys.PN.SilNode[c.k], sys.PN.SilNode[c.l]
		for idx, p := range r.Points {
			h, err := sys.Hkl(c.currents[idx], kn, ln)
			if err != nil {
				return err
			}
			if !relClose(*p.H, h, 1e-9) {
				return fmt.Errorf("sweep h(%g A) = %.12g, direct %.12g", p.CurrentA, *p.H, h)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown endpoint %q", c.endpoint)
}

// checkOutcomes counts failures: every request that failed or broke an
// invariant, plus every request of a seeded sample whose direct re-solve
// disagrees. It returns the number of sampled calls.
func checkOutcomes(rep *report, calls []call, lr *loadResult, sample int, seed int64) int {
	for i := range lr.outcomes {
		if !lr.outcomes[i].ok() {
			rep.fail("%s: %v", calls[i].endpoint, lr.outcomes[i].err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for _, i := range rng.Perm(len(calls)) {
		if checked == sample {
			break
		}
		if !lr.outcomes[i].ok() {
			continue
		}
		checked++
		if err := directCheck(&calls[i], lr.outcomes[i].body); err != nil {
			rep.fail("direct re-solve: %v", err)
		}
	}
	return checked
}

// namedDesign resolves a named chip for the hot set.
func namedDesign(name string, sites []int) (*design, error) {
	c, err := chipload.Load(chipload.Spec{Name: name})
	if err != nil {
		return nil, err
	}
	return &design{
		spec:  chipSpec{Name: name},
		sites: sites,
		cfg:   core.Config{Geom: c.Geom, Cols: c.Grid.Cols, Rows: c.Grid.Rows, TilePower: c.TilePower},
		tiles: c.Grid.Cols * c.Grid.Rows,
	}, nil
}

// drawSites picks n distinct tiles out of tiles.
func drawSites(rng *rand.Rand, tiles, n int) []int {
	return rng.Perm(tiles)[:n]
}

// The serve-hot workload: a seed-drawn hot set of deployments on the
// named chips, small enough for the system and solver caches (16 each),
// warmed before timing, under an open-loop mix that is mostly
// /v1/solve.
const (
	hotDesigns = 6
	hotRate    = 200.0 // requests per second
	// hotLimit is the latency limit goodput counts against: about twice
	// the p99, which the 2% optimize-current share sets.
	hotLimit = 60 * time.Millisecond
)

// hotPattern is the fixed order of endpoints in every 50 requests: 1
// optimize-current (2%), 6 sweeps (12%), 2 runaway-limit (4%), the rest
// solve, spread out so the long requests never bunch. The shares put
// each reported percentile inside one class of request: p50 among the
// solves, p90 among the sweeps, p99 among the optimizations. Seeds draw
// the designs and currents, not the order, so the queueing a mix causes
// is the same on every seed.
var hotPattern = func() []string {
	p := make([]string, 50)
	for i := range p {
		p[i] = "solve"
	}
	p[0] = "optimize-current"
	for _, i := range []int{4, 12, 20, 29, 37, 45} {
		p[i] = "sweep"
	}
	p[25], p[41] = "runaway-limit", "runaway-limit"
	return p
}()

// hotSites is the number of TEC sites of every hot design, so every
// seed's hot set has the same SMW rank.
const hotSites = 6

// drawHotSet draws the hot deployments: distinct named chips with
// hotSites TEC sites each.
func drawHotSet(seed int64) ([]*design, error) {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alpha"}
	for k := 1; k <= 10; k++ {
		names = append(names, fmt.Sprintf("hc%02d", k))
	}
	var out []*design
	for _, k := range rng.Perm(len(names))[:hotDesigns] {
		d, err := namedDesign(names[k], nil)
		if err != nil {
			return nil, err
		}
		d.sites = drawSites(rng, d.tiles, hotSites)
		out = append(out, d)
	}
	return out, nil
}

// warm sends each design's runaway-limit request (building its system
// and SMW state in the server) and records the limit.
func warm(s *liveServer, designs []*design) error {
	for _, d := range designs {
		body, err := json.Marshal(apiRequest{Chip: d.spec, Sites: d.sites})
		if err != nil {
			return err
		}
		var r runawayResponse
		if err := s.post("/v1/runaway-limit", body, &r); err != nil {
			return err
		}
		d.lambda = math.Inf(1)
		if r.LambdaMA != nil {
			d.lambda = *r.LambdaMA
		}
	}
	return nil
}

// hotCalls builds n requests in hotPattern order; currents are uniform
// on [0, 0.9*lambda), sweeps take 4 points.
func hotCalls(seed int64, n int, designs []*design) []call {
	rng := rand.New(rand.NewSource(seed))
	calls := make([]call, n)
	for i := range calls {
		d := designs[rng.Intn(len(designs))]
		top := 0.9 * math.Min(d.lambda, 20)
		c := call{endpoint: hotPattern[i%len(hotPattern)], d: d, current: top * rng.Float64()}
		if c.endpoint == "sweep" {
			c.k, c.l = rng.Intn(d.tiles), rng.Intn(d.tiles)
			for p := 0; p < 4; p++ {
				c.currents = append(c.currents, top*rng.Float64())
			}
		}
		calls[i] = c
	}
	return calls
}

func requestsOf(calls []call) []request {
	out := make([]request, len(calls))
	for i := range calls {
		out[i] = calls[i].request()
	}
	return out
}

// startWarm builds the server and warms it: the program set-up that
// setup_s times.
func startWarm(designs []*design) (*liveServer, func(), error) {
	core.ResetFactorCache()
	s, err := startServer()
	if err != nil {
		return nil, nil, err
	}
	closeFn := func() {
		if err := s.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing server:", err)
		}
	}
	if err := warm(s, designs); err != nil {
		closeFn()
		return nil, nil, err
	}
	return s, closeFn, nil
}

func runServeHot(cfg config) (*report, error) {
	rep := newReport()
	designs, err := drawHotSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	var closeFn func()
	s, setupS, err := timeSetup(func() (*liveServer, func(), error) {
		s, c, err := startWarm(designs)
		closeFn = c
		return s, c, err
	})
	if err != nil {
		return nil, err
	}
	defer closeFn()
	rep.set("setup_s", "s", setupS)
	if cfg.trace {
		return traceServeHot(cfg, rep, s, designs)
	}

	n := int(hotRate * cfg.seconds)
	calls := hotCalls(cfg.seed, n, designs)
	alloc0 := totalAlloc()
	lr := openLoop(context.Background(), httpSender(s.client, s.base), requestsOf(calls), hotRate, conns(), true)
	allocMB := float64(totalAlloc()-alloc0) / 1e6
	heap := heapInUseMB()
	rep.attempted += int64(n)
	rep.details["oracle_checked"] = checkOutcomes(rep, calls, lr, max(n/100, 20), cfg.seed)
	markValidity(rep, lr)
	latencySummary(rep, lr.latenciesMS())
	rep.set("wall_s", "s", lr.elapsed.Seconds())
	rep.set("alloc_mb", "MB", allocMB)
	rep.set("heap_inuse_mb", "MB", heap)
	rep.set("goodput_rps", "1/s", lr.goodput(hotLimit))
	rep.details["late_p99_ms"] = percentile(lr.lateMS(), 0.99)
	rep.details["rate_rps"] = hotRate
	rep.details["limit_ms"] = hotLimit.Milliseconds()
	rep.details["operation"] = "one HTTP request, timed from its due time"
	return rep, nil
}

// The serve-cold workload: every request carries a new design, an
// explicit seed-drawn power map with a fresh deployment, so every
// lookup misses and every request pays network assembly, base
// factorization and SMW setup.
const (
	coldRate = 5.0 // requests per second
	// coldLimit is the latency limit goodput counts against: about three
	// times the p90, which the 20x20 designs set.
	coldLimit = 1500 * time.Millisecond
	// coldChecked is how many answers are re-solved by the direct oracle.
	coldChecked = 8
)

// coldPattern is the fixed order of requests in every 20: solves
// (even positions) on 24x24, 20x20 and 12x12 designs, optimizations (odd
// positions) on 16x16 and 12x12 ones. Tilings total 30% 12x12, 45%
// 16x16, 20% 20x20 and 5% 24x24, so p50 falls in the middle of the 16x16
// requests and p90 among the 20x20 ones, below the much slower 24x24
// solves, not on the edge between two clusters. The large designs come
// every fourth request and the service runs at about 40% load, so one
// large solve ends before the next arrives even on a machine running at
// half speed. Seeds draw the power maps and deployments, not the order,
// so the queueing is the same on every seed.
var coldPattern = []struct {
	n        int
	endpoint string
}{
	{24, "solve"}, {16, "optimize-current"}, {12, "solve"}, {16, "optimize-current"},
	{20, "solve"}, {16, "optimize-current"}, {12, "solve"}, {16, "optimize-current"},
	{20, "solve"}, {16, "optimize-current"}, {12, "solve"}, {16, "optimize-current"},
	{20, "solve"}, {16, "optimize-current"}, {12, "solve"}, {16, "optimize-current"},
	{20, "solve"}, {12, "optimize-current"}, {12, "solve"}, {16, "optimize-current"},
}

// coldDesign draws one n x n design: 20-25 W spread over the die with
// one hot block, and 3-6 TEC sites.
func coldDesign(rng *rand.Rand, n int) *design {
	p := make([]float64, n*n)
	bc, br, bw := rng.Intn(n-n/4), rng.Intn(n-n/4), n/4
	var sum float64
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := 0.5 + rng.Float64()
			if c >= bc && c < bc+bw && r >= br && r < br+bw {
				v *= 4
			}
			p[r*n+c] = v
			sum += v
		}
	}
	total := 20 + 5*rng.Float64()
	for i := range p {
		p[i] *= total / sum
	}
	return &design{
		spec:   chipSpec{Cols: n, Rows: n, TilePowerW: p},
		sites:  drawSites(rng, n*n, 3+rng.Intn(4)),
		cfg:    core.Config{Cols: n, Rows: n, TilePower: p},
		tiles:  n * n,
		lambda: math.Inf(1),
	}
}

// coldCalls builds n requests in coldPattern order; solves run at a
// current uniform on [0, 2) A, far below these designs' runaway limits.
func coldCalls(seed int64, n int) []call {
	rng := rand.New(rand.NewSource(seed))
	calls := make([]call, n)
	for i := range calls {
		p := coldPattern[i%len(coldPattern)]
		calls[i] = call{endpoint: p.endpoint, d: coldDesign(rng, p.n), current: 2 * rng.Float64()}
	}
	return calls
}

func runServeCold(cfg config) (*report, error) {
	rep := newReport()
	var closeFn func()
	s, setupS, err := timeSetup(func() (*liveServer, func(), error) {
		s, c, err := startWarm(nil)
		if err == nil {
			// One solve on a fixed design opens the connections and
			// runs every layer once before timing.
			var r solveResponse
			call := call{endpoint: "solve", d: coldDesign(rand.New(rand.NewSource(0)), 12)}
			if err = s.post("/v1/solve", call.request().body, &r); err != nil {
				c()
			}
		}
		closeFn = c
		return s, c, err
	})
	if err != nil {
		return nil, err
	}
	defer closeFn()
	rep.set("setup_s", "s", setupS)
	if cfg.trace {
		return traceServeCold(cfg, rep)
	}

	n := int(coldRate * cfg.seconds)
	calls := coldCalls(cfg.seed, n)
	reqs := requestsOf(calls)
	alloc0 := totalAlloc()
	lr := openLoop(context.Background(), httpSender(s.client, s.base), reqs, coldRate, conns(), true)
	allocMB := float64(totalAlloc()-alloc0) / 1e6
	heap := heapInUseMB()
	rep.attempted = int64(n)
	rep.details["oracle_checked"] = checkOutcomes(rep, calls, lr, coldChecked, cfg.seed)
	markValidity(rep, lr)
	latencySummary(rep, lr.latenciesMS())
	rep.set("wall_s", "s", lr.elapsed.Seconds())
	rep.set("alloc_mb", "MB", allocMB)
	rep.set("heap_inuse_mb", "MB", heap)
	rep.set("goodput_rps", "1/s", lr.goodput(coldLimit))
	rep.details["late_p99_ms"] = percentile(lr.lateMS(), 0.99)
	rep.details["rate_rps"] = coldRate
	rep.details["limit_ms"] = coldLimit.Milliseconds()
	rep.details["operation"] = "one HTTP request on a new design, timed from its due time"
	return rep, nil
}
