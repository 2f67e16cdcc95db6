package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/dtm"
	"tecopt/internal/material"
	"tecopt/internal/sparse"
	"tecopt/internal/thermal"
	"tecopt/internal/transient"
)

// The dtm workload is the examples/dtmpolicy scenario: the Alpha chip's
// greedy deployment, statically sized for the worst case, under bursty
// busy/idle phases with the bang-bang and proportional controllers.
// Each scenario draws its phase lengths and power levels from the seed;
// one operation is one scenario run under both controllers.
const (
	dtmDt           = 0.05 // integration step (s), as in examples/dtmpolicy
	dtmControlEvery = 10   // controller period in steps
	dtmPhases       = 4    // busy, idle, busy, idle
	dtmHorizonS     = 60.0 // simulated seconds per scenario
	// dtmChecked is how many scenarios of a run are re-integrated by
	// the exact-current oracle.
	dtmChecked = 2
)

// dtmDesign is the static worst-case design every scenario runs on.
type dtmDesign struct {
	sys    *core.System
	busy   []float64
	iOpt   float64
	limitK float64
	// theta0 is the passive steady state under the worst-case power:
	// scenarios start hot, so the controllers act from the first period
	// instead of waiting out the package's heating time.
	theta0 []float64
}

func newDTMDesign() (*dtmDesign, error) {
	c, err := chipload.Load(chipload.Spec{Name: "alpha"})
	if err != nil {
		return nil, err
	}
	limitK := material.CelsiusToKelvin(85)
	dep, err := core.GreedyDeploy(core.Config{TilePower: c.TilePower}, limitK, core.CurrentOptions{})
	if err != nil {
		return nil, err
	}
	if !dep.Success {
		return nil, fmt.Errorf("alpha greedy deployment failed at 85 C")
	}
	theta0, err := dep.System.SolveAt(0)
	if err != nil {
		return nil, err
	}
	return &dtmDesign{sys: dep.System, busy: c.TilePower, iOpt: dep.Current.IOpt, limitK: limitK, theta0: theta0}, nil
}

// controllers returns fresh instances of the two policies (BangBang
// keeps state, so every run gets its own).
func (d *dtmDesign) controllers() []dtm.Controller {
	return []dtm.Controller{
		&dtm.BangBang{
			OnAboveK:  material.CelsiusToKelvin(80),
			OffBelowK: material.CelsiusToKelvin(68),
			CurrentA:  d.iOpt,
		},
		dtm.Proportional{SetpointK: material.CelsiusToKelvin(72), Gain: 2.0, MaxA: d.iOpt},
	}
}

// dtmScenarios draws n bursty workloads of four equal phases, busy
// and idle as in examples/dtmpolicy: busy at 95-100% and idle at
// 22.5-27.5% of the worst-case power, drawn per tile. The seed moves the
// power maps, not the phase structure, so every scenario asks the
// controllers for about the same work.
func dtmScenarios(seed int64, n int, busy []float64) [][]dtm.PowerPhase {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]dtm.PowerPhase, n)
	for s := range out {
		for k := 0; k < dtmPhases; k++ {
			lo, width := 0.95, 0.05
			if k%2 == 1 {
				lo, width = 0.225, 0.05
			}
			p := make([]float64, len(busy))
			for t, v := range busy {
				p[t] = (lo + width*rng.Float64()) * v
			}
			out[s] = append(out[s], dtm.PowerPhase{Duration: dtmHorizonS / dtmPhases, TilePower: p})
		}
	}
	return out
}

func dtmOptions(ctx context.Context, theta0 []float64) dtm.RunOptions {
	return dtm.RunOptions{Dt: dtmDt, ControlEvery: dtmControlEvery, Theta0: theta0, Ctx: ctx}
}

// dtmScenarioRun runs one scenario under both controllers and returns
// the results with each dtm.Run's wall time in ms.
func dtmScenarioRun(ctx context.Context, d *dtmDesign, phases []dtm.PowerPhase) ([]*dtm.RunResult, []float64, error) {
	var (
		out   []*dtm.RunResult
		runMS []float64
	)
	for _, ctrl := range d.controllers() {
		start := time.Now()
		res, err := dtm.Run(d.sys, phases, ctrl, d.limitK, dtmOptions(ctx, d.theta0))
		if err != nil {
			return nil, nil, err
		}
		runMS = append(runMS, float64(time.Since(start))/1e6)
		out = append(out, res)
	}
	return out, runMS, nil
}

func runDTM(cfg config) (*report, error) {
	rep := newReport()
	design, setupS, err := timeSetup(func() (*dtmDesign, func(), error) {
		core.ResetFactorCache()
		d, err := newDTMDesign()
		return d, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", setupS)
	if cfg.trace {
		return traceDTM(cfg, rep, design)
	}

	// A pass is one scenario under both controllers; passes repeat while
	// the last one's duration still fits, and there is always one. Each
	// starts from a collected heap, so one pass's garbage is not charged
	// to the next.
	var (
		walls, allocs, runMS []float64
		results              [][]*dtm.RunResult
		scenarios            [][]dtm.PowerPhase
	)
	begin := time.Now()
	for pass := int64(0); len(walls) == 0 || time.Since(begin).Seconds()+walls[len(walls)-1] <= cfg.seconds; pass++ {
		ph := dtmScenarios(cfg.seed*7919+pass, 1, design.busy)[0]
		runtime.GC()
		alloc0 := totalAlloc()
		start := time.Now()
		res, ms, err := dtmScenarioRun(context.Background(), design, ph)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
		runMS = append(runMS, ms...)
		allocs = append(allocs, float64(totalAlloc()-alloc0)/1e6)
		results = append(results, res)
		scenarios = append(scenarios, ph)
	}
	heap := heapInUseMB()

	rep.attempted = int64(len(scenarios))
	checkDTM(rep, design, cfg.seed, scenarios, results)
	rep.set("wall_s", "s", median(walls))
	rep.set("alloc_mb", "MB", median(allocs))
	rep.set("heap_inuse_mb", "MB", heap)
	latencySummary(rep, runMS)
	rep.set("goodput_rps", "1/s", 1/median(walls))
	rep.details["passes"] = len(walls)
	rep.details["operation"] = "one dtm.Run; a pass is one scenario under bang-bang and proportional control"
	return rep, nil
}

// checkDTM checks every scenario's results for physical sanity and
// re-integrates a seeded sample with the exact-current oracle.
func checkDTM(rep *report, d *dtmDesign, seed int64, scenarios [][]dtm.PowerPhase, results [][]*dtm.RunResult) {
	tol, err := newDTMTolerance(d)
	if err != nil {
		rep.fail("dtm tolerance: %v", err)
		return
	}
	bad := make([]bool, len(scenarios))
	for s, rs := range results {
		for _, r := range rs {
			if !(r.MaxPeakK > d.sys.Cfg.Geom.AmbientK) || r.TimeAboveLimitS < 0 || !(r.TECEnergyJ >= 0) || math.IsInf(r.TECEnergyJ, 0) {
				bad[s] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range rng.Perm(len(scenarios))[:min(dtmChecked, len(scenarios))] {
		for k, ctrl := range d.controllers() {
			want, err := dtmOracle(d, scenarios[s], ctrl)
			if err != nil {
				rep.fail("dtm oracle: %v", err)
				return
			}
			if err := tol.compare(results[s][k], want); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: dtm scenario %d %s: %v\n", s, ctrl.Name(), err)
				bad[s] = true
			}
		}
	}
	for s, b := range bad {
		if b {
			rep.fail("dtm scenario %d", s)
		}
	}
}

// dtmTolerance bounds how far a DTM result may sit from the
// exact-current oracle. dtm.Run rounds every commanded current to
// CurrentQuantumA (q); a current error of at most q/2 moves the
// steady peak by at most S*q/2 and the TEC power by at most P'*q/2,
// where S and P' are the largest slopes of the steady peak and TEC
// power over [0, I_opt]. The bounds take twice that, so both the
// quantized and an exact-current integrator pass, while a solver off by
// more than a quantum's worth of physics fails.
type dtmTolerance struct {
	peakK, energyJ, timeS float64
	limitK                float64
}

// dtmQuantumA is dtm.RunOptions' default CurrentQuantumA, which the
// workload uses.
const dtmQuantumA = 0.05

func newDTMTolerance(d *dtmDesign) (*dtmTolerance, error) {
	const n = 8
	var slopeT, slopeP float64
	prevT, prevP := 0.0, 0.0
	for k := 0; k <= n; k++ {
		i := d.iOpt * float64(k) / n
		peak, _, theta, err := d.sys.PeakAt(i)
		if err != nil {
			return nil, err
		}
		p := d.sys.TECPower(theta, i)
		if k > 0 {
			h := d.iOpt / n
			slopeT = math.Max(slopeT, math.Abs(peak-prevT)/h)
			slopeP = math.Max(slopeP, math.Abs(p-prevP)/h)
		}
		prevT, prevP = peak, p
	}
	return &dtmTolerance{
		peakK:   slopeT * dtmQuantumA,
		energyJ: slopeP * dtmQuantumA * dtmHorizonS,
		// Crossing the limit can move by one control period per crossing;
		// compare adds the per-crossing term.
		timeS:  dtmControlEvery * dtmDt,
		limitK: d.limitK,
	}, nil
}

func (t *dtmTolerance) compare(got, want *dtm.RunResult) error {
	crossings := 0
	for k := 1; k < len(want.Samples); k++ {
		if (want.Samples[k-1].PeakK > t.limitK) != (want.Samples[k].PeakK > t.limitK) {
			crossings++
		}
	}
	switch {
	case math.Abs(got.MaxPeakK-want.MaxPeakK) > t.peakK:
		return fmt.Errorf("max peak %.6f K, oracle %.6f K (tol %.3g)", got.MaxPeakK, want.MaxPeakK, t.peakK)
	case math.Abs(got.TECEnergyJ-want.TECEnergyJ) > t.energyJ:
		return fmt.Errorf("TEC energy %.6f J, oracle %.6f J (tol %.3g)", got.TECEnergyJ, want.TECEnergyJ, t.energyJ)
	case math.Abs(got.TimeAboveLimitS-want.TimeAboveLimitS) > t.timeS*float64(crossings+1):
		return fmt.Errorf("time above limit %.3f s, oracle %.3f s", got.TimeAboveLimitS, want.TimeAboveLimitS)
	}
	return nil
}

// dtmOracle integrates the scenario with backward Euler exactly as
// dtm.Run specifies it, but at the exact commanded current: every step
// solves (G + C/dt - i*D) theta = p(i) + C/dt*theta through an SMW
// correction of the factored G + C/dt, so no current is rounded.
func dtmOracle(d *dtmDesign, phases []dtm.PowerPhase, ctrl dtm.Controller) (*dtm.RunResult, error) {
	sys := d.sys
	n := sys.NumNodes()
	cOverDt := transient.Capacitances(sys.PN)
	for i := range cOverDt {
		cOverDt[i] /= dtmDt
	}
	b := sys.Matrix(0).AddScaledDiag(1, cOverDt)
	rs, err := thermal.NewReusableSystem(b, sys.Array.DVector(n), sparse.RCM(b))
	if err != nil {
		return nil, err
	}
	theta := append([]float64(nil), d.theta0...)
	res := &dtm.RunResult{Policy: ctrl.Name()}
	peak, _ := sys.PN.PeakSilicon(theta)
	res.MaxPeakK = peak
	current := math.Max(0, ctrl.Next(0, peak))
	res.Samples = append(res.Samples, dtm.Sample{PeakK: peak, CurrentA: current})
	now, step := 0.0, 0
	rhs := make([]float64, n)
	for _, ph := range phases {
		base, err := sys.PN.PowerVector(ph.TilePower)
		if err != nil {
			return nil, err
		}
		for i, v := range sys.PN.Net.BaseRHS() {
			base[i] += v
		}
		for s := 0; s < int(math.Ceil(ph.Duration/dtmDt)); s++ {
			copy(rhs, base)
			sys.Array.JoulePower(rhs, current)
			for i := range rhs {
				rhs[i] += cOverDt[i] * theta[i]
			}
			if theta, _, err = rs.SolveAtCurrent(context.Background(), current, rhs); err != nil {
				return nil, err
			}
			now += dtmDt
			step++
			peak, _ = sys.PN.PeakSilicon(theta)
			res.MaxPeakK = math.Max(res.MaxPeakK, peak)
			if peak > d.limitK {
				res.TimeAboveLimitS += dtmDt
			}
			res.TECEnergyJ += sys.TECPower(theta, current) * dtmDt
			if step%dtmControlEvery == 0 {
				current = math.Max(0, ctrl.Next(now, peak))
				res.Samples = append(res.Samples, dtm.Sample{TimeS: now, PeakK: peak, CurrentA: current})
			}
		}
	}
	return res, nil
}
