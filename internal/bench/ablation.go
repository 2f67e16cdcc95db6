package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/power"
	"tecopt/internal/sparse"
	"tecopt/internal/thermal"
)

// Ablation studies for the design choices called out in DESIGN.md.

// alphaDeployedSystem builds the Alpha chip with its greedy deployment.
func alphaDeployedSystem() (*core.System, error) {
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	dep, err := core.GreedyDeploy(core.Config{TilePower: p}, material.CelsiusToKelvin(85), core.CurrentOptions{})
	if err != nil {
		return nil, err
	}
	return dep.System, nil
}

// OptimizerAblationRow compares one current-setting method.
type OptimizerAblationRow struct {
	Method      string
	IOptA       float64
	PeakC       float64
	Evaluations int
	Runtime     time.Duration
}

// RunOptimizerAblation compares golden-section, Brent and gradient
// descent on the same deployed system. All must reach (near) the same
// minimum; the evaluation counts expose their relative cost.
func RunOptimizerAblation() ([]OptimizerAblationRow, error) {
	sys, err := alphaDeployedSystem()
	if err != nil {
		return nil, err
	}
	methods := []struct {
		name string
		m    core.CurrentMethod
	}{
		{"golden-section", core.CurrentGolden},
		{"brent", core.CurrentBrent},
		{"gradient-descent", core.CurrentGradient},
	}
	var rows []OptimizerAblationRow
	for _, md := range methods {
		start := time.Now()
		res, err := sys.OptimizeCurrent(core.CurrentOptions{Method: md.m})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", md.name, err)
		}
		rows = append(rows, OptimizerAblationRow{
			Method:      md.name,
			IOptA:       res.IOpt,
			PeakC:       material.KelvinToCelsius(res.PeakK),
			Evaluations: res.Evaluations,
			Runtime:     time.Since(start),
		})
	}
	return rows, nil
}

// SolverAblationRow compares one steady-state solver backend.
type SolverAblationRow struct {
	Method   string
	Runtime  time.Duration
	PeakC    float64
	MaxDiffC float64 // vs the direct solver
}

// RunSolverAblation solves the same deployed system at its optimum with
// the banded direct solver and with preconditioned CG.
func RunSolverAblation() ([]SolverAblationRow, error) {
	sys, err := alphaDeployedSystem()
	if err != nil {
		return nil, err
	}
	res, err := sys.OptimizeCurrent(core.CurrentOptions{})
	if err != nil {
		return nil, err
	}
	m := sys.Matrix(res.IOpt)
	rhs := sys.RHS(res.IOpt)

	start := time.Now()
	direct, err := thermal.SolveSteady(m, rhs, thermal.MethodBandCholesky)
	if err != nil {
		return nil, err
	}
	tDirect := time.Since(start)

	start = time.Now()
	pcg, err := sparse.SolveCG(m, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(m)})
	if err != nil {
		return nil, err
	}
	cg := pcg.X
	tCG := time.Since(start)

	var maxDiff float64
	for i := range direct {
		if d := math.Abs(direct[i] - cg[i]); d > maxDiff {
			maxDiff = d
		}
	}
	peakD, _ := sys.PN.PeakSilicon(direct)
	peakC, _ := sys.PN.PeakSilicon(cg)
	return []SolverAblationRow{
		{Method: "band-cholesky (direct)", Runtime: tDirect, PeakC: material.KelvinToCelsius(peakD)},
		{Method: "pcg (ic0)", Runtime: tCG, PeakC: material.KelvinToCelsius(peakC), MaxDiffC: maxDiff},
	}, nil
}

// ConvexityAblationRow reports the Theorem-4 certificate at one subrange
// count.
type ConvexityAblationRow struct {
	Ranges    int
	Certified bool
	Runtime   time.Duration
}

// RunConvexityAblation sweeps the Theorem-4 subrange count — the
// runtime/accuracy trade-off the paper describes after Theorem 4 (more
// subranges tighten the eta' lower bound at higher cost).
func RunConvexityAblation(rangeCounts []int) ([]ConvexityAblationRow, error) {
	sys, err := alphaDeployedSystem()
	if err != nil {
		return nil, err
	}
	peakTile := sys.Sites()[0]
	var rows []ConvexityAblationRow
	for _, rc := range rangeCounts {
		start := time.Now()
		ok, err := sys.ConvexityCertificate(peakTile, rc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ConvexityAblationRow{Ranges: rc, Certified: ok, Runtime: time.Since(start)})
	}
	return rows, nil
}

// LambdaToleranceRow reports one lambda_m search tolerance.
type LambdaToleranceRow struct {
	RelTol  float64
	LambdaM float64
	Runtime time.Duration
}

// RunLambdaToleranceAblation sweeps the binary-search tolerance of the
// runaway-limit computation.
func RunLambdaToleranceAblation(tols []float64) ([]LambdaToleranceRow, error) {
	sys, err := alphaDeployedSystem()
	if err != nil {
		return nil, err
	}
	var rows []LambdaToleranceRow
	for _, tol := range tols {
		start := time.Now()
		lam, err := sys.RunawayLimit(core.RunawayOptions{RelTol: tol})
		if err != nil {
			return nil, err
		}
		rows = append(rows, LambdaToleranceRow{RelTol: tol, LambdaM: lam, Runtime: time.Since(start)})
	}
	return rows, nil
}

// FormatAblations renders all four ablations into one report.
func FormatAblations(opt []OptimizerAblationRow, sol []SolverAblationRow,
	cvx []ConvexityAblationRow, lam []LambdaToleranceRow) string {
	var b strings.Builder
	b.WriteString("Ablation: current-setting optimizer\n")
	for _, r := range opt {
		fmt.Fprintf(&b, "  %-18s Iopt=%6.3f A  peak=%7.3f C  evals=%3d  %v\n",
			r.Method, r.IOptA, r.PeakC, r.Evaluations, r.Runtime.Round(time.Millisecond))
	}
	b.WriteString("Ablation: steady-state solver\n")
	for _, r := range sol {
		fmt.Fprintf(&b, "  %-22s peak=%7.3f C  maxdiff=%.2e C  %v\n",
			r.Method, r.PeakC, r.MaxDiffC, r.Runtime.Round(time.Microsecond))
	}
	b.WriteString("Ablation: Theorem-4 subrange count\n")
	for _, r := range cvx {
		fmt.Fprintf(&b, "  ranges=%2d certified=%v  %v\n", r.Ranges, r.Certified, r.Runtime.Round(time.Millisecond))
	}
	b.WriteString("Ablation: lambda_m binary-search tolerance\n")
	for _, r := range lam {
		fmt.Fprintf(&b, "  tol=%.0e lambda_m=%.6f A  %v\n", r.RelTol, r.LambdaM, r.Runtime.Round(time.Millisecond))
	}
	return b.String()
}
