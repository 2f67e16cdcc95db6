package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tecopt/internal/bench"
	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/material"
	"tecopt/internal/obs"
)

// canonicalSeed selects the paper's HC01..HC10 suite; any other seed
// draws ten chips with power.GenerateHC from seed-derived seeds.
const canonicalSeed = 1

// chip is one Table I input.
type chip struct {
	name      string
	tilePower []float64
}

// tableIChips resolves the eleven Table I chips for a seed through the
// program's chip layer. All eleven are kept: the Full-Cover operators
// they share are part of what the workload measures.
func tableIChips(seed int64) ([]chip, error) {
	specs := []string{"alpha"}
	for k := 1; k <= 10; k++ {
		if seed == canonicalSeed {
			specs = append(specs, fmt.Sprintf("hc%02d", k))
		} else {
			specs = append(specs, fmt.Sprintf("hc:%d", seed*1000+int64(k)))
		}
	}
	chips := make([]chip, 0, len(specs))
	for k, s := range specs {
		c, err := chipload.Load(chipload.Spec{Name: s})
		if err != nil {
			return nil, err
		}
		name := "Alpha"
		if k > 0 {
			name = fmt.Sprintf("HC%02d", k)
		}
		chips = append(chips, chip{name: name, tilePower: c.TilePower})
	}
	return chips, nil
}

// tableIPass is one serial Table I: the formatted table, the rows and
// each row's wall time.
type tableIPass struct {
	rows   []*bench.TableIRow
	rowMS  []float64
	table  string
	wallS  float64
	allocB uint64
}

// runTableIPass evaluates every chip with bench.RunTableIRow, the
// program's own per-chip entry point, in order.
// A non-nil t puts each chip under a "bench.chip" span, so the
// program's own spans for the chip nest under it.
func runTableIPass(ctx context.Context, chips []chip, t *traceSession) (*tableIPass, error) {
	p := &tableIPass{}
	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	for _, c := range chips {
		t0 := time.Now()
		cctx := ctx
		var sp obs.Span
		if t != nil {
			cctx, sp = t.span(ctx, "bench.chip")
		}
		row, err := bench.RunTableIRow(c.name, c.tilePower, bench.TableIOptions{Ctx: cctx})
		sp.End()
		if err != nil {
			return nil, err
		}
		p.rowMS = append(p.rowMS, float64(time.Since(t0))/1e6)
		p.rows = append(p.rows, row)
	}
	p.wallS = time.Since(start).Seconds()
	p.allocB = totalAlloc() - alloc0
	p.table = bench.FormatTableI(p.rows)
	return p, nil
}

func runTableI(cfg config) (*report, error) {
	rep := newReport()
	chips, setupS, err := timeSetup(func() ([]chip, func(), error) {
		c, err := tableIChips(cfg.seed)
		return c, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", setupS)
	oracle, err := newTableIOracle(cfg, chips)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceTableI(cfg, rep, chips, oracle)
	}

	// Whole passes only: another pass starts while the previous one's
	// duration still fits in the measured time, and there is always one.
	var passes []*tableIPass
	begin := time.Now()
	for len(passes) == 0 || time.Since(begin).Seconds()+passes[len(passes)-1].wallS <= cfg.seconds {
		core.ResetFactorCache()
		p, err := runTableIPass(context.Background(), chips, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	heap := heapInUseMB()

	var walls, allocs, rowMS []float64
	for _, p := range passes {
		walls = append(walls, p.wallS)
		allocs = append(allocs, float64(p.allocB)/1e6)
		rowMS = append(rowMS, p.rowMS...)
		rep.attempted += int64(len(p.rows))
		oracle.check(rep, p)
	}
	rep.set("wall_s", "s", median(walls))
	rep.set("alloc_mb", "MB", median(allocs))
	rep.set("heap_inuse_mb", "MB", heap)
	latencySummary(rep, rowMS)
	rep.set("goodput_rps", "1/s", float64(len(chips))/median(walls))
	rep.details["passes"] = len(passes)
	rep.details["operation"] = "one Table I chip row (bench.RunTableIRow)"
	return rep, nil
}

// tableIOracle holds what a Table I pass is checked against.
type tableIOracle struct {
	chips []chip
	// reference is the committed formatted table for this seed, "" when
	// none was recorded.
	reference string
	// alphaGolden is the program's own golden Alpha row.
	alphaGolden string
}

func referencePath(root string, seed int64) string {
	return filepath.Join(root, "perfbench", "testdata", "tablei", fmt.Sprintf("seed-%d.txt", seed))
}

func newTableIOracle(cfg config, chips []chip) (*tableIOracle, error) {
	o := &tableIOracle{chips: chips}
	golden, err := os.ReadFile(filepath.Join(cfg.root, "internal", "bench", "testdata", "golden_tablei_alpha.txt"))
	if err != nil {
		return nil, fmt.Errorf("reading the Alpha golden row: %w", err)
	}
	o.alphaGolden = string(golden)
	ref, err := os.ReadFile(referencePath(cfg.root, cfg.seed))
	switch {
	case err == nil:
		o.reference = string(ref)
	case !os.IsNotExist(err):
		return nil, err
	}
	return o, nil
}

// check verifies a pass: the Alpha row against the program's golden
// file, the whole table against the recorded reference for the seed,
// and every row's peaks and TEC power re-solved with the direct
// (refactor-per-current) solver at 1e-9 relative. Each row failing any
// check counts as one failed operation.
func (o *tableIOracle) check(rep *report, p *tableIPass) {
	bad := make([]bool, len(p.rows))
	if got := bench.FormatTableI(p.rows[:1]); got != o.alphaGolden {
		rep.details["alpha_row"] = got
		bad[0] = true
	}
	if o.reference != "" {
		want := strings.Split(o.reference, "\n")
		got := strings.Split(p.table, "\n")
		// Lines 2..12 are the chip rows; any other differing line (the
		// average row) blames every row.
		for i := range max(len(want), len(got)) {
			if i < len(want) && i < len(got) && want[i] == got[i] {
				continue
			}
			if r := i - 2; r >= 0 && r < len(p.rows) {
				bad[r] = true
			} else {
				for r := range bad {
					bad[r] = true
				}
			}
		}
	}
	for k, row := range p.rows {
		if err := directCheckRow(o.chips[k], row); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", row.Name, err)
			bad[k] = true
		}
	}
	for k, b := range bad {
		if b {
			rep.fail("tablei row %s", p.rows[k].Name)
		}
	}
}

// directCheckRow re-solves a Table I row with core.SolveDirect: the
// passive peak, the greedy deployment's peak and TEC power at the
// reported current, and that the greedy peak meets the row's limit.
func directCheckRow(c chip, row *bench.TableIRow) error {
	cfg := core.Config{TilePower: c.tilePower, Solve: core.SolveDirect}
	passive, err := core.NewSystem(cfg, nil)
	if err != nil {
		return err
	}
	peak0, _, _, err := passive.PeakAt(0)
	if err != nil {
		return err
	}
	if !relClose(material.KelvinToCelsius(peak0), row.NoTECPeakC, 1e-9) {
		return fmt.Errorf("passive peak %.12g C, direct solve %.12g C", row.NoTECPeakC, material.KelvinToCelsius(peak0))
	}
	sys, err := core.NewSystem(cfg, row.Sites)
	if err != nil {
		return err
	}
	peak, _, theta, err := sys.PeakAt(row.IOptA)
	if err != nil {
		return err
	}
	if !relClose(material.KelvinToCelsius(peak), row.GreedyPeakC, 1e-9) {
		return fmt.Errorf("greedy peak %.12g C, direct solve %.12g C", row.GreedyPeakC, material.KelvinToCelsius(peak))
	}
	if pw := sys.TECPower(theta, row.IOptA); !relClose(pw, row.PTECW, 1e-9) {
		return fmt.Errorf("TEC power %.12g W, direct solve %.12g W", row.PTECW, pw)
	}
	if row.GreedyPeakC > row.LimitC+1e-9 || len(row.Sites) != row.NumTECs {
		return fmt.Errorf("greedy row violates its limit or site count")
	}
	return nil
}

// relClose reports |a-b| <= tol*max(|a|,|b|), false for non-finite
// values.
func relClose(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// recordTableI writes the formatted Table I of a seed, the reference a
// later run compares against byte for byte.
func recordTableI(seed int64, path string) error {
	chips, err := tableIChips(seed)
	if err != nil {
		return err
	}
	p, err := runTableIPass(context.Background(), chips, nil)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(p.table), 0o644)
}
