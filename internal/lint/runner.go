package lint

import (
	"path/filepath"
	"sort"

	"tecopt/internal/engine"
)

// LintUnits runs the analyzers over every loaded unit and returns the
// findings globally sorted by file:line:column:rule, with filenames
// rewritten relative to base (when non-empty) so output is stable
// regardless of where the tool runs from.
//
// The unit runs spread over workers goroutines (engine.Pool semantics:
// <=0 means GOMAXPROCS, 1 is serial). A loaded Unit is immutable, the
// shared FactStore is internally locked, and token.FileSet position
// lookups are safe concurrently, so Run can fan out per unit. Results
// are collected by index and then globally sorted, making the output
// byte-identical to the serial run for any worker count. Per-analyzer
// timing and finding counts accumulate into stats (nil disables
// collection); the StatsCollector is internally locked, so concurrent
// unit runs may share it.
func LintUnits(units []*Unit, analyzers []*Analyzer, base string, workers int, stats *StatsCollector) ([]Diagnostic, error) {
	perUnit := make([][]Diagnostic, len(units))
	pool := engine.Pool{Workers: workers}
	if err := pool.Map(len(units), func(i int) error {
		perUnit[i] = Run(units[i], analyzers, stats)
		return nil
	}); err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, diags := range perUnit {
		all = append(all, diags...)
	}
	if base != "" {
		for i := range all {
			if rel, err := filepath.Rel(base, all[i].Pos.Filename); err == nil {
				all[i].Pos.Filename = filepath.ToSlash(rel)
			}
		}
	}
	SortDiagnostics(all)
	return all, nil
}

// SortDiagnostics orders findings by file, line, column, then rule.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
