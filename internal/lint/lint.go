// Package lint is a self-contained static-analysis framework for this
// repository, built only on the standard library (go/ast, go/parser,
// go/types). It exists because the reproduction hangs on numerically
// delicate code — Cholesky positive-definiteness tests deciding the
// runaway limit lambda_m, convexity checks over h_kl(i), and greedy
// deployment driven by floating-point temperature comparisons — where
// bugs do not crash but quietly corrupt Table I / Figure 6 outputs.
//
// The framework deliberately mirrors the shape of golang.org/x/tools
// analysis passes (Analyzer, Pass, Diagnostic) without importing them,
// so the repository keeps its zero-dependency go.mod.
//
// Suppressing a finding: add a comment of the form
//
//	"teclint:ignore <rule>[,<rule>...] <reason>"
//
// on the flagged line (or the line directly above it). The rule list is
// mandatory; a finding is only suppressed by a directive naming its
// rule, so a suppression never hides diagnostics from other analyzers.
// A directive with no rule list, or naming a rule that does not exist,
// suppresses nothing and is itself reported under the "badignore"
// pseudo-rule. The reason is mandatory too: a directive with a bare
// rule list still suppresses its targets, but the framework reports the
// directive itself under badignore, so a suppression can never pass the
// lint gate without recording why it is safe. badignore findings cannot
// themselves be suppressed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"time"
)

// Analyzer is one static-analysis rule. Run inspects a single package
// unit and reports findings through the Pass.
type Analyzer struct {
	// Name is the short rule identifier printed as "[name]" in findings
	// and matched by ignore directives.
	Name string
	// Doc is a one-paragraph description of what the rule flags and why.
	Doc string
	// Run inspects pass.Files and calls pass.Report for each finding.
	Run func(pass *Pass)
}

// Pass carries one type-checked package unit through an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts is the loader's cross-package fact store (may be nil in
	// hand-built passes; FactStore methods tolerate a nil receiver).
	Facts *FactStore

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Terminates reports whether the call can never return (panic,
// os.Exit, a module-local fatal helper, ...): the predicate the
// CFG-based analyzers hand to BuildCFG.
func (p *Pass) Terminates(call *ast.CallExpr) bool {
	return TerminatesCall(p.Info, p.Facts)(call)
}

// Reportf records a finding at pos under the current analyzer's rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// IsFloat reports whether e has floating-point type (possibly via a
// named type whose underlying type is float32/float64).
func (p *Pass) IsFloat(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String formats the finding in the canonical "file:line: [rule] msg"
// shape that cmd/teclint prints and the golden tests pin down.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Run applies each analyzer to the unit and returns the surviving
// findings: suppressed diagnostics (teclint:ignore directives) are
// filtered out, and the rest are sorted by file, line, column, rule so
// output is deterministic across runs. Each analyzer's wall time and
// surviving finding count accumulate into stats (nil skips collection
// entirely).
func Run(unit *Unit, analyzers []*Analyzer, stats *StatsCollector) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     unit.Fset,
			Files:    unit.Files,
			Pkg:      unit.Pkg,
			Info:     unit.Info,
			Facts:    unit.Facts,
			analyzer: a,
			diags:    &diags,
		}
		start := time.Now()
		a.Run(pass)
		stats.addTime(a.Name, time.Since(start))
	}
	diags = filterSuppressed(unit, diags)
	diags = append(diags, badIgnores(unit)...)
	SortDiagnostics(diags)
	stats.addFindings(diags)
	return diags
}

// BadIgnoreRule is the pseudo-rule under which the framework reports
// malformed teclint:ignore directives: no rule list, an unknown rule
// name, or no reason. It is emitted by Run itself (not an Analyzer),
// after suppression filtering, so it can never be suppressed.
const BadIgnoreRule = "badignore"

// knownRules is the set of rule names a directive may scope itself
// to: every registered analyzer plus the badignore pseudo-rule (which
// is listable in a directive for documentation purposes only — its
// findings are emitted after filtering and never suppressed).
func knownRules() map[string]bool {
	known := map[string]bool{BadIgnoreRule: true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// badIgnores reports every malformed teclint:ignore directive in the
// unit: one with no rule list (it would otherwise silence nothing and
// rot), one naming a rule that does not exist (usually a typo that
// silently stops suppressing), and one with no reason (a suppression
// must say why it is safe).
func badIgnores(unit *Unit) []Diagnostic {
	known := knownRules()
	var diags []Diagnostic
	report := func(c *ast.Comment, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     unit.Fset.Position(c.Pos()),
			Rule:    BadIgnoreRule,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, reason, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				if len(rules) == 0 {
					report(c, "teclint:ignore has no rule list; write `teclint:ignore <rule>[,<rule>] <why this is safe>`")
					continue
				}
				for _, rule := range rules {
					if !known[rule] {
						report(c, "teclint:ignore names unknown rule %q; it suppresses nothing", rule)
					}
				}
				if strings.TrimSpace(reason) == "" {
					list := strings.Join(rules, ",")
					report(c, "teclint:ignore %s has no reason; write `teclint:ignore %s <why this is safe>`", list, list)
				}
			}
		}
	}
	return diags
}

// filterSuppressed drops diagnostics whose line (or the line directly
// above) carries a "teclint:ignore <rule>" comment naming their rule.
func filterSuppressed(unit *Unit, diags []Diagnostic) []Diagnostic {
	// Map file -> set of lines suppressed per rule.
	suppressed := make(map[string]map[int]map[string]bool)
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, _, ok := parseIgnore(c.Text)
				if !ok || len(rules) == 0 {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				byLine := suppressed[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					suppressed[pos.Filename] = byLine
				}
				// The directive covers its own line and the next one,
				// so it works both trailing and standalone-above.
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if byLine[ln] == nil {
						byLine[ln] = make(map[string]bool)
					}
					for _, rule := range rules {
						byLine[ln][rule] = true
					}
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if rules := suppressed[d.Pos.Filename][d.Pos.Line]; rules != nil && rules[d.Rule] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// parseIgnore extracts the rule list and reason text from a
// "teclint:ignore <rule>[,<rule>...] <reason>" comment, reporting
// ok=false for comments without the directive. The directive must
// begin the comment (after the // or /* marker); that keeps prose
// *mentioning* teclint:ignore — rule docs, this very comment — from
// parsing as a directive. A bare directive parses with an empty rule
// list; Run flags it (and directives with empty reasons or unknown
// rule names) under the badignore pseudo-rule.
func parseIgnore(comment string) (rules []string, reason string, ok bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(strings.TrimSpace(text), "*/")
	text = strings.TrimSpace(text)
	const directive = "teclint:ignore"
	rest, found := strings.CutPrefix(text, directive)
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, "", false
	}
	list, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
	for _, rule := range strings.Split(list, ",") {
		if rule = strings.TrimSpace(rule); rule != "" {
			rules = append(rules, rule)
		}
	}
	return rules, strings.TrimSpace(reason), true
}
