// Command teclint runs the repository's static-analysis suite
// (internal/lint) over package directories and reports findings as
//
//	file:line: [rule] message
//
// sorted by file and line. It is the lint gate invoked by `make lint`
// and CI:
//
//	go run ./cmd/teclint ./...
//
// Arguments are package patterns: "./..." walks every package under
// the current module (skipping testdata), a plain directory path lints
// just that package. With no arguments, "./..." is assumed.
//
// Flags:
//
//	-rules         list the analyzers and exit
//	-format FMT    output format: text (default), json (a sorted
//	               array of findings), or sarif (SARIF 2.1.0, the
//	               interchange format code-scanning dashboards ingest)
//	-baseline F    suppress findings recorded in the JSON baseline file F
//	-parallel N    run analyzers over N packages concurrently
//	               (0 = all cores, 1 = serial; output is identical)
//	-stats         report per-analyzer wall time and finding counts
//	               (a table on stderr; with -format=json the output
//	               becomes a {"findings":..., "stats":...} object)
//	-expect F      compare per-rule finding counts against the JSON
//	               object {"rule": count, ...} in F: exit 0 iff they
//	               match exactly. The CI fixture gate uses this to catch
//	               analyzers that silently stop firing.
//	-log FMT       structured logging to stderr (off, text or json), the
//	               uniform obs flag pair; -log-level sets the threshold.
//
// Exit codes follow the tecerr contract: 0 clean, 1 when findings
// survive the baseline, 2 (tecerr.CodeInvalidInput) when packages fail
// to load or type-check, or on flag/baseline misuse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tecopt/internal/lint"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// loadFailure wraps a loader or baseline error so the process exit code
// (via tecerr.ExitCode) distinguishes "could not analyze" from "found
// problems".
func loadFailure(op string, err error) error {
	return &tecerr.Error{Code: tecerr.CodeInvalidInput, Op: op, Msg: "teclint: " + op, Err: err}
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, ok := parseFlags(args, stderr)
	if !ok {
		return 2
	}
	restoreLog, err := opts.log.Install(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "teclint:", err)
		return 2
	}
	defer restoreLog()
	if opts.listRules {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "teclint:", err)
		return tecerr.ExitCode(loadFailure("getwd", err))
	}
	units, err := load(opts.patterns, cwd)
	if err != nil {
		fmt.Fprintln(stderr, "teclint:", err)
		return tecerr.ExitCode(loadFailure("loading packages", err))
	}
	return report(units, cwd, opts, stdout, stderr)
}

// options is the parsed command line.
type options struct {
	listRules    bool
	format       string
	baselinePath string
	parallel     int
	stats        bool
	expectPath   string
	log          *obs.LogFlags
	patterns     []string
}

// parseFlags parses the command line, reporting usage errors on
// stderr; ok is false when the process should exit 2.
func parseFlags(args []string, stderr io.Writer) (opts *options, ok bool) {
	fs := flag.NewFlagSet("teclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts = &options{}
	fs.BoolVar(&opts.listRules, "rules", false, "list the analyzers and exit")
	fs.StringVar(&opts.format, "format", "text", "output format: text, json, or sarif")
	fs.StringVar(&opts.baselinePath, "baseline", "", "JSON baseline file of findings to suppress")
	fs.IntVar(&opts.parallel, "parallel", 0, "packages analyzed concurrently (0 = all cores, 1 = serial)")
	fs.BoolVar(&opts.stats, "stats", false, "report per-analyzer wall time and finding counts")
	fs.StringVar(&opts.expectPath, "expect", "", "JSON file of expected per-rule finding counts; exit 0 iff they match")
	opts.log = obs.BindLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, false
	}
	switch opts.format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "teclint: unknown -format %q (want text, json, or sarif)\n", opts.format)
		return nil, false
	}
	opts.patterns = fs.Args()
	if len(opts.patterns) == 0 {
		opts.patterns = []string{"./..."}
	}
	return opts, true
}

// load resolves package patterns against cwd and parses and
// type-checks every package they name, in-package and external tests
// included. Loading is serial: the Loader mutates its package cache.
func load(patterns []string, cwd string) ([]*lint.Unit, error) {
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := resolvePatterns(patterns, cwd)
	if err != nil {
		return nil, err
	}
	var units []*lint.Unit
	for _, dir := range dirs {
		us, err := loader.Load(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

// report runs the analyzers over the loaded units, applies the
// baseline, writes the findings in the requested format, and returns
// the exit code: the finding count against -expect when given, else 1
// for any surviving finding. File names print relative to base.
func report(units []*lint.Unit, base string, opts *options, stdout, stderr io.Writer) int {
	analyzers := lint.All()
	var stats *lint.StatsCollector
	if opts.stats {
		stats = lint.NewStatsCollector()
	}
	diags, err := lint.LintUnits(units, analyzers, base, opts.parallel, stats)
	if err != nil {
		fmt.Fprintln(stderr, "teclint:", err)
		return tecerr.ExitCode(loadFailure("analyzing packages", err))
	}

	if opts.baselinePath != "" {
		baseline, err := readBaseline(opts.baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "teclint:", err)
			return tecerr.ExitCode(loadFailure("reading baseline", err))
		}
		diags = filterBaseline(diags, baseline)
	}

	switch opts.format {
	case "json":
		if err := writeJSON(stdout, diags, stats); err != nil {
			fmt.Fprintln(stderr, "teclint:", err)
			return tecerr.ExitCode(loadFailure("encoding json", err))
		}
	case "sarif":
		if err := writeSARIF(stdout, diags, analyzers); err != nil {
			fmt.Fprintln(stderr, "teclint:", err)
			return tecerr.ExitCode(loadFailure("encoding sarif", err))
		}
		writeStatsTable(stderr, stats)
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
		writeStatsTable(stderr, stats)
	}

	if opts.expectPath != "" {
		expected, err := readExpected(opts.expectPath)
		if err != nil {
			fmt.Fprintln(stderr, "teclint:", err)
			return tecerr.ExitCode(loadFailure("reading expected counts", err))
		}
		if mismatches := compareExpected(diags, expected); len(mismatches) > 0 {
			for _, m := range mismatches {
				fmt.Fprintln(stderr, "teclint:", m)
			}
			return 1
		}
		fmt.Fprintf(stderr, "teclint: finding counts match %s\n", opts.expectPath)
		return 0
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "teclint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// Finding is the JSON shape of one diagnostic, stable for tooling: the
// same struct round-trips baselines and the -format=json output.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func toFinding(d lint.Diagnostic) Finding {
	return Finding{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Rule: d.Rule, Message: d.Message}
}

// writeJSON emits the findings as an indented JSON array (always an
// array, never null, so consumers can range unconditionally). With
// -stats the output becomes a {"findings":..., "stats":...} object —
// the bare-array shape is preserved whenever -stats is absent so
// existing baselines and pipelines keep parsing.
func writeJSON(w io.Writer, diags []lint.Diagnostic, stats *lint.StatsCollector) error {
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, toFinding(d))
	}
	var payload any = findings
	if stats != nil {
		payload = struct {
			Findings []Finding           `json:"findings"`
			Stats    []lint.AnalyzerStat `json:"stats"`
		}{Findings: findings, Stats: stats.Stats()}
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeStatsTable prints the per-analyzer accounting to stderr in text
// mode, keeping stdout byte-identical with and without -stats. Finding
// counts here are post-suppression but pre-baseline (they are gathered
// inside the analysis run, before -baseline filtering).
func writeStatsTable(w io.Writer, stats *lint.StatsCollector) {
	if stats == nil {
		return
	}
	fmt.Fprintf(w, "%-13s %12s %9s\n", "analyzer", "wall", "findings")
	for _, s := range stats.Stats() {
		fmt.Fprintf(w, "%-13s %12s %9d\n", s.Name, time.Duration(s.Nanos).Round(time.Microsecond), s.Findings)
	}
}

// readExpected parses a -expect file: a JSON object mapping rule name
// to the exact number of findings that rule must produce.
func readExpected(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var expected map[string]int
	if err := json.Unmarshal(data, &expected); err != nil {
		return nil, fmt.Errorf("parsing expected counts %s: %w", path, err)
	}
	return expected, nil
}

// compareExpected diffs actual per-rule finding counts against the
// expected map, returning one message per rule that is off (sorted by
// rule name). Rules absent from the expected map must produce zero
// findings.
func compareExpected(diags []lint.Diagnostic, expected map[string]int) []string {
	actual := make(map[string]int)
	for _, d := range diags {
		actual[d.Rule]++
	}
	rules := make(map[string]bool, len(actual)+len(expected))
	for r := range actual {
		rules[r] = true
	}
	for r := range expected {
		rules[r] = true
	}
	names := make([]string, 0, len(rules))
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)
	var mismatches []string
	for _, r := range names {
		if actual[r] != expected[r] {
			mismatches = append(mismatches, fmt.Sprintf("rule %s: %d finding(s), expected %d", r, actual[r], expected[r]))
		}
	}
	return mismatches
}

// baselineKey identifies a finding for baseline matching. Line and
// column are deliberately excluded: a baseline entry keeps suppressing
// its finding as unrelated edits shift it around a file.
type baselineKey struct {
	file string
	rule string
	msg  string
}

// readBaseline parses a -format=json findings array into a suppression
// multiset: two identical findings in a file need two baseline entries.
func readBaseline(path string) (map[baselineKey]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	if err := json.Unmarshal(data, &findings); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	out := make(map[baselineKey]int, len(findings))
	for _, f := range findings {
		out[baselineKey{file: f.File, rule: f.Rule, msg: f.Message}]++
	}
	return out, nil
}

// filterBaseline drops findings recorded in the baseline, consuming
// each entry at most once.
func filterBaseline(diags []lint.Diagnostic, baseline map[baselineKey]int) []lint.Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		key := baselineKey{file: d.Pos.Filename, rule: d.Rule, msg: d.Message}
		if baseline[key] > 0 {
			baseline[key]--
			continue
		}
		out = append(out, d)
	}
	return out
}

// resolvePatterns expands package patterns into package directories.
// "dir/..." (including "./...") walks recursively; other arguments name
// a single package directory.
func resolvePatterns(patterns []string, cwd string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		if base, ok := strings.CutSuffix(p, "/..."); ok {
			if base == "" || base == "." {
				base = cwd
			}
			walked, err := lint.PackageDirs(absJoin(cwd, base))
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
			continue
		}
		add(absJoin(cwd, p))
	}
	return dirs, nil
}

func absJoin(cwd, p string) string {
	if filepath.IsAbs(p) {
		return filepath.Clean(p)
	}
	return filepath.Join(cwd, p)
}
