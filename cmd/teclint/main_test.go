package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tecopt/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// fixturePatterns are the analyzer fixture packages, expressed relative
// to the module root. They deliberately seed violations, so linting them
// exercises every rule and the output formatting at once.
var fixturePatterns = []string{
	"internal/lint/testdata/badignore",
	"internal/lint/testdata/cachegen",
	"internal/lint/testdata/ctxflow",
	"internal/lint/testdata/dimflow",
	"internal/lint/testdata/droppederr",
	"internal/lint/testdata/errpath",
	"internal/lint/testdata/floateq",
	"internal/lint/testdata/goroleak",
	"internal/lint/testdata/lockbalance",
	"internal/lint/testdata/maporder",
	"internal/lint/testdata/nanflow",
	"internal/lint/testdata/obsclock",
	"internal/lint/testdata/testhelper",
	"internal/lint/testdata/typederr",
	"internal/lint/testdata/unitsanity",
	"internal/lint/testdata/validatefirst",
}

// runAtRoot invokes the whole teclint driver — flag parsing, a fresh
// load and type-check, analysis, output — from the module root and
// returns (exit code, stdout, stderr).
func runAtRoot(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	chdir(t, moduleRoot(t))
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// fixtureLoad holds the fixture packages, loaded and type-checked once
// per test binary by the driver's own load stage. Type-checking pulls
// in the standard library from GOROOT source and dominates a driver
// run; the analyzers and every output flag are cheap by comparison.
var fixtureLoad struct {
	once  sync.Once
	units []*lint.Unit
	err   error
}

// lintFixtures runs the driver's flag parsing, analysis and output
// stages with args over the shared fixture units, from the module root
// (so relative -baseline/-expect paths resolve as in `make`), and
// returns (exit code, stdout, stderr).
func lintFixtures(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	root := moduleRoot(t)
	fixtureLoad.once.Do(func() {
		fixtureLoad.units, fixtureLoad.err = load(fixturePatterns, root)
	})
	if fixtureLoad.err != nil {
		t.Fatalf("loading fixtures: %v", fixtureLoad.err)
	}
	opts, ok := parseFlags(args, io.Discard)
	if !ok {
		t.Fatalf("bad flags %q", args)
	}
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	code := report(fixtureLoad.units, root, opts, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// repoSweep is the whole-module serial sweep through the full driver,
// run and timed once per test binary: the lint-clean gate and the
// wall-time budget read the same run.
var repoSweep struct {
	once           sync.Once
	code           int
	stdout, stderr string
	elapsed        time.Duration
}

func serialRepoSweep(t *testing.T) (code int, stdout, stderr string, elapsed time.Duration) {
	t.Helper()
	repoSweep.once.Do(func() {
		start := time.Now()
		repoSweep.code, repoSweep.stdout, repoSweep.stderr = runAtRoot(t, []string{"-parallel", "1", "./..."})
		repoSweep.elapsed = time.Since(start)
	})
	return repoSweep.code, repoSweep.stdout, repoSweep.stderr, repoSweep.elapsed
}

// chdir changes the working directory for the duration of the test.
// (The tests here never call t.Parallel, so this is safe.)
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatalf("restoring working directory: %v", err)
		}
	})
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		t.Fatalf("module root not found from %s: %v", wd, err)
	}
	return root
}

// TestGoldenOutput pins the exact diagnostic stream produced for the
// seeded fixture packages: the `file:line: [rule] message` format, the
// sort order (file, then line), and the trailing finding count. Run
// with -update to regenerate testdata/golden.txt after intentional
// analyzer changes.
func TestGoldenOutput(t *testing.T) {
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := lintFixtures(t)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixtures seed violations); stderr:\n%s", code, stderr)
	}
	if want := "finding(s)"; !strings.Contains(stderr, want) {
		t.Errorf("stderr %q does not report the finding count", stderr)
	}

	if *update {
		if err := os.WriteFile(goldenPath, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run `go test ./cmd/teclint -run TestGoldenOutput -update` to create): %v", err)
	}
	if stdout != string(golden) {
		t.Errorf("output differs from golden file\n--- got ---\n%s--- want ---\n%s", stdout, golden)
	}
}

// TestOutputDeterministic runs the whole driver, with its own fresh
// load, over the fixtures and demands output byte-identical to the
// shared-load run the golden tests pin: map iteration, goroutine
// scheduling or type-checker state must never leak into the
// diagnostic stream.
func TestOutputDeterministic(t *testing.T) {
	_, first, _ := lintFixtures(t)
	_, second, _ := runAtRoot(t, fixturePatterns)
	if first != second {
		t.Errorf("two runs differ\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestOutputSorted verifies the documented ordering contract directly:
// findings are grouped by file and nondecreasing by line within a file.
func TestOutputSorted(t *testing.T) {
	_, stdout, _ := lintFixtures(t)
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected multiple findings, got %d line(s)", len(lines))
	}
	type pos struct {
		file string
		line string
	}
	var prev pos
	for i, ln := range lines {
		parts := strings.SplitN(ln, ":", 3)
		if len(parts) != 3 || !strings.Contains(parts[2], "[") {
			t.Fatalf("line %d not in file:line: [rule] message form: %q", i+1, ln)
		}
		cur := pos{parts[0], parts[1]}
		if i > 0 && cur.file == prev.file && len(cur.line) == len(prev.line) && cur.line < prev.line {
			t.Errorf("line %d out of order: %q after %q", i+1, ln, lines[i-1])
		}
		prev = cur
	}
}

// TestRepoLintsClean is the self-hosting gate: the production tree must
// produce zero diagnostics under its own analyzers.
func TestRepoLintsClean(t *testing.T) {
	code, stdout, stderr, _ := serialRepoSweep(t)
	if code != 0 || stdout != "" {
		t.Fatalf("repository is not lint-clean (exit %d):\n%s%s", code, stdout, stderr)
	}
}

// lintWallBudget caps the whole-module serial sweep at twice the
// 16-analyzer snapshot recorded in EXPERIMENTS.md (8.39 s on the
// single-CPU reference container). Every analyzer rides the same
// CFG/dataflow and summary machinery, so a regression here means an
// analyzer went super-linear, not that the machine is slow — the
// budget already assumes the slowest container measured.
const lintWallBudget = 2 * 8390 * time.Millisecond // 2 x 8.39 s

// TestLintWallTimeBudget times the full-repo serial sweep and fails if
// it blows the 2x budget over the 16-analyzer snapshot.
func TestLintWallTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	code, stdout, stderr, elapsed := serialRepoSweep(t)
	if code != 0 {
		t.Fatalf("repo sweep failed (exit %d):\n%s%s", code, stdout, stderr)
	}
	if elapsed > lintWallBudget {
		t.Errorf("serial whole-module lint took %v, budget %v (2x the 16-analyzer snapshot)", elapsed.Round(time.Millisecond), lintWallBudget)
	}
	t.Logf("serial whole-module lint: %v (budget %v)", elapsed.Round(time.Millisecond), lintWallBudget)
}

// TestJSONGolden pins the -format=json stream for the fixture packages: a
// sorted, indented array in the documented Finding shape. Run with
// -update to regenerate testdata/golden.json.
func TestJSONGolden(t *testing.T) {
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := lintFixtures(t, "-format=json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update to create): %v", err)
	}
	if stdout != string(golden) {
		t.Errorf("-format=json output differs from golden file\n--- got ---\n%s--- want ---\n%s", stdout, golden)
	}
}

// TestSARIFGolden pins the -format=sarif stream byte-for-byte: the
// SARIF 2.1.0 envelope, the rule catalog, and one result per finding
// in the same order as the text output. Run with -update to regenerate
// testdata/golden.sarif.
func TestSARIFGolden(t *testing.T) {
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "golden.sarif"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := lintFixtures(t, "-format", "sarif")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update to create): %v", err)
	}
	if stdout != string(golden) {
		t.Errorf("-format=sarif output differs from golden file\n--- got ---\n%s--- want ---\n%s", stdout, golden)
	}
}

// TestSARIFShape decodes the SARIF stream and checks the envelope
// invariants: version 2.1.0, every result's ruleId resolves through
// ruleIndex into the rule catalog, locations carry slash-separated
// relative URIs, and the result count matches the text output.
func TestSARIFShape(t *testing.T) {
	_, sarifOut, _ := lintFixtures(t, "-format", "sarif")
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(sarifOut), &log); err != nil {
		t.Fatalf("-format=sarif output does not decode: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "teclint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	for _, a := range lint.All() {
		found := false
		for _, r := range run.Tool.Driver.Rules {
			if r.ID == a.Name {
				found = true
			}
		}
		if !found {
			t.Errorf("rule catalog missing analyzer %s", a.Name)
		}
	}
	_, textOut, _ := lintFixtures(t)
	textLines := strings.Split(strings.TrimRight(textOut, "\n"), "\n")
	if len(run.Results) != len(textLines) {
		t.Fatalf("SARIF has %d results, text has %d findings", len(run.Results), len(textLines))
	}
	for i, r := range run.Results {
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) || run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result %d: ruleIndex %d does not resolve to %q", i, r.RuleIndex, r.RuleID)
		}
		if len(r.Locations) != 1 {
			t.Errorf("result %d: %d locations", i, len(r.Locations))
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if strings.Contains(loc.ArtifactLocation.URI, "\\") || filepath.IsAbs(loc.ArtifactLocation.URI) {
			t.Errorf("result %d: URI %q is not a relative slash path", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result %d: startLine %d", i, loc.Region.StartLine)
		}
		want := fmt.Sprintf("%s:%d: [%s] %s", loc.ArtifactLocation.URI, loc.Region.StartLine, r.RuleID, r.Message.Text)
		if textLines[i] != want {
			t.Errorf("result %d: text %q, SARIF renders %q", i, textLines[i], want)
		}
	}
}

// TestJSONRoundTrip decodes the -format=json stream with encoding/json and
// checks it carries the same findings, in the same order, as the text
// output.
func TestJSONRoundTrip(t *testing.T) {
	_, jsonOut, _ := lintFixtures(t, "-format=json")
	var findings []Finding
	if err := json.Unmarshal([]byte(jsonOut), &findings); err != nil {
		t.Fatalf("-format=json output does not round-trip: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded; fixtures seed violations")
	}
	_, textOut, _ := lintFixtures(t)
	textLines := strings.Split(strings.TrimRight(textOut, "\n"), "\n")
	if len(findings) != len(textLines) {
		t.Fatalf("JSON has %d findings, text has %d lines", len(findings), len(textLines))
	}
	for i, f := range findings {
		want := fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Message)
		if textLines[i] != want {
			t.Errorf("finding %d: text %q, JSON renders %q", i, textLines[i], want)
		}
		if f.Line <= 0 || f.Col <= 0 || f.Rule == "" || f.Message == "" {
			t.Errorf("finding %d has missing fields: %+v", i, f)
		}
	}
	// A second run must be byte-stable.
	_, again, _ := lintFixtures(t, "-format=json")
	if jsonOut != again {
		t.Error("-format=json output is not stable across runs")
	}
}

// TestParallelMatchesSerial demands byte-identical output whatever the
// worker count: index-ordered collection plus the global sort must hide
// goroutine scheduling completely.
func TestParallelMatchesSerial(t *testing.T) {
	_, serial, _ := lintFixtures(t, "-parallel", "1")
	for _, workers := range []string{"2", "8", "0"} {
		_, parallel, _ := lintFixtures(t, "-parallel", workers)
		if parallel != serial {
			t.Errorf("-parallel=%s output differs from serial\n--- parallel ---\n%s--- serial ---\n%s", workers, parallel, serial)
		}
	}
}

// TestBaselineSuppression records the current findings as a baseline
// and reruns against it: everything suppressed, exit 0. A partial
// baseline must leave the rest standing.
func TestBaselineSuppression(t *testing.T) {
	_, jsonOut, _ := lintFixtures(t, "-format=json")
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(baseline, []byte(jsonOut), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := lintFixtures(t, "-baseline", baseline)
	if code != 0 || stdout != "" {
		t.Fatalf("full baseline: exit %d, output:\n%s%s", code, stdout, stderr)
	}

	var findings []Finding
	if err := json.Unmarshal([]byte(jsonOut), &findings); err != nil {
		t.Fatal(err)
	}
	partial, err := json.Marshal(findings[:len(findings)/2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = lintFixtures(t, "-baseline", baseline)
	if code != 1 {
		t.Fatalf("partial baseline: exit %d, want 1", code)
	}
	got := len(strings.Split(strings.TrimRight(stdout, "\n"), "\n"))
	want := len(findings) - len(findings)/2
	if got != want {
		t.Errorf("partial baseline left %d findings, want %d", got, want)
	}

	// An empty baseline (the checked-in CI artifact) suppresses nothing.
	if err := os.WriteFile(baseline, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = lintFixtures(t, "-baseline", baseline)
	if code != 1 || stdout == "" {
		t.Fatalf("empty baseline: exit %d, want 1 with findings", code)
	}

	// A malformed baseline is a usage failure, not a lint result.
	if err := os.WriteFile(baseline, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = lintFixtures(t, "-baseline", baseline)
	if code != 2 {
		t.Fatalf("malformed baseline: exit %d, want 2; stderr:\n%s", code, stderr)
	}
}

// TestExitCodeContract pins the three-way exit contract: clean tree 0,
// findings 1, load/type-check failure or flag misuse 2
// (tecerr.CodeInvalidInput).
func TestExitCodeContract(t *testing.T) {
	if code, _, stderr, _ := serialRepoSweep(t); code != 0 {
		t.Errorf("clean tree: exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if code, _, _ := lintFixtures(t); code != 1 {
		t.Errorf("fixture packages: exit %d, want 1", code)
	}
	if code, _, _ := runAtRoot(t, []string{"-format", "xml"}); code != 2 {
		t.Errorf("unknown -format: exit %d, want 2", code)
	}
	code, stdout, stderr := runAtRoot(t, []string{"cmd/teclint/testdata/broken"})
	if code != 2 {
		t.Errorf("broken package: exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("broken package wrote findings:\n%s", stdout)
	}
	if !strings.Contains(stderr, "broken") {
		t.Errorf("stderr does not mention the failing package:\n%s", stderr)
	}
}

// TestStatsFlag checks the per-analyzer accounting: text mode keeps
// stdout byte-identical and prints the table on stderr; -format=json mode
// wraps findings and stats in one object with a row for every
// registered analyzer.
func TestStatsFlag(t *testing.T) {
	_, plain, _ := lintFixtures(t)
	code, stdout, stderr := lintFixtures(t, "-stats")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if stdout != plain {
		t.Errorf("-stats changed stdout\n--- with ---\n%s--- without ---\n%s", stdout, plain)
	}
	if !strings.Contains(stderr, "analyzer") || !strings.Contains(stderr, "dimflow") {
		t.Errorf("-stats stderr missing the table:\n%s", stderr)
	}

	_, jsonOut, _ := lintFixtures(t, "-stats", "-format=json")
	var payload struct {
		Findings []Finding `json:"findings"`
		Stats    []lint.AnalyzerStat
	}
	if err := json.Unmarshal([]byte(jsonOut), &payload); err != nil {
		t.Fatalf("-stats -format=json output does not decode: %v", err)
	}
	if len(payload.Findings) == 0 {
		t.Error("stats payload carries no findings")
	}
	byName := make(map[string]lint.AnalyzerStat, len(payload.Stats))
	for _, s := range payload.Stats {
		byName[s.Name] = s
	}
	for _, a := range lint.All() {
		if _, ok := byName[a.Name]; !ok {
			t.Errorf("stats missing analyzer %s", a.Name)
		}
	}
	if s := byName["dimflow"]; s.Findings == 0 {
		t.Error("dimflow fixture findings not counted in stats")
	}
}

// TestExpectFlag pins the fixture-count gate: matching counts exit 0
// even though findings exist; a stale count or a dead analyzer (zero
// where findings are expected) exits 1 naming the rule.
func TestExpectFlag(t *testing.T) {
	_, jsonOut, _ := lintFixtures(t, "-format=json")
	var findings []Finding
	if err := json.Unmarshal([]byte(jsonOut), &findings); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.Rule]++
	}
	writeCounts := func(m map[string]int) string {
		t.Helper()
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "counts.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	code, _, stderr := lintFixtures(t, "-expect", writeCounts(counts))
	if code != 0 {
		t.Fatalf("matching counts: exit %d, want 0; stderr:\n%s", code, stderr)
	}

	bad := make(map[string]int, len(counts))
	for r, n := range counts {
		bad[r] = n
	}
	bad["dimflow"]++
	code, _, stderr = lintFixtures(t, "-expect", writeCounts(bad))
	if code != 1 {
		t.Fatalf("stale counts: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "rule dimflow") {
		t.Errorf("mismatch stderr does not name the rule:\n%s", stderr)
	}

	// The expected-counts file mirrors what the checked-in CI gate uses.
	code, _, stderr = lintFixtures(t, "-expect", filepath.Join("cmd", "teclint", "testdata", "fixture_counts.json"))
	if code != 0 {
		t.Fatalf("checked-in fixture_counts.json is stale: exit %d; stderr:\n%s", code, stderr)
	}
}

// TestRulesFlag checks the -rules listing names every registered analyzer.
func TestRulesFlag(t *testing.T) {
	code, stdout, _ := runAtRoot(t, []string{"-rules"})
	if code != 0 {
		t.Fatalf("-rules exit code = %d", code)
	}
	for _, rule := range []string{"cachegen", "ctxflow", "dimflow", "droppederr", "errpath", "floateq", "goroleak", "lockbalance", "maporder", "nanflow", "obsclock", "testhelper", "typederr", "unitsanity", "validatefirst"} {
		if !strings.Contains(stdout, rule) {
			t.Errorf("-rules output missing %q:\n%s", rule, stdout)
		}
	}
}
