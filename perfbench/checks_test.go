package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tecopt/internal/bench"
	"tecopt/internal/core"
	"tecopt/internal/dtm"
	"tecopt/internal/material"
	"tecopt/internal/tec"
)

// Each correctness check of the benchmark must pass the program's real
// answer and reject a perturbed one.

func TestTableICheckCatchesPerturbedRow(t *testing.T) {
	chips, err := tableIChips(canonicalSeed)
	if err != nil {
		t.Fatal(err)
	}
	alpha := chips[0]
	row, err := bench.RunTableIRow(alpha.name, alpha.tilePower, bench.TableIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := directCheckRow(alpha, row); err != nil {
		t.Fatalf("the program's own row fails the check: %v", err)
	}
	for name, perturb := range map[string]func(r *bench.TableIRow){
		"greedy peak":  func(r *bench.TableIRow) { r.GreedyPeakC *= 1 + 1e-8 },
		"passive peak": func(r *bench.TableIRow) { r.NoTECPeakC -= 1e-6 },
		"TEC power":    func(r *bench.TableIRow) { r.PTECW *= 1 + 1e-7 },
		"current":      func(r *bench.TableIRow) { r.IOptA *= 1.001 },
	} {
		bad := *row
		perturb(&bad)
		if directCheckRow(alpha, &bad) == nil {
			t.Errorf("perturbed %s passes the direct re-solve", name)
		}
	}

	// The byte-level checks: the Alpha golden row and a recorded table.
	o, err := newTableIOracle(config{root: "..", seed: canonicalSeed}, chips[:1])
	if err != nil {
		t.Fatal(err)
	}
	o.reference = bench.FormatTableI([]*bench.TableIRow{row})
	rep := newReport()
	o.check(rep, &tableIPass{rows: []*bench.TableIRow{row}, table: o.reference})
	if rep.failed != 0 {
		t.Fatalf("the program's own table fails %d checks", rep.failed)
	}
	p := &tableIPass{rows: []*bench.TableIRow{row}, table: strings.Replace(o.reference, "82.0", "82.1", 1)}
	o.check(rep, p)
	if rep.failed != 1 {
		t.Errorf("a table differing from its reference counted %d failures, want 1", rep.failed)
	}
}

// TestCommittedReferencesAgreeOnAlpha checks every recorded Table I
// against the program's golden Alpha row, which no seed changes.
func TestCommittedReferencesAgreeOnAlpha(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "internal", "bench", "testdata", "golden_tablei_alpha.txt"))
	if err != nil {
		t.Fatal(err)
	}
	alphaRow := strings.Split(string(golden), "\n")[2]
	refs, err := filepath.Glob(filepath.Join("testdata", "tablei", "seed-*.txt"))
	if err != nil || len(refs) == 0 {
		t.Fatalf("no recorded references (%v)", err)
	}
	for _, ref := range refs {
		data, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Split(string(data), "\n"); len(lines) < 14 || lines[2] != alphaRow {
			t.Errorf("%s: Alpha row differs from the golden row", ref)
		}
	}
}

func TestServeChecksCatchPerturbedAnswers(t *testing.T) {
	d, err := namedDesign("hc03", []int{30, 31, 42, 43, 77})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(d.cfg, d.sites)
	if err != nil {
		t.Fatal(err)
	}
	const current = 3.0
	peak, tile, theta, err := sys.PeakAt(current)
	if err != nil {
		t.Fatal(err)
	}
	answer := solveResponse{PeakC: material.KelvinToCelsius(peak), PeakTile: tile, TECPowerW: sys.TECPower(theta, current)}
	c := &call{endpoint: "solve", d: d, current: current}
	body := func(r solveResponse) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := cheapCheck("solve", d.tiles, body(answer)); err != nil {
		t.Fatalf("cheap check rejects the real answer: %v", err)
	}
	if err := directCheck(c, body(answer)); err != nil {
		t.Fatalf("direct re-solve rejects the real answer: %v", err)
	}
	bad := answer
	bad.PeakC *= 1 + 1e-8
	if directCheck(c, body(bad)) == nil {
		t.Error("a peak off by 1e-8 relative passes the direct re-solve")
	}
	bad = answer
	bad.PeakTile = (tile + 1) % d.tiles
	if directCheck(c, body(bad)) == nil {
		t.Error("a wrong peak tile passes the direct re-solve")
	}
	bad = answer
	bad.PeakTile = d.tiles
	if cheapCheck("solve", d.tiles, body(bad)) == nil {
		t.Error("a peak tile out of range passes the cheap check")
	}
	if cheapCheck("solve", d.tiles, []byte(`{"peak_c":1e400}`)) == nil {
		t.Error("a non-finite peak passes the cheap check")
	}
	if cheapCheck("sweep", d.tiles, []byte(`{"points":[{"current_a":1,"h":0.5},null],"done":1,"total":2}`)) == nil {
		t.Error("a partial sweep passes the cheap check")
	}
}

// TestDTMCheckAdmitsExactCurrentsAndRejectsWrongAnswers runs one
// scenario with dtm.Run (quantized currents) and with the benchmark's
// exact-current oracle: the tolerance must admit both integrators and
// reject an answer moved by twice the tolerance, or an oracle whose
// solver uses the wrong current.
func TestDTMCheckAdmitsExactCurrentsAndRejectsWrongAnswers(t *testing.T) {
	d, err := newDTMDesign()
	if err != nil {
		t.Fatal(err)
	}
	tol, err := newDTMTolerance(d)
	if err != nil {
		t.Fatal(err)
	}
	phases := dtmScenarios(3, 1, d.busy)[0]
	for k, ctrl := range d.controllers() {
		got, err := dtm.Run(d.sys, phases, ctrl, d.limitK, dtmOptions(context.Background(), d.theta0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := dtmOracle(d, phases, d.controllers()[k])
		if err != nil {
			t.Fatal(err)
		}
		if err := tol.compare(got, want); err != nil {
			t.Fatalf("%s: quantized run rejected: %v", ctrl.Name(), err)
		}
		for name, perturb := range map[string]func(r *dtm.RunResult){
			"max peak": func(r *dtm.RunResult) { r.MaxPeakK += 2 * tol.peakK },
			"energy":   func(r *dtm.RunResult) { r.TECEnergyJ -= 2 * tol.energyJ },
		} {
			bad := *got
			perturb(&bad)
			if tol.compare(&bad, want) == nil {
				t.Errorf("%s: perturbed %s passes", ctrl.Name(), name)
			}
		}
		// A solver whose operator has the Peltier term 10% off: the same
		// deployment built with a 10% larger Seebeck coefficient.
		cfg := d.sys.Cfg
		cfg.Device = tec.ChowdhuryDevice()
		cfg.Device.Seebeck *= 1.1
		sys, err := core.NewSystem(cfg, d.sys.Sites())
		if err != nil {
			t.Fatal(err)
		}
		wrong := &dtmDesign{sys: sys, busy: d.busy, iOpt: d.iOpt, limitK: d.limitK, theta0: d.theta0}
		off, err := dtmOracle(wrong, phases, wrong.controllers()[k])
		if err != nil {
			t.Fatal(err)
		}
		if err := tol.compare(off, want); err == nil {
			t.Errorf("%s: a 10%% Peltier error passes", ctrl.Name())
		} else {
			t.Logf("%s: wrong solver rejected: %v", ctrl.Name(), err)
		}
	}
}
