package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/obs"
)

// traceSession installs a fresh registry, flight recorder on, as the
// program's global registry: the program's existing counters,
// histograms and spans record into it, and the benchmark adds spans of
// its own around every call it makes into a layer.
type traceSession struct {
	reg  *obs.Registry
	prev *obs.Registry
}

func startTrace() *traceSession {
	reg := obs.New(nil)
	reg.EnableTraceOpts(obs.TraceOptions{Flight: true})
	return &traceSession{reg: reg, prev: obs.SetGlobal(reg)}
}

func (t *traceSession) stop() { obs.SetGlobal(t.prev) }

// span opens a benchmark span under ctx.
func (t *traceSession) span(ctx context.Context, name string) (context.Context, obs.Span) {
	return t.reg.StartSpanCtx(ctx, name)
}

// workCounters are the deterministic work counts of a pass: two passes
// over the same inputs must produce them exactly.
var workCounters = []string{
	"sparse.band.factors", "sparse.band.solves", "sparse.smw.setups", "sparse.smw.corrections",
	"sparse.smw.guard_trips", "sparse.cg.solves", "sparse.ic0.setups",
	"thermal.reusable.setups", "thermal.reusable.smw_hits", "thermal.reusable.near_limit", "thermal.reusable.fallbacks",
	"core.optimize_current.runs", "core.optimize_current.evaluations", "core.runaway.searches", "core.runaway.probes",
	"core.hkl.evals", "dtm.runs", "dtm.steps", "dtm.current_changes",
	"tecserve.requests", "tecserve.status.200",
	"engine.solver_cache.hits", "engine.solver_cache.misses", "engine.factor_cache.hits", "engine.factor_cache.misses",
}

// counts is a snapshot of the work counters. The engine caches are read
// from their own statistics, which core.ResetFactorCache zeroes: a pass
// that resets them does so in its prep step, before the snapshot.
type counts map[string]uint64

func (t *traceSession) counts() counts {
	snap := t.reg.Snapshot()
	c := counts{}
	for _, n := range workCounters {
		c[n] = snap.Counters[n]
	}
	sc, fc := core.SolverCacheStats(), core.FactorCacheStats()
	c["engine.solver_cache.hits"], c["engine.solver_cache.misses"] = sc.Hits, sc.Misses
	c["engine.factor_cache.hits"], c["engine.factor_cache.misses"] = fc.Hits, fc.Misses
	return c
}

// sub returns c - before for every counter.
func (c counts) sub(before counts) counts {
	out := counts{}
	for n, v := range c {
		out[n] = v - before[n]
	}
	return out
}

// histogram returns the named histogram's growth between two
// snapshots.
func histDelta(after, before *obs.Snapshot, name string) obs.HistogramValue {
	a, b := after.Histograms[name], before.Histograms[name]
	out := obs.HistogramValue{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	prev := map[uint64]uint64{}
	for _, bk := range b.Buckets {
		prev[bk.Le] = bk.Count
	}
	for _, bk := range a.Buckets {
		if n := bk.Count - prev[bk.Le]; n > 0 {
			out.Buckets = append(out.Buckets, obs.Bucket{Le: bk.Le, Count: n})
		}
	}
	return out
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile, 0 for an empty histogram.
func histQuantile(h obs.HistogramValue, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	var cum uint64
	for _, bk := range h.Buckets {
		cum += bk.Count
		if cum >= target {
			return float64(bk.Le)
		}
	}
	return float64(h.Buckets[len(h.Buckets)-1].Le)
}

// histMean returns the mean of a histogram's observations, 0 when empty.
func histMean(h obs.HistogramValue) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// traceSpan is one span record of the flight recorder.
type traceSpan struct {
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
}

// spans returns the spans that started in [from, to) on the registry
// clock.
func (t *traceSession) spans(from, to int64) ([]traceSpan, error) {
	var buf bytes.Buffer
	if err := t.reg.WriteTrace(&buf); err != nil {
		return nil, err
	}
	var out []traceSpan
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var s traceSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, err
		}
		if s.Kind == "dropped" {
			return nil, fmt.Errorf("flight recorder dropped events; raise its capacity")
		}
		if s.Kind == "span" && s.StartNS >= from && s.StartNS < to {
			out = append(out, s)
		}
	}
	return out, sc.Err()
}

// layers are the program layers self time is reported for, by span
// name prefix; tecserve spans belong to serve. Spans of no layer (the
// benchmark's own "bench.*" roots) are unattributed.
var layers = []string{"serve", "chipload", "engine", "core", "thermal", "sparse", "eigen", "transient", "dtm"}

func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	if prefix == "tecserve" {
		return "serve"
	}
	for _, l := range layers {
		if l == prefix {
			return l
		}
	}
	return ""
}

// selfTimes attributes span time to layers: a span's self time is its
// duration minus the part of it its children cover. The server's
// request spans have no parent link to the client spans around the HTTP
// calls (net/http gives each request a fresh context), so their total
// duration is taken off the serve layer as if they were children in
// aggregate.
func selfTimes(spans []traceSpan) map[string]float64 {
	children := map[uint64][]traceSpan{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[layerOf(s.Name)] += float64(s.DurNS - covered(s, children[s.ID]))
		if s.Parent == 0 && s.Name == "tecserve.request" {
			self["serve"] -= float64(s.DurNS)
		}
	}
	return self
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's (pool tasks may overlap).
func covered(parent traceSpan, kids []traceSpan) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	end := parent.StartNS + parent.DurNS
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.StartNS+k.DurNS, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}

// tracedPass is one traced pass of a workload: its counter deltas, its
// registry snapshots, and the spans it recorded.
type tracedPass struct {
	counts        counts
	before, after *obs.Snapshot
	spans         []traceSpan
}

// runTraced runs prep, then pass under the session, and collects what
// the pass recorded.
func (t *traceSession) runTraced(prep func() error, pass func(ctx context.Context) error) (*tracedPass, error) {
	if err := prep(); err != nil {
		return nil, err
	}
	c0, s0, from := t.counts(), t.reg.Snapshot(), t.reg.Now()
	ctx, sp := t.span(context.Background(), "bench.pass")
	err := pass(ctx)
	sp.End()
	if err != nil {
		return nil, err
	}
	to := t.reg.Now()
	spans, err := t.spans(from, to+1)
	if err != nil {
		return nil, err
	}
	return &tracedPass{counts: t.counts().sub(c0), before: s0, after: t.reg.Snapshot(), spans: spans}, nil
}

// reportTraced records what every traced workload reports: work
// counters (checked to repeat exactly between passes a and b), layer
// self times against the end-to-end total, regime mix and the tracing
// overhead ratio.
func reportTraced(rep *report, a, b *tracedPass, e2eNS, overhead float64) {
	mismatch := 0
	for _, n := range workCounters {
		if a.counts[n] != b.counts[n] {
			mismatch++
			rep.fail("work counter %s: %d then %d on identical passes", n, a.counts[n], b.counts[n])
		}
	}
	rep.details["work_counters"] = a.counts
	rep.set("counters.repeat_exact", "count", float64(len(workCounters)-mismatch))
	for _, n := range []string{"sparse.band.factors", "sparse.band.solves", "sparse.smw.setups", "sparse.smw.corrections", "sparse.cg.solves",
		"engine.solver_cache.hits", "engine.solver_cache.misses", "engine.factor_cache.misses",
		"core.optimize_current.evaluations", "core.runaway.probes", "dtm.steps", "dtm.current_changes"} {
		rep.set(n, "count", float64(a.counts[n]))
	}
	rep.set("thermal.regime.smw", "count", float64(a.counts["thermal.reusable.smw_hits"]))
	rep.set("thermal.regime.near_limit", "count", float64(a.counts["thermal.reusable.near_limit"]))
	rep.set("thermal.regime.fallback", "count", float64(a.counts["thermal.reusable.fallbacks"]))

	self := selfTimes(a.spans)
	var attributed float64
	for _, l := range layers {
		rep.set("self."+l+"_ms", "ms", self[l]/1e6)
		attributed += self[l]
	}
	rep.set("self.unattributed_ms", "ms", (e2eNS-attributed)/1e6)
	rep.set("obs.trace_overhead_ratio", "1", overhead)
}

// timeMedian calls f reps times under a span named for the layer call
// and returns the median wall time.
func (t *traceSession) timeMedian(name string, reps int, f func(ctx context.Context) error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		ctx, sp := t.span(context.Background(), name)
		start := time.Now()
		err := f(ctx)
		d := time.Since(start)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}
