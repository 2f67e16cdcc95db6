package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tecopt/internal/obs"
)

// reusableSolveSpan is the span of one per-current solve. Its "regime"
// attribute names which path served the current: "smw" (the
// Sherman-Morrison-Woodbury fast path, including the rank-0 shortcut),
// "direct" (memoized direct factorization of G - i*D) or
// "beyond-limit" (past lambda_m, expected indefinite). A
// "guard_reason" attribute marks a direct solve forced by a tripped
// SMW conditioning guard.
const reusableSolveSpan = "thermal.reusable.solve"

// nameStat aggregates spans sharing a name.
type nameStat struct {
	name  string
	count int
	cum   int64 // summed durations
	self  int64 // summed durations minus direct children
}

// pathStep is one span on the critical path.
type pathStep struct {
	ev    obs.TraceEvent
	depth int
}

// report is everything the analyzer derives from one recording.
type report struct {
	spans, points int
	hierarchical  bool
	wallNS        int64 // max span end - min span start
	tracks        []int64

	regimes      map[string]int
	regimeTotal  int
	guardReasons map[string]int

	byCum, bySelf []nameStat
	top           int

	critical     []pathStep
	slowestSolve *obs.TraceEvent

	dropped uint64
}

// analyze computes the report: per-regime solve counts, top spans by
// cumulative and self time, the critical path through the slowest
// solve, and the degradation record.
func analyze(td *traceData, top int) *report {
	rep := &report{
		top:          top,
		regimes:      map[string]int{},
		guardReasons: map[string]int{},
		dropped:      td.dropped,
	}

	byID := map[uint64]int{} // span ID -> index in td.events
	children := map[uint64][]int{}
	trackSet := map[int64]bool{}
	var minStart, maxEnd int64
	for i, ev := range td.events {
		trackSet[ev.Track] = true
		if ev.ID != 0 {
			rep.hierarchical = true
			byID[ev.ID] = i
			children[ev.Parent] = append(children[ev.Parent], i)
		}
		if ev.Kind != "span" {
			rep.points++
			continue
		}
		rep.spans++
		if rep.spans == 1 || ev.StartNS < minStart {
			minStart = ev.StartNS
		}
		if end := ev.StartNS + ev.DurNS; end > maxEnd {
			maxEnd = end
		}
		if ev.Name == reusableSolveSpan {
			regime := attr(ev, "regime")
			if regime == "" {
				regime = "(unknown)"
			}
			rep.regimes[regime]++
			rep.regimeTotal++
			if reason := attr(ev, "guard_reason"); reason != "" {
				rep.guardReasons[reason]++
			}
		}
	}
	if rep.spans > 0 {
		rep.wallNS = maxEnd - minStart
	}
	for t := range trackSet {
		rep.tracks = append(rep.tracks, t)
	}
	sort.Slice(rep.tracks, func(i, j int) bool { return rep.tracks[i] < rep.tracks[j] })

	rep.byCum, rep.bySelf = rankSpans(td, children, top)
	rep.critical, rep.slowestSolve = criticalPath(td, byID, children)
	return rep
}

// attr returns the value of the named attribute ("" when absent).
func attr(ev obs.TraceEvent, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// rankSpans aggregates spans by name and returns the top entries by
// cumulative and by self time. Self time is the span's duration minus
// its direct children's durations; without hierarchy (flat traces) the
// two rankings coincide.
func rankSpans(td *traceData, children map[uint64][]int, top int) (byCum, bySelf []nameStat) {
	agg := map[string]*nameStat{}
	for _, ev := range td.events {
		if ev.Kind != "span" {
			continue
		}
		st := agg[ev.Name]
		if st == nil {
			st = &nameStat{name: ev.Name}
			agg[ev.Name] = st
		}
		st.count++
		st.cum += ev.DurNS
		self := ev.DurNS
		for _, ci := range children[ev.ID] {
			if c := td.events[ci]; c.Kind == "span" {
				self -= c.DurNS
			}
		}
		if self < 0 {
			self = 0
		}
		st.self += self
	}
	all := make([]nameStat, 0, len(agg))
	for _, st := range agg {
		all = append(all, *st)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	byCum = topN(all, top, func(s nameStat) int64 { return s.cum })
	bySelf = topN(all, top, func(s nameStat) int64 { return s.self })
	return byCum, bySelf
}

// topN sorts a copy of stats by the key (descending, name-ascending
// ties) and truncates to n.
func topN(stats []nameStat, n int, key func(nameStat) int64) []nameStat {
	out := make([]nameStat, len(stats))
	copy(out, stats)
	sort.Slice(out, func(i, j int) bool {
		if key(out[i]) != key(out[j]) {
			return key(out[i]) > key(out[j])
		}
		return out[i].name < out[j].name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// criticalPath locates the slowest reusable solve span,
// walks up to its root, then extends downward through the longest
// child at each level. Requires hierarchy; returns nil for flat traces.
func criticalPath(td *traceData, byID map[uint64]int, children map[uint64][]int) ([]pathStep, *obs.TraceEvent) {
	var slow *obs.TraceEvent
	for i := range td.events {
		ev := &td.events[i]
		if ev.Kind != "span" || ev.ID == 0 {
			continue
		}
		if ev.Name != reusableSolveSpan {
			continue
		}
		if slow == nil || ev.DurNS > slow.DurNS {
			slow = ev
		}
	}
	if slow == nil {
		return nil, nil
	}

	// Ancestor chain, root first.
	var up []obs.TraceEvent
	for cur := *slow; ; {
		up = append(up, cur)
		pi, ok := byID[cur.Parent]
		if !ok {
			break
		}
		cur = td.events[pi]
	}
	var path []pathStep
	for i := len(up) - 1; i >= 0; i-- {
		path = append(path, pathStep{ev: up[i], depth: len(up) - 1 - i})
	}

	// Longest-child descent below the slowest solve.
	depth := len(path) - 1
	for cur := *slow; ; {
		var next *obs.TraceEvent
		for _, ci := range children[cur.ID] {
			c := &td.events[ci]
			if c.Kind != "span" {
				continue
			}
			if next == nil || c.DurNS > next.DurNS {
				next = c
			}
		}
		if next == nil {
			break
		}
		depth++
		path = append(path, pathStep{ev: *next, depth: depth})
		cur = *next
	}
	return path, slow
}

// format renders the report as the tectrace text output.
func (rep *report) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tectrace: %d spans, %d events", rep.spans, rep.points)
	if !rep.hierarchical {
		b.WriteString(" (flat trace: no span hierarchy; self time and critical path unavailable)")
	} else {
		fmt.Fprintf(&b, ", %d tracks, %s wall span", len(rep.tracks), durStr(rep.wallNS))
	}
	b.WriteString("\n")
	if rep.dropped > 0 {
		fmt.Fprintf(&b, "WARNING: trace truncated, %d events dropped — counts below are lower bounds\n", rep.dropped)
	}

	b.WriteString("\nSolve regimes (thermal.reusable.solve spans):\n")
	if rep.regimeTotal == 0 {
		b.WriteString("  none recorded (flight recorder off? use -trace-format=flight or perfetto)\n")
	} else {
		for _, name := range sortedKeys(rep.regimes) {
			n := rep.regimes[name]
			fmt.Fprintf(&b, "  %-18s %6d  (%5.1f%%)\n", name, n, 100*float64(n)/float64(rep.regimeTotal))
		}
		fmt.Fprintf(&b, "  %-18s %6d\n", "total", rep.regimeTotal)
	}

	if len(rep.byCum) > 0 {
		fmt.Fprintf(&b, "\nTop %d spans by cumulative time:\n", len(rep.byCum))
		writeStatTable(&b, rep.byCum, func(s nameStat) int64 { return s.cum })
		fmt.Fprintf(&b, "\nTop %d spans by self time:\n", len(rep.bySelf))
		writeStatTable(&b, rep.bySelf, func(s nameStat) int64 { return s.self })
	}

	if rep.slowestSolve != nil {
		fmt.Fprintf(&b, "\nCritical path of the slowest solve (%s, %s):\n",
			rep.slowestSolve.Name, durStr(rep.slowestSolve.DurNS))
		for _, st := range rep.critical {
			fmt.Fprintf(&b, "  %s%s %s  [id %d, track %d]%s\n",
				strings.Repeat("  ", st.depth), st.ev.Name, durStr(st.ev.DurNS),
				st.ev.ID, st.ev.Track, attrSuffix(st.ev))
		}
	}

	b.WriteString("\nDegradations:\n")
	clean := true
	for _, reason := range sortedKeys(rep.guardReasons) {
		clean = false
		fmt.Fprintf(&b, "  %d SMW guard trip(s): %s\n", rep.guardReasons[reason], reason)
	}
	if rep.dropped > 0 {
		clean = false
		fmt.Fprintf(&b, "  trace buffer overflow: %d events dropped\n", rep.dropped)
	}
	if clean {
		b.WriteString("  none\n")
	}
	return b.String()
}

// writeStatTable renders one ranking table.
func writeStatTable(b *strings.Builder, stats []nameStat, key func(nameStat) int64) {
	fmt.Fprintf(b, "  %-32s %8s %12s %12s\n", "span", "count", "total", "mean")
	for _, s := range stats {
		mean := key(s) / int64(s.count)
		fmt.Fprintf(b, "  %-32s %8d %12s %12s\n", s.name, s.count, durStr(key(s)), durStr(mean))
	}
}

// attrSuffix renders a span's attributes as " {k=v, ...}".
func attrSuffix(ev obs.TraceEvent) string {
	if len(ev.Attrs) == 0 {
		return ""
	}
	parts := make([]string, len(ev.Attrs))
	for i, a := range ev.Attrs {
		parts[i] = a.Key + "=" + a.Value
	}
	return " {" + strings.Join(parts, ", ") + "}"
}

// durStr renders nanoseconds in a compact human unit.
func durStr(ns int64) string {
	return time.Duration(ns).String()
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
