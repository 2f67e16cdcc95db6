package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile before
// the benchmark treats it as measured rather than as one outlier.
const tailSamples = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// or NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = min(max(rank, 0), len(s)-1)
	return s[rank]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// supportedPercentile returns the highest of the standard reporting
// percentiles (p50, p90, p99, p99.9) that has at least tailSamples
// samples beyond it in a sample of n, or 0 when none has.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-p) >= tailSamples-1e-9 {
			best = p
		}
	}
	return best
}

// latencySummary reports the median and the p90 and p99 latencies,
// each tail taken at the highest percentile the sample supports (ten
// samples beyond it) when the sample is too small for it: a serve-cold
// run's 100 requests give p90 for p99, a batch's few items give the
// median for both. The record states the sample count and the highest
// supported percentile, so a reader can tell a measured tail from a
// stand-in.
func latencySummary(rep *report, ms []float64) {
	sup := math.Max(supportedPercentile(len(ms)), 0.5)
	rep.set("p50_ms", "ms", percentile(ms, 0.5))
	rep.set("p90_ms", "ms", percentile(ms, math.Min(0.9, sup)))
	rep.set("p99_ms", "ms", percentile(ms, math.Min(0.99, sup)))
	rep.details["latency_samples"] = len(ms)
	rep.details["supported_percentile"] = supportedPercentile(len(ms))
}

// heapInUseMB collects garbage and returns the live heap in MB.
func heapInUseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / 1e6
}

// totalAlloc returns the cumulative heap bytes allocated.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// setupRepeats is how many times a run performs its set-up; setup_s
// is the median, so one slow start does not move it.
const setupRepeats = 7

// timeSetup runs build setupRepeats times and returns the median wall
// time in seconds together with the last build's product; the earlier
// products are released with their close functions.
func timeSetup[T any](build func() (T, func(), error)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		v, closeFn, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			closeFn()
			continue
		}
		last = v
	}
	return last, median(times), nil
}

// fingerprint identifies the machine and the code a result came from,
// so numbers from different boxes or commits are never compared.
func fingerprint(root string) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built inside a git checkout, otherwise a digest of
// every Go source file and go.mod under root (a benchmark checkout is
// not a git repository).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		h.Write([]byte(rel))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
