// Package faults is a deterministic, seed-keyed fault-injection harness
// for the solve stack. Chaos tests build an Injector, arm Rules against
// named sites (a panic inside a pool worker, a NaN in a power map, a
// forced CG non-convergence, a mid-sweep cancellation, perturbed matrix
// entries), install it, and run the real pipeline; instrumented code
// consults the injector through the package-level hooks (Check,
// Float64, Perturb) at each site.
//
// Production builds pay one atomic pointer load per hook: with no
// injector installed every hook is an immediate no-op, mirroring the
// internal/obs nil-registry pattern. Nothing outside a test should ever
// call Install.
//
// Determinism: probabilistic rules (Prob) decide each hit from a hash
// of (injector seed, site, hit number) — never from the wall clock or a
// shared RNG — so a chaos run with a fixed seed fires the exact same
// faults at the exact same hits regardless of goroutine scheduling.
// Hit counters are per-rule atomics, so concurrent workers hitting one
// site observe a consistent total.
//
// The package imports only tecerr and the standard library, so every
// solver package can hook into it without import cycles.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"tecopt/internal/tecerr"
)

// Site names. Constants rather than free strings so chaos tests and
// instrumented code cannot drift apart.
const (
	// SitePoolTask fires at the start of every engine.Pool task.
	SitePoolTask = "engine.pool.task"
	// SiteCGIteration fires once per CG iteration, before the matvec.
	SiteCGIteration = "sparse.cg.iteration"
	// SiteCGResidual filters the relative residual of every CG iteration.
	SiteCGResidual = "sparse.cg.residual"
	// SiteBandMatrix perturbs the loaded band of a Cholesky factorization.
	SiteBandMatrix = "sparse.band.matrix"
	// SitePower filters every per-tile power entering a power vector.
	SitePower = "thermal.power"
	// SiteSweepPoint fires at every h_kl sweep sample point.
	SiteSweepPoint = "core.sweep.point"
	// SiteSMWGuard filters the capacitance-matrix conditioning margin of
	// every Sherman-Morrison-Woodbury correction, so chaos tests can
	// force the guard to trip and exercise the direct-factorization
	// fallback.
	SiteSMWGuard = "sparse.smw.guard"
	// SiteServeAdmit fires as the serving layer (tecserve) classifies a
	// request, before admission control — faults here exercise the
	// reject-early paths (shed, unavailable, malformed).
	SiteServeAdmit = "serve.admit"
	// SiteServeHandle fires inside a serving-layer worker as an admitted
	// request starts executing — faults here (panics, typed errors,
	// injected latency) exercise per-request isolation and the
	// status-code mapping with the request already holding a slot.
	SiteServeHandle = "serve.handle"
)

// ErrInjected is the cause wrapped by every injected error, so tests
// can tell an injected failure from an organic one with errors.Is.
var ErrInjected = errors.New("faults: injected error")

// Kind selects what an armed rule does when it fires.
type Kind int

const (
	// KindError makes Check return Rule.Err (or a generic injected
	// error wrapping ErrInjected).
	KindError Kind = iota
	// KindPanic makes Check panic, exercising worker recovery paths.
	KindPanic
	// KindCall makes Check invoke Rule.Call — e.g. a context.CancelFunc
	// to cancel a sweep from the middle of the sweep itself.
	KindCall
	// KindNaN makes Float64 return NaN.
	KindNaN
	// KindPosInf makes Float64 return +Inf.
	KindPosInf
	// KindPerturb makes Float64 scale its value by (1 + Scale*u) with a
	// deterministic u in [-1, 1), and Perturb do the same elementwise.
	KindPerturb
	// KindSleep makes Check block for Rule.Sleep before returning nil —
	// injected latency, the service-layer chaos primitive that turns a
	// fast handler into a slow one so backpressure, deadline, and drain
	// paths can be exercised deterministically.
	KindSleep
)

// Rule arms one fault at one site. Exactly one of the firing selectors
// should be set: OnHit fires on the nth hit only, Every fires on every
// nth hit, Prob fires each hit with the given seed-keyed probability,
// and with none set the rule fires on every hit.
type Rule struct {
	Site  string
	Kind  Kind
	OnHit uint64        // fire on this 1-based hit only
	Every uint64        // fire on every Every-th hit
	Prob  float64       // fire each hit with this probability (seed-keyed)
	Err   error         // KindError payload; nil uses a generic injected error
	Scale float64       // KindPerturb relative amplitude
	Call  func()        // KindCall payload
	Sleep time.Duration // KindSleep latency
}

// armed is a Rule plus its runtime counters.
type armed struct {
	Rule
	hits  atomic.Uint64
	fired atomic.Uint64
}

// step records one hit and reports whether the rule fires on it.
func (a *armed) step(seed uint64) (n uint64, fire bool) {
	n = a.hits.Add(1)
	switch {
	case a.OnHit > 0:
		fire = n == a.OnHit
	case a.Every > 0:
		fire = n%a.Every == 0
	case a.Prob > 0:
		fire = u01(seed, a.Site, n) < a.Prob
	default:
		fire = true
	}
	if fire {
		a.fired.Add(1)
	}
	return n, fire
}

// Injector holds a set of armed rules. Build with New, arm with Arm,
// activate with Install. Arm is not safe to call after Install.
type Injector struct {
	seed  uint64
	rules map[string][]*armed
}

// New returns an empty injector keyed by seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), rules: map[string][]*armed{}}
}

// Arm adds a rule and returns the injector for chaining.
func (in *Injector) Arm(r Rule) *Injector {
	in.rules[r.Site] = append(in.rules[r.Site], &armed{Rule: r})
	return in
}

// Hits returns the total number of times site was evaluated against
// this injector's rules (max over the site's rules, which all see every
// applicable hook call of their kind class).
func (in *Injector) Hits(site string) uint64 {
	var n uint64
	for _, a := range in.rules[site] {
		if h := a.hits.Load(); h > n {
			n = h
		}
	}
	return n
}

// Fired returns how many times the site's rules fired.
func (in *Injector) Fired(site string) uint64 {
	var n uint64
	for _, a := range in.rules[site] {
		n += a.fired.Load()
	}
	return n
}

// current is the installed injector; nil means fault injection is off
// and every hook is a single atomic load.
var current atomic.Pointer[Injector]

// Install activates in (nil deactivates). Tests must pair Install with
// a deferred Uninstall so faults never leak across tests.
func Install(in *Injector) { current.Store(in) }

// Uninstall deactivates fault injection.
func Uninstall() { current.Store(nil) }

// Enabled returns the installed injector, or nil when off.
func Enabled() *Injector { return current.Load() }

// Check evaluates the control-flow rules (KindError, KindPanic,
// KindCall) armed at site. It returns the injected error, panics, or
// invokes the armed callback when a rule fires; otherwise returns nil.
func Check(site string) error {
	in := current.Load()
	if in == nil {
		return nil
	}
	for _, a := range in.rules[site] {
		switch a.Kind {
		case KindError, KindPanic, KindCall, KindSleep:
		default:
			continue
		}
		n, fire := a.step(in.seed)
		if !fire {
			continue
		}
		switch a.Kind {
		case KindPanic:
			panic(fmt.Sprintf("faults: injected panic at %s (hit %d)", site, n))
		case KindCall:
			if a.Call != nil {
				a.Call()
			}
		case KindSleep:
			time.Sleep(a.Sleep)
		default:
			if a.Err != nil {
				return a.Err
			}
			return tecerr.Wrapf(tecerr.CodeInternal, "faults", ErrInjected,
				"faults: injected error at %s (hit %d)", site, n)
		}
	}
	return nil
}

// Float64 filters one value through the value rules (KindNaN,
// KindPosInf, KindPerturb) armed at site, returning it unchanged when
// nothing fires.
func Float64(site string, v float64) float64 {
	in := current.Load()
	if in == nil {
		return v
	}
	for _, a := range in.rules[site] {
		switch a.Kind {
		case KindNaN, KindPosInf, KindPerturb:
		default:
			continue
		}
		n, fire := a.step(in.seed)
		if !fire {
			continue
		}
		switch a.Kind {
		case KindNaN:
			return math.NaN()
		case KindPosInf:
			return math.Inf(1)
		default:
			return v * (1 + a.Scale*jitter(in.seed, a.Site, n, 0))
		}
	}
	return v
}

// Perturb applies the KindPerturb rules armed at site elementwise to
// xs, in place. One call counts as one hit.
func Perturb(site string, xs []float64) {
	in := current.Load()
	if in == nil {
		return
	}
	for _, a := range in.rules[site] {
		if a.Kind != KindPerturb {
			continue
		}
		n, fire := a.step(in.seed)
		if !fire {
			continue
		}
		for i := range xs {
			xs[i] *= 1 + a.Scale*jitter(in.seed, a.Site, n, uint64(i))
		}
	}
}

// u01 maps (seed, site, hit) to a deterministic value in [0, 1).
func u01(seed uint64, site string, n uint64) float64 {
	return float64(mix(seed^fnv64(site)^n)>>11) / float64(1<<53)
}

// jitter maps (seed, site, hit, index) to a deterministic value in
// [-1, 1).
func jitter(seed uint64, site string, n, i uint64) float64 {
	return 2*float64(mix(seed^fnv64(site)^n^(i*0x9e3779b97f4a7c15))>>11)/float64(1<<53) - 1
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64 is the FNV-1a hash of s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
