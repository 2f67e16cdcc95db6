package lint

// summary.go is the bottom-up function-summary layer on top of the
// call graph (callgraph.go). The loader harvests a FuncSummary for
// every function of every module package it type-checks — imports
// included, callee-SCCs first — so the interprocedural analyzers
// (dimflow, nanflow, goroleak, cachegen) can ask about callees outside
// the unit under analysis without re-reading their source.
//
// A summary records four fact families, one per analyzer:
//
//   - Params/Results: the physical dimension of each parameter and
//     result, inferred from the unit naming conventions (limitK,
//     currentA, condWperK, Seebeck, theta...) and, for unnamed
//     results, from the dimensions of the returned expressions —
//     the bottom-up half of dimflow.
//   - CanNaN: whether a floating-point result can be NaN/±Inf — it
//     derives from math.Sqrt/Log/NaN/Inf (or a CanNaN callee) and the
//     body never guards it with IsNaN/IsInf/IsFinite. Division is
//     deliberately not a source (every solver line divides; the rule
//     targets the provably-poisonous producers).
//   - NeverTerminates: the body's CFG cannot reach its exit block
//     (for {} with no break, select {}), the fact goroleak checks for
//     spawned functions.
//   - MutatesCacheKeyed/BumpsGeneration: whether the function writes
//     fields of a generation-keyed type (one whose generation field is
//     somewhere assigned from NextGeneration()) and whether it bumps
//     such a generation itself — the cachegen contract.
//
// Summaries are computed once per type-checked package, keyed by
// object identity (*types.Func), and are safe to read concurrently
// once loading finishes (cmd/teclint analyzes units in parallel).

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Dim is a physical dimension: integer exponents over the base
// quantities kelvin (temperature), watt (power), and ampere (current).
// Everything the paper's model manipulates is expressible in them:
// volts are W/A, ohms W/A^2, a Seebeck coefficient V/K = W/(A*K), a
// thermal conductance W/K, Peltier heat S*T*I = W. The zero Dim is
// dimensionless (a pure number), which is distinct from "unknown" —
// DimInfo carries the Known flag.
type Dim struct {
	K, W, A int8
}

// Mul returns the dimension of a product.
func (d Dim) Mul(e Dim) Dim { return Dim{d.K + e.K, d.W + e.W, d.A + e.A} }

// Div returns the dimension of a quotient.
func (d Dim) Div(e Dim) Dim { return Dim{d.K - e.K, d.W - e.W, d.A - e.A} }

// IsDimensionless reports whether d is the pure-number dimension.
func (d Dim) IsDimensionless() bool { return d == Dim{} }

// String renders the dimension for diagnostics: "K", "W/K",
// "W/(A*K)", "A^2", "1" for dimensionless.
func (d Dim) String() string {
	var num, den []string
	part := func(sym string, exp int8) {
		switch {
		case exp == 1:
			num = append(num, sym)
		case exp > 1:
			num = append(num, fmt.Sprintf("%s^%d", sym, exp))
		case exp == -1:
			den = append(den, sym)
		case exp < -1:
			den = append(den, fmt.Sprintf("%s^%d", sym, -exp))
		}
	}
	part("W", d.W)
	part("A", d.A)
	part("K", d.K)
	switch {
	case len(num) == 0 && len(den) == 0:
		return "1"
	case len(den) == 0:
		return strings.Join(num, "*")
	case len(num) == 0:
		if len(den) == 1 {
			return "1/" + den[0]
		}
		return "1/(" + strings.Join(den, "*") + ")"
	case len(den) == 1:
		return strings.Join(num, "*") + "/" + den[0]
	default:
		return strings.Join(num, "*") + "/(" + strings.Join(den, "*") + ")"
	}
}

// DimInfo is a possibly-unknown dimension.
type DimInfo struct {
	Dim   Dim
	Known bool
}

// unitTokens maps the single-suffix vocabulary (the same convention
// unitsanity keys kelvin slots off) to dimensions. Compound suffixes
// are formed with "per": WperK is W/K, VperK is W/(A*K).
var unitTokens = map[string]Dim{
	"K":   {K: 1},
	"W":   {W: 1},
	"A":   {A: 1},
	"V":   {W: 1, A: -1},
	"Ohm": {W: 1, A: -2},
}

// semanticNames maps physics vocabulary that appears without a unit
// suffix in this repository. Matched case-insensitively; prefix
// entries end in '*'.
var semanticNames = []struct {
	pattern string
	dim     Dim
}{
	{"seebeck", Dim{W: 1, A: -1, K: -1}}, // V/K
	{"resistance", Dim{W: 1, A: -2}},     // ohm
	{"kappa", Dim{W: 1, K: -1}},          // W/K
	{"conductance", Dim{W: 1, K: -1}},    // W/K
	{"current*", Dim{A: 1}},              // supply/zone currents
	{"theta*", Dim{K: 1}},                // temperature fields
	{"tilepower", Dim{W: 1}},             // per-tile silicon power
	{"powerdensity", Dim{W: 1}},          // treated as W per fixed tile
}

// NameDim infers the physical dimension a declared name carries, or
// Known=false when the name says nothing. Precedence: compound
// "XperY" suffix, then a single unit-token suffix (requiring a
// non-empty stem ending in a lowercase letter or digit, so `W` the
// rectangle-width field or `DVector` never match), then the semantic
// vocabulary.
func NameDim(name string) DimInfo {
	if d, ok := compoundSuffixDim(name); ok {
		return DimInfo{Dim: d, Known: true}
	}
	if d, ok := tokenSuffixDim(name); ok {
		return DimInfo{Dim: d, Known: true}
	}
	lower := strings.ToLower(name)
	for _, s := range semanticNames {
		if pat, isPrefix := strings.CutSuffix(s.pattern, "*"); isPrefix {
			if strings.HasPrefix(lower, pat) {
				return DimInfo{Dim: s.dim, Known: true}
			}
		} else if lower == pat {
			return DimInfo{Dim: s.dim, Known: true}
		}
	}
	return DimInfo{}
}

// compoundSuffixDim matches "...XperY" suffixes: condWperK -> W/K,
// seebeckVperK -> W/(A*K), invKperW -> K/W. The whole name may be the
// compound (WperK).
func compoundSuffixDim(name string) (Dim, bool) {
	best := ""
	var bestDim Dim
	for x, dx := range unitTokens {
		for y, dy := range unitTokens {
			suffix := x + "per" + y
			if !strings.HasSuffix(name, suffix) || len(suffix) < len(best) {
				continue
			}
			stem := name[:len(name)-len(suffix)]
			if stem != "" && !lowerOrDigit(stem[len(stem)-1]) {
				continue
			}
			best, bestDim = suffix, dx.Div(dy)
		}
	}
	return bestDim, best != ""
}

// tokenSuffixDim matches single unit-token suffixes with a non-empty
// stem: limitK, tilePowerW, maxBracketCurrentA, rOhm, dropV.
func tokenSuffixDim(name string) (Dim, bool) {
	best := ""
	var bestDim Dim
	for tok, d := range unitTokens {
		if !strings.HasSuffix(name, tok) || len(tok) < len(best) {
			continue
		}
		stem := name[:len(name)-len(tok)]
		if stem == "" || !lowerOrDigit(stem[len(stem)-1]) {
			continue
		}
		best, bestDim = tok, d
	}
	return bestDim, best != ""
}

func lowerOrDigit(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

// FuncSummary is the interprocedural fact record of one declared
// function, computed bottom-up in call-graph SCC order.
type FuncSummary struct {
	// Params and Results give the inferred dimension of each parameter
	// and result (indexes follow the signature). Parameters are named
	// only; results fall back to the dimensions of returned
	// expressions when the signature leaves them unnamed.
	Params  []DimInfo
	Results []DimInfo
	// CanNaN reports that some floating-point result can be NaN or
	// ±Inf: it derives from a NaN-capable producer and the body never
	// checks it with IsNaN/IsInf/IsFinite.
	CanNaN bool
	// NeverTerminates reports that the body's CFG cannot reach its
	// exit: a goroutine running this function can never finish.
	NeverTerminates bool
	// MutatesCacheKeyed reports a write to a non-generation field of a
	// generation-keyed type somewhere in the body.
	MutatesCacheKeyed bool
	// BumpsGeneration reports that the body calls NextGeneration()
	// itself, or calls a callee that both bumps and receives a
	// generation-keyed value (so the bump can reach the caller's
	// object).
	BumpsGeneration bool
}

// Summary returns the recorded summary for fn, or nil when fn was
// never summarized (stdlib functions, function literals).
func (f *FactStore) Summary(fn *types.Func) *FuncSummary {
	if f == nil || fn == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.summaries[fn]
}

// GenField reports the generation-field name of a cache-keyed type:
// a named struct type some field of which is assigned from
// NextGeneration(). t may be the named type or a pointer to it.
func (f *FactStore) GenField(t types.Type) (string, bool) {
	if f == nil || t == nil {
		return "", false
	}
	named, ok := derefType(t).(*types.Named)
	if !ok {
		return "", false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	field, ok := f.genTypes[named]
	return field, ok
}

// recordSummaries computes and stores summaries for every function
// declared in files. Must run after recordNoReturns (the CFG used for
// NeverTerminates relies on no-return facts).
func (f *FactStore) recordSummaries(info *types.Info, files []*ast.File) {
	if f == nil {
		return
	}
	f.harvestGenTypes(info, files)
	graph := BuildCallGraph(info, files)
	for _, scc := range graph.SCCs() {
		// Seed every member first so mutual recursion resolves against
		// in-progress (conservative) summaries instead of nil.
		for _, node := range scc {
			f.setSummary(node.Fn, f.seedSummary(node))
		}
		// Iterate the component to a local fixpoint: facts only flip
		// false->true or unknown->known, so this terminates quickly.
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				if f.refineSummary(info, node) {
					changed = true
				}
			}
		}
	}
}

func (f *FactStore) setSummary(fn *types.Func, s *FuncSummary) {
	f.mu.Lock()
	f.summaries[fn] = s
	f.mu.Unlock()
}

// seedSummary computes the facts that need no callee information:
// name-derived parameter/result dimensions and CFG termination.
func (f *FactStore) seedSummary(node *CGNode) *FuncSummary {
	sig, _ := node.Fn.Type().(*types.Signature)
	s := &FuncSummary{}
	if sig != nil {
		s.Params = make([]DimInfo, sig.Params().Len())
		for i := range s.Params {
			s.Params[i] = NameDim(sig.Params().At(i).Name())
		}
		s.Results = make([]DimInfo, sig.Results().Len())
		for i := range s.Results {
			s.Results[i] = NameDim(sig.Results().At(i).Name())
		}
	}
	return s
}

// refineSummary recomputes the callee-dependent facts of one node and
// reports whether anything changed.
func (f *FactStore) refineSummary(info *types.Info, node *CGNode) bool {
	s := f.Summary(node.Fn)
	changed := false

	if !s.NeverTerminates && f.bodyNeverReachesExit(info, node.Decl.Body) {
		s.NeverTerminates = true
		changed = true
	}
	if f.refineResultDims(info, node, s) {
		changed = true
	}
	if !s.CanNaN && f.resultCanNaN(info, node) {
		s.CanNaN = true
		changed = true
	}
	mut, bump := f.cacheEffects(info, node)
	if mut && !s.MutatesCacheKeyed {
		s.MutatesCacheKeyed = true
		changed = true
	}
	if bump && !s.BumpsGeneration {
		s.BumpsGeneration = true
		changed = true
	}
	return changed
}

// bodyNeverReachesExit builds the function's CFG and reports whether
// the exit block is unreachable from entry — the summary behind
// goroleak's "this goroutine can never finish".
func (f *FactStore) bodyNeverReachesExit(info *types.Info, body *ast.BlockStmt) bool {
	g := BuildCFG(body, TerminatesCall(info, f))
	reached := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, succ := range b.Succs {
			if !reached[succ] {
				reached[succ] = true
				work = append(work, succ)
			}
		}
	}
	return !reached[g.Exit]
}

// refineResultDims fills unknown result dimensions from the returned
// expressions: if every return statement agrees on a known dimension
// for result i, the function result carries it.
func (f *FactStore) refineResultDims(info *types.Info, node *CGNode, s *FuncSummary) bool {
	unknown := false
	for _, r := range s.Results {
		if !r.Known {
			unknown = true
		}
	}
	if !unknown {
		return false
	}
	agreed := make([]DimInfo, len(s.Results))
	sawReturn := make([]bool, len(s.Results))
	conflict := make([]bool, len(s.Results))
	eval := &dimEval{info: info, facts: f}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != len(s.Results) {
			return true
		}
		for i, e := range ret.Results {
			d := eval.exprDim(e)
			if !d.Known || d.Dim.IsDimensionless() {
				conflict[i] = true // a unit-less return leaves it unknown
				continue
			}
			if sawReturn[i] && agreed[i].Dim != d.Dim {
				conflict[i] = true
				continue
			}
			agreed[i], sawReturn[i] = d, true
		}
		return true
	})
	changed := false
	for i := range s.Results {
		if !s.Results[i].Known && sawReturn[i] && !conflict[i] {
			s.Results[i] = agreed[i]
			changed = true
		}
	}
	return changed
}

// nanSources is the standard-library NaN/Inf producer list: functions
// whose float result is NaN or ±Inf on reachable inputs. Division is
// deliberately excluded (see the package comment).
var nanSources = map[string]bool{
	"Sqrt": true, "Log": true, "Log2": true, "Log10": true, "Log1p": true,
	"Asin": true, "Acos": true, "Acosh": true, "Atanh": true,
	"NaN": true, "Inf": true,
}

// nanGuards are the sanctioned checks: once a value has been through
// one, it is considered guarded.
var nanGuards = map[string]bool{"IsNaN": true, "IsInf": true, "IsFinite": true}

// isMathSource reports whether the call is a std NaN/Inf producer
// (math.Sqrt and friends).
func isMathSource(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !nanSources[sel.Sel.Name] {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "math"
}

// isNaNGuardCall reports whether the call is an IsNaN/IsInf/IsFinite
// check, returning the checked expression.
func isNaNGuardCall(call *ast.CallExpr) (ast.Expr, bool) {
	if calleeName(call) == "" || !nanGuards[calleeName(call)] || len(call.Args) == 0 {
		return nil, false
	}
	return call.Args[0], true
}

// resultCanNaN is the bottom-up CanNaN inference: a single forward
// scan collects locals assigned from NaN-capable expressions, removes
// every local the body guards, and reports whether a float result can
// carry the taint out.
func (f *FactStore) resultCanNaN(info *types.Info, node *CGNode) bool {
	sig, _ := node.Fn.Type().(*types.Signature)
	if sig == nil || !hasFloatResult(sig) {
		return false
	}
	tainted := make(map[types.Object]bool)
	guarded := make(map[types.Object]bool)
	capable := func(e ast.Expr) bool { return f.exprNaNCapable(info, e, tainted) }

	// Pass 1: collect taints and guards in source order. Guards apply
	// function-wide — the contract is "checked somewhere", not a path
	// property, at summary granularity.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && capable(n.Rhs[i]) {
					tainted[obj] = true
				}
			}
		case *ast.CallExpr:
			if arg, ok := isNaNGuardCall(n); ok {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						guarded[obj] = true
					}
				}
			}
		}
		return true
	})
	for obj := range guarded {
		delete(tainted, obj)
	}

	// Pass 2: does any return statement carry taint out in a float
	// result?
	canNaN := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return !canNaN
		}
		for _, e := range ret.Results {
			if t := info.TypeOf(e); t != nil && isFloat(t) && capable(e) {
				canNaN = true
			}
		}
		return true
	})
	return canNaN
}

// exprNaNCapable reports whether e can evaluate to NaN/±Inf: it
// mentions a tainted local, calls a std producer, or calls a module
// function whose summary says CanNaN.
func (f *FactStore) exprNaNCapable(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	capable := false
	ast.Inspect(e, func(n ast.Node) bool {
		if capable {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && tainted[obj] {
				capable = true
			}
		case *ast.CallExpr:
			if isMathSource(info, n) {
				capable = true
				return false
			}
			if callee := staticCallee(info, n); callee != nil {
				if s := f.Summary(callee); s != nil && s.CanNaN {
					capable = true
					return false
				}
			}
		}
		return true
	})
	return capable
}

func hasFloatResult(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isFloat(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// harvestGenTypes records every named struct type whose field is
// assigned from a NextGeneration() call — by field assignment or
// composite literal — as cache-keyed, remembering the generation
// field's name.
func (f *FactStore) harvestGenTypes(info *types.Info, files []*ast.File) {
	record := func(t types.Type, field string) {
		if named, ok := derefType(t).(*types.Named); ok {
			f.mu.Lock()
			f.genTypes[named] = field
			f.mu.Unlock()
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !isNextGenerationCall(n.Rhs[i]) {
						continue
					}
					if t := info.TypeOf(sel.X); t != nil {
						record(t, sel.Sel.Name)
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok || !isNextGenerationCall(kv.Value) {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if t := info.TypeOf(n); t != nil {
						record(t, key.Name)
					}
				}
			}
			return true
		})
	}
}

// isNextGenerationCall matches a call to a function named
// NextGeneration (the generation allocator; matched by name so
// fixtures can define their own).
func isNextGenerationCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && calleeName(call) == "NextGeneration"
}

// cacheEffects scans one function for generation-cache effects:
// mut — a write to a non-generation field of a cache-keyed type;
// bump — a NextGeneration() call, or a call to a callee that bumps
// and receives a cache-keyed value (so its bump can cover the
// caller's object).
func (f *FactStore) cacheEffects(info *types.Info, node *CGNode) (mut, bump bool) {
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, _, ok := f.cacheKeyedFieldWrite(info, lhs); ok {
					mut = true
				}
			}
			for _, rhs := range n.Rhs {
				if isNextGenerationCall(rhs) {
					bump = true
				}
			}
		case *ast.IncDecStmt:
			if _, _, ok := f.cacheKeyedFieldWrite(info, n.X); ok {
				mut = true
			}
		case *ast.CallExpr:
			if calleeName(n) == "NextGeneration" {
				bump = true
				return true
			}
			if callee := staticCallee(info, n); callee != nil {
				if s := f.Summary(callee); s != nil && s.BumpsGeneration && receivesCacheKeyed(f, callee) {
					bump = true
				}
			}
		}
		return true
	})
	return mut, bump
}

// cacheKeyedFieldWrite reports whether lhs writes a non-generation
// field of a cache-keyed type: x.f, x.f[i], or x.f.g where x's type
// is generation-keyed.
func (f *FactStore) cacheKeyedFieldWrite(info *types.Info, lhs ast.Expr) (sel *ast.SelectorExpr, field string, ok bool) {
	e := ast.Unparen(lhs)
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
			continue
		case *ast.SelectorExpr:
			if t := info.TypeOf(v.X); t != nil {
				if genField, keyed := f.GenField(t); keyed && v.Sel.Name != genField {
					return v, v.Sel.Name, true
				}
			}
			e = v.X
			continue
		}
		return nil, "", false
	}
}

// receivesCacheKeyed reports whether fn's receiver or any parameter
// is (a pointer to) a cache-keyed type — the condition under which
// its generation bump can cover a caller's object.
func receivesCacheKeyed(f *FactStore, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		if _, keyed := f.GenField(recv.Type()); keyed {
			return true
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if _, keyed := f.GenField(sig.Params().At(i).Type()); keyed {
			return true
		}
	}
	return false
}

// dimEval evaluates expression dimensions against the naming
// vocabulary and the summary store. The zero conflict callback makes
// evaluation silent (summary inference); dimflow installs a reporter.
type dimEval struct {
	info  *types.Info
	facts *FactStore
	// onConflict, when non-nil, is invoked for every additive or
	// comparison operand pair with conflicting known dimensions.
	onConflict func(n ast.Node, op string, a, b Dim)
}

// mathPassThrough lists math functions transparent to dimensions:
// the result carries the first argument's unit.
var mathPassThrough = map[string]bool{
	"Abs": true, "Max": true, "Min": true, "Floor": true, "Ceil": true,
	"Round": true, "Trunc": true, "Mod": true, "Copysign": true,
}

// exprDim infers the dimension of e, Known=false when the names along
// the way say nothing.
func (ev *dimEval) exprDim(e ast.Expr) DimInfo {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ev.exprDim(e.X)
	case *ast.Ident:
		return ev.identDim(e)
	case *ast.SelectorExpr:
		// A field or package-level var selection carries its name's
		// unit; method values and package names carry none.
		if obj := ev.info.Uses[e.Sel]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return NameDim(e.Sel.Name)
			}
		}
		return DimInfo{}
	case *ast.IndexExpr:
		// tileTempsK[i] carries the slice name's unit per element.
		return ev.exprDim(e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "-" || e.Op.String() == "+" {
			return ev.exprDim(e.X)
		}
		return DimInfo{}
	case *ast.BasicLit:
		return DimInfo{Known: true} // pure number
	case *ast.BinaryExpr:
		return ev.binaryDim(e)
	case *ast.CallExpr:
		return ev.callDim(e)
	}
	return DimInfo{}
}

func (ev *dimEval) identDim(id *ast.Ident) DimInfo {
	obj := ev.info.Uses[id]
	if obj == nil {
		obj = ev.info.Defs[id]
	}
	switch obj.(type) {
	case *types.Var:
		return NameDim(id.Name)
	case *types.Const:
		// A unit-named constant (roomTempK) carries its unit; other
		// constants are pure numbers only when untyped numeric —
		// leave named constants without a unit suffix unknown.
		if d := NameDim(id.Name); d.Known {
			return d
		}
	}
	return DimInfo{}
}

func (ev *dimEval) binaryDim(e *ast.BinaryExpr) DimInfo {
	a, b := ev.exprDim(e.X), ev.exprDim(e.Y)
	switch e.Op.String() {
	case "*":
		if a.Known && b.Known {
			return DimInfo{Dim: a.Dim.Mul(b.Dim), Known: true}
		}
		// A pure-number factor is transparent: 2*limitK is still K.
		if a.Known && a.Dim.IsDimensionless() {
			return b
		}
		if b.Known && b.Dim.IsDimensionless() {
			return a
		}
		return DimInfo{}
	case "/":
		if a.Known && b.Known {
			return DimInfo{Dim: a.Dim.Div(b.Dim), Known: true}
		}
		if b.Known && b.Dim.IsDimensionless() {
			return a // x/2 keeps x's unit
		}
		return DimInfo{}
	case "+", "-":
		ev.checkAdditive(e, a, b)
		if a.Known && !a.Dim.IsDimensionless() {
			return a
		}
		if b.Known && !b.Dim.IsDimensionless() {
			return b
		}
		if a.Known && b.Known {
			return a
		}
		return DimInfo{}
	case "<", "<=", ">", ">=", "==", "!=":
		ev.checkAdditive(e, a, b)
		return DimInfo{} // boolean result carries no unit
	}
	return DimInfo{}
}

// checkAdditive fires the conflict callback when two operands that
// must share a dimension (addition, subtraction, comparison) carry
// different known, non-pure-number dimensions.
func (ev *dimEval) checkAdditive(e *ast.BinaryExpr, a, b DimInfo) {
	if ev.onConflict == nil || !a.Known || !b.Known {
		return
	}
	if a.Dim.IsDimensionless() || b.Dim.IsDimensionless() {
		return // literals and counts mix with anything
	}
	if a.Dim != b.Dim {
		ev.onConflict(e, e.Op.String(), a.Dim, b.Dim)
	}
}

// callDim infers a call expression's dimension: conversions are
// transparent, math helpers pass their argument's unit through, and
// module callees answer from their summary (named results, or
// bottom-up inference).
func (ev *dimEval) callDim(call *ast.CallExpr) DimInfo {
	// Conversion: float64(x) keeps x's unit.
	if len(call.Args) == 1 {
		if tv, ok := ev.info.Types[call.Fun]; ok && tv.IsType() {
			return ev.exprDim(call.Args[0])
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mathPassThrough[sel.Sel.Name] && len(call.Args) >= 1 {
		if fn, ok := ev.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "math" {
			return ev.exprDim(call.Args[0])
		}
	}
	callee := staticCallee(ev.info, call)
	if callee == nil {
		return DimInfo{}
	}
	s := ev.facts.Summary(callee)
	if s == nil || len(s.Results) == 0 {
		// No summary (stdlib): fall back to the result names in the
		// signature, which go/types preserves for source imports.
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Results().Len() >= 1 {
			return NameDim(sig.Results().At(0).Name())
		}
		return DimInfo{}
	}
	return s.Results[0]
}

// sortedFuncNames is a test helper: the names of all summarized
// functions, sorted, for deterministic assertions.
func (f *FactStore) sortedFuncNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.summaries))
	for fn := range f.summaries {
		names = append(names, fn.Name())
	}
	sort.Strings(names)
	return names
}
