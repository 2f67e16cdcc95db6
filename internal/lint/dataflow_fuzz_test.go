package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// isolationCheck wraps assignNames and records every state the engine
// receives from Entry/Transfer/Join together with a snapshot taken at
// that moment. The engine's contract is that states are immutable once
// produced; if it (or BlockOut replay) ever wrote into a stored state,
// the state would drift from its snapshot.
type isolationCheck struct {
	assignNames
	states *[]anState
	snaps  *[]anState
}

func (c isolationCheck) record(s FlowState) FlowState {
	m := s.(anState)
	snap := make(anState, len(m))
	for k := range m {
		snap[k] = true
	}
	*c.states = append(*c.states, m)
	*c.snaps = append(*c.snaps, snap)
	return s
}

func (c isolationCheck) Entry() FlowState { return c.record(c.assignNames.Entry()) }

func (c isolationCheck) Transfer(n ast.Node, in FlowState) FlowState {
	return c.record(c.assignNames.Transfer(n, in))
}

func (c isolationCheck) Join(a, b FlowState) FlowState {
	return c.record(c.assignNames.Join(a, b))
}

// FuzzDataflow pushes arbitrary parseable function bodies through the
// CFG builder and the forward fixpoint engine, asserting the
// hang-proofing and immutability contracts dataflow.go documents:
// RunForward returns for every graph (even under an analysis that
// never converges, where only the step bound stops it), and no state
// handed to the engine is ever mutated afterwards — Transfer and Join
// results must stay exactly as produced, including through BlockOut
// replay.
func FuzzDataflow(f *testing.F) {
	seeds := []string{
		"x := 1\ny := x",
		"if a { x := 1; _ = x } else { y := 2; _ = y }",
		"for i := 0; i < 10; i++ { if i == 3 { continue }; x := i; _ = x }",
		"for { x := 1; _ = x }",
		"switch x { case 1: a := 1; _ = a\ncase 2: b := 2; _ = b\ndefault: }",
		"select { case <-c: v := 1; _ = v\ndefault: }",
		"L: for { if done { break L }; goto L }",
		"defer f()\nx := g()\nif x != nil { return }",
		// Channel-op, WaitGroup and lock-around-receive bodies: the
		// concurrent engine and serve code is built from these node
		// shapes, so the fixpoint engine must stay bounded and
		// isolation-clean on them — including the RangeStmt head that
		// replays the whole statement and detached select.case comm
		// clauses.
		"ch := make(chan int)\nch <- 1\nclose(ch)\nclose(ch)",
		"for v := range ch { x := v; _ = x; ch2 <- v }",
		"select { case ch <- 1: x := 1; _ = x\ncase v, ok := <-ch2: _ = v; _ = ok\ndefault: }",
		"var wg sync.WaitGroup\nwg.Add(1)\ngo func() { defer wg.Done() }()\nwg.Wait()",
		"mu.Lock()\n<-ch\nmu.Unlock()",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			t.Skip() // keep per-input work bounded
		}
		file := "package p\nfunc f() {\n" + src + "\n}\n"
		parsed, err := parser.ParseFile(token.NewFileSet(), "f.go", file, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		for _, d := range parsed.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := BuildCFG(fd.Body, nil)

			// Termination under the step bound: divergent's Equal is
			// always false, so only maxFlowSteps stops the engine. A
			// hang here is a fuzz finding (the harness times out).
			RunForward(g, divergent{})

			// Clone isolation: run a converging analysis, replay every
			// block, then verify no recorded state drifted from its
			// snapshot.
			var states, snaps []anState
			chk := isolationCheck{states: &states, snaps: &snaps}
			res := RunForward(g, chk)
			if _, ok := res.In[g.Entry]; !ok {
				t.Fatal("fixpoint lost the entry block")
			}
			for b := range res.In {
				_ = res.BlockOut(chk, b)
			}
			for i := range states {
				if !(assignNames{}).Equal(states[i], snaps[i]) {
					t.Fatalf("state %d mutated after hand-off: %v, snapshot %v", i, states[i], snaps[i])
				}
			}
		}
	})
}
