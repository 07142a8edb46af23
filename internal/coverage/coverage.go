// Package coverage measures statement, branch, and MC/DC coverage over
// interpreted executions of the parsed corpus — the reproduction of the
// paper's RapiCover-based unit-testing study (Figure 5) and of the
// cuda4cpu GPU-on-CPU study (Figure 6).
//
// Instrumentation is probe-based: Instrument assigns IDs to statements,
// decisions, and leaf conditions of a function and returns a Recorder
// whose cinterp.Hooks mark execution events. MC/DC is computed from
// recorded condition vectors, with both unique-cause and masking modes.
package coverage

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/cfg"
	"repro/internal/cinterp"
)

// StmtProbe is one instrumented statement.
type StmtProbe struct {
	ID   int
	Line int
	Hits int
}

// CondProbe is one leaf condition within a decision.
type CondProbe struct {
	ID   int
	Line int
	// TrueSeen/FalseSeen record observed outcomes.
	TrueSeen  bool
	FalseSeen bool
}

// DecisionProbe is one branching point.
type DecisionProbe struct {
	ID    int
	Line  int
	Kind  string
	Conds []*CondProbe
	// TrueHits/FalseHits count decision outcomes.
	TrueHits  int
	FalseHits int
	// vectors are the recorded condition/outcome evaluations for MC/DC.
	vectors []condVector
}

// condVector is one decision evaluation: per-condition outcome
// (-1 = not evaluated due to short circuit) plus the decision outcome.
type condVector struct {
	conds   []int8
	outcome bool
}

// CaseProbe tracks one switch case label (branch coverage contributors).
type CaseProbe struct {
	ID          int
	Line        int
	MatchSeen   bool
	NoMatchSeen bool
}

// FuncCoverage is the instrumented view of one function.
type FuncCoverage struct {
	Name string
	File string

	Stmts     []*StmtProbe
	Decisions []*DecisionProbe
	Cases     []*CaseProbe

	stmtOf map[ccast.Stmt]*StmtProbe
	decOf  map[ccast.Node]*DecisionProbe
	condOf map[ccast.Expr]*CondProbe
	caseOf map[*ccast.CaseClause]*CaseProbe

	// pending assembles the current decision's condition vector.
	pending map[*DecisionProbe][]int8
}

// Instrument builds probes for a function definition.
func Instrument(fn *ccast.FuncDecl, file string) *FuncCoverage {
	fc := newFuncCoverage(fn, file)
	ccast.Walk(fn.Body, func(n ccast.Node) bool {
		switch n := n.(type) {
		case ccast.Stmt:
			switch n.(type) {
			case *ccast.Block, *ccast.Label:
				// containers: not counted as statements
			default:
				fc.addStmt(n.(ccast.Stmt))
			}
			switch s := n.(type) {
			case *ccast.If:
				fc.addDecision(s, "if", s.Cond)
			case *ccast.While:
				fc.addDecision(s, "while", s.Cond)
			case *ccast.DoWhile:
				fc.addDecision(s, "do-while", s.Cond)
			case *ccast.For:
				if s.Cond != nil {
					fc.addDecision(s, "for", s.Cond)
				}
			case *ccast.Switch:
				for _, c := range s.Cases {
					if len(c.Values) == 0 {
						continue // default label is not a branch test
					}
					fc.addCase(c)
				}
			}
		case *ccast.Cond:
			fc.addDecision(n, "?:", n.C)
		}
		return true
	})
	return fc
}

// InstrumentGraph builds probes from a prebuilt control-flow graph's
// statement/decision/case inventories instead of re-walking the function
// body. The graph must come from cfg.Build over the same declaration;
// with a shared artifact cache the CFG is constructed once per function
// and this path performs no AST traversal. The probe layout is identical
// to Instrument's (the inventories are collected in the same DFS order).
func InstrumentGraph(fn *ccast.FuncDecl, file string, g *cfg.Graph) *FuncCoverage {
	if g == nil {
		return Instrument(fn, file)
	}
	fc := newFuncCoverage(fn, file)
	for _, s := range g.Stmts {
		fc.addStmt(s)
	}
	// Probe IDs are per-category, and each inventory is collected in the
	// same DFS order Instrument's walk uses, so category-ordered
	// construction yields identical probes. Case decisions are tracked by
	// CaseProbes, not DecisionProbes, exactly as in Instrument.
	for _, d := range g.Decisions {
		if d.Kind != cfg.DecisionCase {
			fc.addDecision(d.Owner, d.Kind.String(), d.Expr)
		}
	}
	for _, c := range g.Cases {
		fc.addCase(c)
	}
	return fc
}

// newFuncCoverage allocates the probe container for one function.
func newFuncCoverage(fn *ccast.FuncDecl, file string) *FuncCoverage {
	return &FuncCoverage{
		Name:    fn.Name,
		File:    file,
		stmtOf:  make(map[ccast.Stmt]*StmtProbe),
		decOf:   make(map[ccast.Node]*DecisionProbe),
		condOf:  make(map[ccast.Expr]*CondProbe),
		caseOf:  make(map[*ccast.CaseClause]*CaseProbe),
		pending: make(map[*DecisionProbe][]int8),
	}
}

func (fc *FuncCoverage) addStmt(s ccast.Stmt) {
	sp := &StmtProbe{ID: len(fc.Stmts), Line: s.Span().Start.Line}
	fc.Stmts = append(fc.Stmts, sp)
	fc.stmtOf[s] = sp
}

func (fc *FuncCoverage) addCase(c *ccast.CaseClause) {
	cp := &CaseProbe{ID: len(fc.Cases), Line: c.Span().Start.Line}
	fc.Cases = append(fc.Cases, cp)
	fc.caseOf[c] = cp
}

func (fc *FuncCoverage) addDecision(owner ccast.Node, kind string, cond ccast.Expr) {
	dp := &DecisionProbe{
		ID: len(fc.Decisions), Line: owner.Span().Start.Line, Kind: kind,
	}
	fc.Decisions = append(fc.Decisions, dp)
	fc.decOf[owner] = dp
	for _, leaf := range LeafConditions(cond) {
		cp := &CondProbe{ID: len(dp.Conds), Line: leaf.Span().Start.Line}
		dp.Conds = append(dp.Conds, cp)
		fc.condOf[leaf] = cp
	}
}

// LeafConditions decomposes a controlling expression into its leaf
// conditions: operands of && and || after stripping parentheses and
// negations. A decision with no short-circuit structure has one leaf.
func LeafConditions(e ccast.Expr) []ccast.Expr {
	switch x := e.(type) {
	case *ccast.Paren:
		return LeafConditions(x.X)
	case *ccast.Unary:
		if x.Op == "!" {
			return LeafConditions(x.X)
		}
	case *ccast.Binary:
		if x.Op == "&&" || x.Op == "||" {
			return append(LeafConditions(x.L), LeafConditions(x.R)...)
		}
	}
	if e == nil {
		return nil
	}
	return []ccast.Expr{e}
}

// Hooks returns interpreter hooks that mark this function's probes. Pass
// the same Recorder hooks for every function by combining with Merge.
func (fc *FuncCoverage) Hooks() cinterp.Hooks {
	return cinterp.Hooks{
		OnStmt: func(s ccast.Stmt) {
			if p, ok := fc.stmtOf[s]; ok {
				p.Hits++
			}
		},
		OnCondition: func(owner ccast.Node, leaf ccast.Expr, outcome bool) {
			dp, ok := fc.decOf[owner]
			if !ok {
				return
			}
			cp, ok := fc.condOf[leaf]
			if !ok {
				return
			}
			if outcome {
				cp.TrueSeen = true
			} else {
				cp.FalseSeen = true
			}
			vec := fc.pending[dp]
			if vec == nil {
				vec = make([]int8, len(dp.Conds))
				for i := range vec {
					vec[i] = -1
				}
			}
			if outcome {
				vec[cp.ID] = 1
			} else {
				vec[cp.ID] = 0
			}
			fc.pending[dp] = vec
		},
		OnDecision: func(owner ccast.Node, outcome bool) {
			dp, ok := fc.decOf[owner]
			if !ok {
				return
			}
			if outcome {
				dp.TrueHits++
			} else {
				dp.FalseHits++
			}
			vec := fc.pending[dp]
			if vec == nil {
				vec = make([]int8, len(dp.Conds))
				for i := range vec {
					vec[i] = -1
				}
			}
			dp.vectors = append(dp.vectors, condVector{conds: vec, outcome: outcome})
			delete(fc.pending, dp)
		},
		OnCase: func(c *ccast.CaseClause, matched bool) {
			if p, ok := fc.caseOf[c]; ok {
				if matched {
					p.MatchSeen = true
				} else {
					p.NoMatchSeen = true
				}
			}
		},
	}
}

// MCDCMode selects the independence-pair analysis.
type MCDCMode int

// MC/DC analysis modes.
const (
	// UniqueCause requires the pair of evaluations to differ only in the
	// target condition.
	UniqueCause MCDCMode = iota
	// Masking allows other conditions to differ when they are masked;
	// operationally we require only that the target condition and the
	// decision outcome both flip.
	Masking
)

// String names the mode.
func (m MCDCMode) String() string {
	if m == Masking {
		return "masking"
	}
	return "unique-cause"
}

// mcdcDemonstrated reports whether condition i of the decision has an
// independence pair among the recorded vectors.
func (dp *DecisionProbe) mcdcDemonstrated(i int, mode MCDCMode) bool {
	if len(dp.Conds) == 1 {
		// Single-condition decision: MC/DC degenerates to both outcomes.
		return dp.TrueHits > 0 && dp.FalseHits > 0
	}
	for a := 0; a < len(dp.vectors); a++ {
		va := dp.vectors[a]
		if va.conds[i] < 0 {
			continue
		}
		for b := a + 1; b < len(dp.vectors); b++ {
			vb := dp.vectors[b]
			if vb.conds[i] < 0 {
				continue
			}
			if va.conds[i] == vb.conds[i] || va.outcome == vb.outcome {
				continue
			}
			if mode == Masking {
				return true
			}
			// Unique cause: every other condition must hold the same value
			// in both evaluations; a short-circuited (unevaluated) leg is a
			// don't-care, which is the accepted treatment for coupled
			// short-circuit operators.
			equalOthers := true
			for j := range va.conds {
				if j == i || va.conds[j] < 0 || vb.conds[j] < 0 {
					continue
				}
				if va.conds[j] != vb.conds[j] {
					equalOthers = false
					break
				}
			}
			if equalOthers {
				return true
			}
		}
	}
	return false
}

// Summary holds the three coverage percentages for one scope.
type Summary struct {
	Scope string

	StmtTotal   int
	StmtCovered int

	BranchTotal   int
	BranchCovered int

	CondTotal        int
	CondDemonstrated int

	// Called reports whether any statement executed (used to exclude
	// never-called functions, as the paper does).
	Called bool
}

// StmtPct returns statement coverage in percent (100 when empty).
func (s *Summary) StmtPct() float64 { return pct(s.StmtCovered, s.StmtTotal) }

// BranchPct returns branch coverage in percent.
func (s *Summary) BranchPct() float64 { return pct(s.BranchCovered, s.BranchTotal) }

// MCDCPct returns MC/DC coverage in percent.
func (s *Summary) MCDCPct() float64 { return pct(s.CondDemonstrated, s.CondTotal) }

func pct(n, d int) float64 {
	if d == 0 {
		return 100
	}
	return 100 * float64(n) / float64(d)
}

// Summarize computes the function's coverage summary.
func (fc *FuncCoverage) Summarize(mode MCDCMode) *Summary {
	s := &Summary{Scope: fc.Name}
	for _, p := range fc.Stmts {
		s.StmtTotal++
		if p.Hits > 0 {
			s.StmtCovered++
			s.Called = true
		}
	}
	for _, d := range fc.Decisions {
		s.BranchTotal += 2
		if d.TrueHits > 0 {
			s.BranchCovered++
		}
		if d.FalseHits > 0 {
			s.BranchCovered++
		}
		for i := range d.Conds {
			s.CondTotal++
			if d.mcdcDemonstrated(i, mode) {
				s.CondDemonstrated++
			}
		}
	}
	for _, c := range fc.Cases {
		s.BranchTotal += 2
		if c.MatchSeen {
			s.BranchCovered++
		}
		if c.NoMatchSeen {
			s.BranchCovered++
		}
	}
	return s
}

// Recorder instruments many functions and fans interpreter events to the
// right FuncCoverage.
type Recorder struct {
	Funcs []*FuncCoverage
	hooks []cinterp.Hooks
}

// NewRecorder instruments the given function definitions.
func NewRecorder(fns []*ccast.FuncDecl, file string) *Recorder {
	r := &Recorder{}
	for _, fn := range fns {
		fc := Instrument(fn, file)
		r.Funcs = append(r.Funcs, fc)
		r.hooks = append(r.hooks, fc.Hooks())
	}
	return r
}

// NewRecorderIndexed instruments functions through the shared artifact
// cache: each function's memoized control-flow graph supplies the probe
// inventories, so repeated instrumentation (multiple coverage runs over
// one corpus) never re-traverses a body.
func NewRecorderIndexed(fas []*artifact.Func, file string) *Recorder {
	r := &Recorder{}
	for _, fa := range fas {
		fc := InstrumentGraph(fa.Decl, file, fa.CFG())
		r.Funcs = append(r.Funcs, fc)
		r.hooks = append(r.hooks, fc.Hooks())
	}
	return r
}

// NewRecorderForUnit instruments every function of one indexed unit.
// Combined with the incremental index this is the delta-aware coverage
// path: after artifact.Index.Apply, untouched units keep their Func
// records — and therefore their memoized CFGs — by pointer, so repeated
// recorder construction across corpus deltas re-traverses only the
// bodies of files that actually changed. Recorder state itself (hit
// counts, condition vectors) is fresh per call, as coverage runs must
// not leak into each other.
func NewRecorderForUnit(ix *artifact.Index, path string) *Recorder {
	return NewRecorderIndexed(ix.UnitFuncs(path), path)
}

// Hooks returns combined hooks dispatching to every instrumented function.
// Probe maps are disjoint (keyed by AST node pointers), so fan-out is safe.
func (r *Recorder) Hooks() cinterp.Hooks {
	return cinterp.Hooks{
		OnStmt: func(s ccast.Stmt) {
			for _, h := range r.hooks {
				h.OnStmt(s)
			}
		},
		OnDecision: func(owner ccast.Node, outcome bool) {
			for _, h := range r.hooks {
				h.OnDecision(owner, outcome)
			}
		},
		OnCondition: func(owner ccast.Node, leaf ccast.Expr, outcome bool) {
			for _, h := range r.hooks {
				h.OnCondition(owner, leaf, outcome)
			}
		},
		OnCase: func(c *ccast.CaseClause, matched bool) {
			for _, h := range r.hooks {
				h.OnCase(c, matched)
			}
		},
	}
}

// FileSummary aggregates function summaries for one file, optionally
// excluding functions that were never called (the paper's methodology).
func FileSummary(file string, funcs []*FuncCoverage, mode MCDCMode, excludeUncalled bool) *Summary {
	agg := &Summary{Scope: file}
	for _, fc := range funcs {
		s := fc.Summarize(mode)
		if excludeUncalled && !s.Called {
			continue
		}
		agg.Called = agg.Called || s.Called
		agg.StmtTotal += s.StmtTotal
		agg.StmtCovered += s.StmtCovered
		agg.BranchTotal += s.BranchTotal
		agg.BranchCovered += s.BranchCovered
		agg.CondTotal += s.CondTotal
		agg.CondDemonstrated += s.CondDemonstrated
	}
	return agg
}

// Average computes the unweighted mean of per-file percentages, matching
// how the paper reports "average coverage is 83%, 75% and 61%".
func Average(summaries []*Summary) (stmt, branch, mcdc float64) {
	if len(summaries) == 0 {
		return 0, 0, 0
	}
	for _, s := range summaries {
		stmt += s.StmtPct()
		branch += s.BranchPct()
		mcdc += s.MCDCPct()
	}
	n := float64(len(summaries))
	return stmt / n, branch / n, mcdc / n
}

// String renders a summary line.
func (s *Summary) String() string {
	return fmt.Sprintf("%s: stmt %.1f%% (%d/%d) branch %.1f%% (%d/%d) mcdc %.1f%% (%d/%d)",
		s.Scope, s.StmtPct(), s.StmtCovered, s.StmtTotal,
		s.BranchPct(), s.BranchCovered, s.BranchTotal,
		s.MCDCPct(), s.CondDemonstrated, s.CondTotal)
}
