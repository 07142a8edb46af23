package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// LockOrder enforces the service layer's lock hierarchy from the
// sharded-store PR. Acquisition order is strictly rank-increasing:
//
//	rank 10  per-module locks    (corpusState.lockModules, held across a delta)
//	rank 20  corpusState.mu      (corpus RWMutex; prepares and projection
//	                              renders under RLock, commit under Lock)
//	rank 25  corpusState.projMu  (cached response bodies; serializes the
//	                              render, so it is NOT a leaf: the render
//	                              itself runs under it)
//	rank 30  corpusState.shardMu (leaf: guards the module-lock table only)
//	rank 40  Server.mu           (leaf: guards the corpora map only; reads
//	                              take RLock)
//
//	rank 50  Server.traceMu     (slow-request trace-log writer; innermost,
//	                              and the write under it is by design)
//
// Leaf locks additionally forbid acquiring ANY other lock and making
// any blocking call (fsync, snapshot writes, HTTP, store methods,
// obs.Registry registration — it takes the registry mutex and
// allocates) while held — they serialize every request on the server,
// so nothing slow may run under them. Recording into already-registered
// obs instruments (Counter.Inc, Histogram.Observe, ...) is lock-free
// atomic adds and is deliberately NOT flagged: that is the metrics
// hot-path contract the service layer relies on. The corpus lock deliberately permits
// blocking I/O: the write-ahead journal record is staged (written)
// under the corpus write lock so commit order equals journal order —
// only the group-commit fsync moved outside the lock, via the sync
// barrier the delta handler captures before releasing it — and
// snapshot writes run under it too. Only ordering is enforced there.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforces module-lock -> corpus-RWMutex -> projMu -> leaf (shardMu, Server.mu) acquisition order " +
		"and forbids blocking I/O under the leaf locks",
	Run: runLockOrder,
}

// lockInfo ranks one registered mutex field.
type lockInfo struct {
	rank int
	leaf bool // nothing may be acquired and no blocking call made while held
}

// lockRegistry keys are "<recv-pkg-base>.<recv-type>.<field>".
var lockRegistry = map[string]lockInfo{
	"service.corpusState.mu":      {rank: 20},
	"service.corpusState.projMu":  {rank: 25},
	"service.corpusState.shardMu": {rank: 30, leaf: true},
	"service.Server.mu":           {rank: 40, leaf: true},
	"service.Server.traceMu":      {rank: 50},
}

// moduleLockRank is the rank taken by corpusState.lockModules, which
// acquires the per-module locks (sorted internally, so mutual ordering
// among modules is its own invariant, pinned by test).
const moduleLockRank = 10

// held is one acquired lock during the linear scan.
type held struct {
	key      string // printable identity, e.g. "st.mu"
	info     lockInfo
	pos      token.Pos
	deferred bool // released by a defer: held to function end by design
}

func runLockOrder(pass *analysis.Pass) error {
	if pkgBase(pass.Pkg.Path()) != "service" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			s := &lockScan{pass: pass}
			s.block(fn.Body.List)
			return true
		})
	}
	return nil
}

type lockScan struct {
	pass *analysis.Pass
	held []held
	// unlockers maps objects of `unlock := st.lockModules(...)` results
	// to the held entry they release.
	unlockers map[types.Object]string
}

// block scans statements linearly. Nested control flow is scanned with
// a snapshot of the held set and its effects on the set are discarded
// afterwards — conditional lock handoff is not an idiom this codebase
// allows, and the scan stays conservative inside the branch itself.
func (s *lockScan) block(stmts []ast.Stmt) {
	for _, st := range stmts {
		s.stmt(st)
	}
}

func (s *lockScan) stmt(st ast.Stmt) {
	switch v := st.(type) {
	case *ast.ExprStmt:
		s.expr(v.X, false)
	case *ast.DeferStmt:
		s.deferCall(v.Call)
	case *ast.GoStmt:
		// A goroutine launched while holding locks does not inherit
		// them; scan its literal body with an empty held set.
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			sub := &lockScan{pass: s.pass}
			sub.block(lit.Body.List)
		}
	case *ast.AssignStmt:
		for _, r := range v.Rhs {
			s.expr(r, false)
		}
		// unlock := st.lockModules(paths)
		if len(v.Rhs) == 1 && len(v.Lhs) == 1 {
			if call, ok := ast.Unparen(v.Rhs[0]).(*ast.CallExpr); ok && s.isLockModules(call) {
				if obj := identObj(s.pass.TypesInfo, v.Lhs[0]); obj != nil {
					if s.unlockers == nil {
						s.unlockers = make(map[types.Object]string)
					}
					s.unlockers[obj] = "modules"
				}
			}
		}
	case *ast.IfStmt:
		if v.Init != nil {
			s.stmt(v.Init)
		}
		s.expr(v.Cond, false)
		s.branch(v.Body.List)
		if v.Else != nil {
			s.branch([]ast.Stmt{v.Else})
		}
	case *ast.ForStmt:
		s.branch(v.Body.List)
	case *ast.RangeStmt:
		s.expr(v.X, false)
		s.branch(v.Body.List)
	case *ast.SwitchStmt:
		for _, cc := range v.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				s.branch(cl.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range v.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				s.branch(cl.Body)
			}
		}
	case *ast.BlockStmt:
		s.block(v.List)
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			s.expr(r, false)
		}
	}
}

// branch scans nested statements against a snapshot of the held set.
func (s *lockScan) branch(stmts []ast.Stmt) {
	saved := make([]held, len(s.held))
	copy(saved, s.held)
	s.block(stmts)
	s.held = saved
}

// expr walks an expression for lock operations and blocking calls.
func (s *lockScan) expr(e ast.Expr, deferred bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		s.call(call, deferred)
		return true
	})
}

func (s *lockScan) call(call *ast.CallExpr, deferred bool) {
	// unlock() from a previous lockModules.
	if obj := identObj(s.pass.TypesInfo, call.Fun); obj != nil && s.unlockers[obj] != "" {
		s.release(s.unlockers[obj], deferred)
		return
	}
	if s.isLockModules(call) {
		s.acquire("modules", lockInfo{rank: moduleLockRank}, call.Pos())
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		s.maybeBlocking(call)
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		key, info, registered := s.lockIdent(sel)
		if !registered {
			if isSyncLockable(s.pass.TypesInfo, sel.X) {
				// Unregistered mutex (e.g. a module lock pulled out of
				// the table): only constraint is leaf-innermost.
				s.checkLeafHeld(call.Pos(), exprString(sel.X))
			}
			return
		}
		s.acquireRegistered(key, info, call.Pos())
	case "Unlock", "RUnlock":
		key, _, registered := s.lockIdent(sel)
		if registered {
			s.release(key, deferred)
		}
	default:
		s.maybeBlocking(call)
	}
}

// acquireRegistered checks ordering then records the acquisition.
func (s *lockScan) acquireRegistered(key string, info lockInfo, pos token.Pos) {
	for _, h := range s.held {
		if h.key == key {
			s.pass.Reportf(pos, "acquiring %s while already holding it (self-deadlock)", key)
			return
		}
		if h.info.leaf {
			s.pass.Reportf(pos,
				"acquiring %s while holding leaf lock %s; leaf locks (shardMu, Server.mu) must be innermost", key, h.key)
			return
		}
		if info.rank <= h.info.rank {
			s.pass.Reportf(pos,
				"lock order violation: acquiring %s (rank %d) while holding %s (rank %d); order is modules < corpus mu < projMu < shardMu < Server.mu",
				key, info.rank, h.key, h.info.rank)
			return
		}
	}
	s.acquire(key, info, pos)
}

func (s *lockScan) acquire(key string, info lockInfo, pos token.Pos) {
	if key == "modules" {
		for _, h := range s.held {
			if h.info.leaf {
				s.pass.Reportf(pos, "acquiring module locks while holding leaf lock %s", h.key)
				return
			}
			if moduleLockRank <= h.info.rank {
				s.pass.Reportf(pos,
					"lock order violation: module locks (rank %d) must be acquired before %s (rank %d)",
					moduleLockRank, h.key, h.info.rank)
				return
			}
		}
	}
	s.held = append(s.held, held{key: key, info: info, pos: pos})
}

func (s *lockScan) release(key string, deferred bool) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].key == key {
			if deferred {
				s.held[i].deferred = true
				return
			}
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

// deferCall handles `defer x.Unlock()` / `defer unlock()` — the lock
// stays held to function end legitimately — and scans other deferred
// calls as potential blocking work (they run with whatever is held at
// return, which the linear scan approximates as the current set).
func (s *lockScan) deferCall(call *ast.CallExpr) {
	if obj := identObj(s.pass.TypesInfo, call.Fun); obj != nil && s.unlockers[obj] != "" {
		s.release(s.unlockers[obj], true)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
			if key, _, registered := s.lockIdent(sel); registered {
				s.release(key, true)
			}
			return
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.branch(lit.Body.List)
		return
	}
	s.maybeBlocking(call)
}

// lockIdent resolves sel (x.mu.Lock -> x.mu) against the registry.
func (s *lockScan) lockIdent(sel *ast.SelectorExpr) (key string, info lockInfo, ok bool) {
	fieldSel, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", lockInfo{}, false
	}
	selection := s.pass.TypesInfo.Selections[fieldSel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return "", lockInfo{}, false
	}
	recv, isNamed := namedOf(selection.Recv())
	if !isNamed || recv.Obj().Pkg() == nil {
		return "", lockInfo{}, false
	}
	regKey := pkgBase(recv.Obj().Pkg().Path()) + "." + recv.Obj().Name() + "." + fieldSel.Sel.Name
	li, registered := lockRegistry[regKey]
	if !registered {
		return "", lockInfo{}, false
	}
	return exprString(fieldSel), li, true
}

func (s *lockScan) isLockModules(call *ast.CallExpr) bool {
	obj := calleeObj(s.pass.TypesInfo, call)
	if obj == nil {
		return false
	}
	pkg, recv, name, ok := methodInfo(obj)
	return ok && pkg == "service" && recv == "corpusState" && name == "lockModules"
}

// checkLeafHeld reports if any leaf lock is currently held.
func (s *lockScan) checkLeafHeld(pos token.Pos, what string) {
	for _, h := range s.held {
		if h.info.leaf {
			s.pass.Reportf(pos, "acquiring %s while holding leaf lock %s; leaf locks must be innermost", what, h.key)
			return
		}
	}
}

// maybeBlocking flags slow or I/O calls made while a leaf lock is held.
func (s *lockScan) maybeBlocking(call *ast.CallExpr) {
	var leaf *held
	for i := range s.held {
		if s.held[i].info.leaf {
			leaf = &s.held[i]
			break
		}
	}
	if leaf == nil {
		return
	}
	obj := calleeObj(s.pass.TypesInfo, call)
	if obj == nil {
		return
	}
	if name, blocking := blockingCall(obj); blocking {
		s.pass.Reportf(call.Pos(),
			"blocking call %s while holding leaf lock %s; leaf locks serialize the whole server — do I/O outside them",
			name, leaf.key)
	}
}

// blockingCall classifies callees that can block on I/O or heavy work.
var blockingRecvPkgs = map[string]bool{"os": true, "http": true, "store": true}
var blockingCoreMethods = map[string]bool{
	"Assess": true, "CommitDelta": true, "PrepareDelta": true,
	"ExportState": true, "LoadDir": true, "LoadFileSet": true, "LoadDefaultCorpus": true,
}

func blockingCall(obj types.Object) (string, bool) {
	if pkg, recv, name, ok := methodInfo(obj); ok {
		if blockingRecvPkgs[pkg] {
			return recv + "." + name, true
		}
		// Registry methods (registration, exposition) take the registry
		// mutex and allocate; only the per-instrument record methods are
		// lock-free and leaf-safe.
		if pkg == "obs" && recv == "Registry" {
			return recv + "." + name, true
		}
		if pkg == "core" && blockingCoreMethods[name] {
			return recv + "." + name, true
		}
		if pkg == "service" && name == "persist" {
			return recv + "." + name, true
		}
		return "", false
	}
	switch funcPkgBase(obj) {
	case "os", "http":
		return obj.Name(), true
	case "time":
		if obj.Name() == "Sleep" {
			return "time.Sleep", true
		}
	}
	return "", false
}

// isSyncLockable reports whether e's type is sync.Mutex or sync.RWMutex
// (through a pointer).
func isSyncLockable(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	name, ok := typeFrom(t, "sync")
	return ok && (name == "Mutex" || name == "RWMutex")
}
