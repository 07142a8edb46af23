package metrics

import (
	"sort"
	"strings"

	"repro/internal/artifact"
	"repro/internal/ccast"
)

// ArchMetrics captures the measurable architectural-design properties of
// ISO 26262-6 Table 3 (the paper's Table 2) for one module.
type ArchMetrics struct {
	Module string
	// MaxInterfaceParams is the largest parameter list exposed by any
	// function in the module ("restricted size of interfaces").
	MaxInterfaceParams  int
	MeanInterfaceParams float64
	// FanOut counts distinct other modules whose functions this module
	// calls ("restricted coupling").
	FanOut int
	// FanIn counts distinct other modules calling into this module.
	FanIn int
	// Cohesion is the fraction of resolved calls from this module that
	// stay within the module ("high cohesion"); 1.0 is fully cohesive.
	Cohesion float64
	// ExternalCalls / InternalCalls are the resolved call counts behind
	// Cohesion.
	InternalCalls int
	ExternalCalls int
	// ThreadPrimitives counts uses of threading/scheduling APIs
	// ("appropriate scheduling properties" evidence).
	ThreadPrimitives int
	// InterruptHandlers counts registered signal/interrupt handlers
	// ("restricted use of interrupts" evidence).
	InterruptHandlers int
}

// Hierarchy is the component tree: framework → module → file → function.
// Its existence (and machine-readability) evidences Table 2 item 1.
type Hierarchy struct {
	Modules []HierarchyModule
}

// HierarchyModule is one module's subtree.
type HierarchyModule struct {
	Name  string
	Files []HierarchyFile
}

// HierarchyFile is one file's function list.
type HierarchyFile struct {
	Path      string
	Functions []string
}

// schedulingAPIs are call targets that indicate thread/scheduler use.
var schedulingAPIs = map[string]bool{
	"pthread_create": true, "pthread_join": true, "pthread_setschedparam": true,
	"std::thread": true, "sched_setscheduler": true, "usleep": true,
	"sleep": true, "nanosleep": true, "sem_wait": true, "sem_post": true,
	"pthread_mutex_lock": true, "pthread_mutex_unlock": true,
}

// interruptAPIs are call targets that register signal/interrupt handlers.
var interruptAPIs = map[string]bool{
	"signal": true, "sigaction": true, "request_irq": true,
}

// AnalyzeArchIndexed computes architectural metrics from the shared
// artifact cache. The seed implementation re-walked every function body
// for its call expressions; the cached per-function call inventory makes
// this a pure aggregation pass with no AST traversals at all.
func AnalyzeArchIndexed(ix *artifact.Index) []*ArchMetrics {
	// Function name → defining module. Unqualified last path segment is
	// used, matching how the corpus calls across modules.
	funcModule := make(map[string]string, len(ix.ByName))
	for _, p := range ix.Paths {
		for _, fa := range ix.UnitFuncs(p) {
			funcModule[lastName(fa.Name)] = fa.Module
		}
	}

	type modState struct {
		am        *ArchMetrics
		sumPar    int
		nFuncs    int
		calls     map[string]int // callee module → count
		callersOf map[string]bool
	}
	mods := make(map[string]*modState)
	get := func(name string) *modState {
		ms := mods[name]
		if ms == nil {
			ms = &modState{am: &ArchMetrics{Module: name}, calls: make(map[string]int)}
			mods[name] = ms
		}
		return ms
	}

	for _, p := range ix.Paths {
		mod := ix.Units[p].File.ModuleName()
		ms := get(mod)
		for _, fa := range ix.UnitFuncs(p) {
			ms.nFuncs++
			ms.sumPar += fa.Params
			if fa.Params > ms.am.MaxInterfaceParams {
				ms.am.MaxInterfaceParams = fa.Params
			}
			for _, callee := range fa.Calls {
				if schedulingAPIs[callee] {
					ms.am.ThreadPrimitives++
				}
				if interruptAPIs[callee] {
					ms.am.InterruptHandlers++
				}
				if tgt, ok := funcModule[lastName(callee)]; ok {
					ms.calls[tgt]++
					if tgt == mod {
						ms.am.InternalCalls++
					} else {
						ms.am.ExternalCalls++
					}
				}
			}
		}
	}

	// Fan-in/fan-out and cohesion.
	for name, ms := range mods {
		for tgt := range ms.calls {
			if tgt != name {
				ms.am.FanOut++
				if other := mods[tgt]; other != nil {
					if other.callersOf == nil {
						other.callersOf = make(map[string]bool)
					}
					other.callersOf[name] = true
				}
			}
		}
	}
	var out []*ArchMetrics
	names := make([]string, 0, len(mods))
	for n := range mods {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ms := mods[n]
		ms.am.FanIn = len(ms.callersOf)
		total := ms.am.InternalCalls + ms.am.ExternalCalls
		if total > 0 {
			ms.am.Cohesion = float64(ms.am.InternalCalls) / float64(total)
		} else {
			ms.am.Cohesion = 1.0
		}
		if ms.nFuncs > 0 {
			ms.am.MeanInterfaceParams = float64(ms.sumPar) / float64(ms.nFuncs)
		}
		out = append(out, ms.am)
	}
	return out
}

// BuildHierarchy derives the component tree from parsed units.
func BuildHierarchy(units map[string]*ccast.TranslationUnit) *Hierarchy {
	byMod := make(map[string][]HierarchyFile)
	paths := make([]string, 0, len(units))
	for p := range units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		tu := units[p]
		hf := HierarchyFile{Path: p}
		for _, fn := range tu.Funcs() {
			hf.Functions = append(hf.Functions, fn.Name)
		}
		mod := tu.File.ModuleName()
		byMod[mod] = append(byMod[mod], hf)
	}
	h := &Hierarchy{}
	names := make([]string, 0, len(byMod))
	for n := range byMod {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Modules = append(h.Modules, HierarchyModule{Name: n, Files: byMod[n]})
	}
	return h
}

func lastName(qualified string) string {
	if i := strings.LastIndex(qualified, "::"); i >= 0 {
		return qualified[i+2:]
	}
	return qualified
}
