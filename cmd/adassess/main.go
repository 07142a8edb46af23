// Command adassess runs the full ISO 26262 Part-6 assessment over the
// calibrated Apollo-like corpus — or over a real C/C++/CUDA tree via
// -dir — and prints the paper's Tables 1-3 (with verdicts and
// quantitative evidence), Observations 1-14, the Figure 4 CUDA
// findings, and the certification gap list.
//
// Usage:
//
//	adassess [-asil D] [-table 1|2|3|all] [-dir PATH] [-figure4] [-obs] [-gaps] [-csv] [-shards N]
//
// -shards prints per-shard (module) statistics — files, source bytes,
// findings — for operator visibility into shard balance (a warm delta's
// latency follows the files it edits): N > 0 shows the N largest shards
// by file count, -1 shows all, 0 (default) disables the table.
//
// Flags are validated before any work happens: bad values exit 2 with a
// message on stderr and no partial output. Runtime failures exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/core"
	"repro/internal/iso26262"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adassess: %v\n", err)
		os.Exit(code)
	}
}

func run() (int, error) {
	asilFlag := flag.String("asil", "D", "target ASIL (QM, A, B, C, D)")
	tableFlag := flag.String("table", "all", "which table to print: 1, 2, 3, or all")
	dirFlag := flag.String("dir", "", "assess a real C/C++/CUDA source tree instead of the generated corpus")
	fig4Flag := flag.Bool("figure4", false, "print the Figure 4 CUDA excerpt findings")
	obsFlag := flag.Bool("obs", true, "print Observations 1-14")
	gapsFlag := flag.Bool("gaps", true, "print the certification gap list")
	traceFlag := flag.Bool("trace", false, "print the requirement-to-checker traceability matrix")
	csvFlag := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	seedFlag := flag.Int64("seed", 26262, "corpus generation seed")
	shardsFlag := flag.Int("shards", 0, "print per-shard (module) stats: N largest shards, -1 for all, 0 to disable")
	cpuProfileFlag := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfileFlag := flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	flag.Parse()

	// Validate every flag before doing any work.
	asil, err := iso26262.ParseASIL(*asilFlag)
	if err != nil {
		return 2, err
	}
	switch *tableFlag {
	case "1", "2", "3", "all":
	default:
		return 2, fmt.Errorf("unknown -table %q (want 1, 2, 3, or all)", *tableFlag)
	}
	if *shardsFlag < -1 {
		return 2, fmt.Errorf("-shards must be -1 (all), 0 (off), or a positive count (got %d)", *shardsFlag)
	}
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	// Profiling covers everything from corpus load through the rendered
	// report — the cold-path pipeline the benchmarks measure.
	if *cpuProfileFlag != "" {
		f, err := os.Create(*cpuProfileFlag)
		if err != nil {
			return 1, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return 1, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfileFlag != "" {
		defer func() {
			f, err := os.Create(*memProfileFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "adassess: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the dump
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "adassess: -memprofile: %v\n", err)
			}
		}()
	}

	cfg := core.DefaultConfig()
	cfg.TargetASIL = asil
	cfg.Seed = *seedFlag

	a := core.NewAssessor(cfg)
	if *dirFlag != "" {
		fmt.Printf("Loading and parsing %s...\n", *dirFlag)
		if err := a.LoadDir(*dirFlag); err != nil {
			return 1, err
		}
	} else {
		fmt.Println("Generating and parsing the Apollo-like corpus...")
		if err := a.LoadDefaultCorpus(); err != nil {
			return 1, err
		}
	}
	fw := a.Metrics()
	fmt.Printf("Corpus: %d files, %d LOC, %d functions across %d modules\n\n",
		fw.TotalFiles, fw.TotalLOC, fw.TotalFunc, len(fw.Modules))

	as := a.Assess()

	emit := func(t *report.Table) {
		if *csvFlag {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}
	printTable := func(title string, group []iso26262.TopicAssessment) {
		t := report.NewTable(title, "#", "Topic", "Rec@"+asil.String(), "Verdict", "Violations", "Effort", "Evidence")
		for _, ta := range group {
			t.AddRow(ta.Topic.Item, ta.Topic.Name,
				ta.Topic.RecommendationFor(asil).String(),
				ta.Verdict.String(), ta.Violations, ta.Effort.String(), ta.Evidence)
		}
		emit(t)
	}

	if *shardsFlag != 0 {
		stats := a.ShardStats()
		// Largest shards first (by files, ties by module name) — the
		// imbalance view.
		sort.SliceStable(stats, func(i, j int) bool {
			if stats[i].Files != stats[j].Files {
				return stats[i].Files > stats[j].Files
			}
			return stats[i].Module < stats[j].Module
		})
		shown := stats
		if *shardsFlag > 0 && *shardsFlag < len(stats) {
			shown = stats[:*shardsFlag]
		}
		t := report.NewTable(
			fmt.Sprintf("Shard layout — %d of %d module shards (largest first)", len(shown), len(stats)),
			"Shard", "Files", "Bytes", "Findings")
		for _, s := range shown {
			t.AddRow(s.Module, s.Files, s.Bytes, s.Findings)
		}
		emit(t)
	}

	if *tableFlag == "1" || *tableFlag == "all" {
		printTable("Table 1 — Modeling/coding guidelines (ISO26262-6 Table 1)", as.Coding)
	}
	if *tableFlag == "2" || *tableFlag == "all" {
		printTable("Table 2 — Architectural design (ISO26262-6 Table 3)", as.Arch)
	}
	if *tableFlag == "3" || *tableFlag == "all" {
		printTable("Table 3 — Unit design & implementation (ISO26262-6 Table 8)", as.Unit)
	}

	if *fig4Flag {
		findings, err := core.Figure4()
		if err != nil {
			return 1, err
		}
		t := report.NewTable("Figure 4 — findings on the scale_bias_gpu CUDA excerpt",
			"Line", "Rule", "Finding")
		for _, f := range findings {
			t.AddRow(f.Line, f.Rule, f.Msg)
		}
		emit(t)
	}

	if *obsFlag {
		fmt.Println("Observations (paper Section 3):")
		for _, o := range as.Observations {
			fmt.Printf("  Observation %2d: %s\n                  evidence: %s\n", o.Number, o.Text, o.Evidence)
		}
		fmt.Println()
	}

	if *traceFlag {
		fmt.Println("Traceability matrix (requirement → checker → findings → regeneration):")
		trace.Render(os.Stdout, trace.Build(a.Findings()))
		fmt.Println()
	}

	if *gapsFlag {
		gaps := as.Gaps()
		fmt.Printf("Certification gaps at %s: %d topics block compliance\n", asil, len(gaps))
		for _, g := range gaps {
			fmt.Printf("  - [%s item %d] %s (%s, remediation: %s)\n",
				tableName(g.Topic.Table), g.Topic.Item, g.Topic.Name, g.Verdict, g.Effort)
		}
	}
	return 0, nil
}

func tableName(t iso26262.TableID) string {
	switch t {
	case iso26262.TableCoding:
		return "T1"
	case iso26262.TableArch:
		return "T3"
	default:
		return "T8"
	}
}
