package report_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/iso26262"
	"repro/internal/report"
	"repro/internal/store"
)

// TestRenderedReportGolden pins the full rendered assessment report —
// summary, shard layout, Tables 1-3, observations, gap list — over a
// fixed corpusgen corpus against a golden file. Every section and its
// order is load-bearing: snapshot/restore work (or any engine refactor)
// that silently drops, reorders, or renumbers a section fails here.
// Regenerate with UPDATE_GOLDEN=1 after an intentional change.
func TestRenderedReportGolden(t *testing.T) {
	a := goldenAssessor(t)
	got := renderReport(a)

	golden := filepath.Join("testdata", "assessment_report.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("rendered report diverges from golden (UPDATE_GOLDEN=1 to regenerate after intentional changes):\n%s",
			firstLineDiff(string(want), got))
	}
}

// TestRenderedReportGoldenAfterRestore renders the identical report
// from a snapshot round-trip of the same assessor: the restored warm
// state must reproduce the golden byte-for-byte.
func TestRenderedReportGoldenAfterRestore(t *testing.T) {
	a := goldenAssessor(t)
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenSnapshot(store.EncodeSnapshot(st, 1))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "assessment_report.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Skipf("golden missing (run TestRenderedReportGolden with UPDATE_GOLDEN=1): %v", err)
	}
	if got := renderReport(restored); got != string(want) {
		t.Fatalf("restored assessor's rendered report diverges from golden:\n%s",
			firstLineDiff(string(want), got))
	}
}

func goldenAssessor(t *testing.T) *core.Assessor {
	t.Helper()
	gen := corpusgen.New(corpusgen.Params{Modules: 3, FilesPerModule: 4,
		FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}, 26262)
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(gen.FileSet()); err != nil {
		t.Fatal(err)
	}
	return a
}

// renderReport mirrors cmd/adassess's output shape over an assessor.
func renderReport(a *core.Assessor) string {
	var sb strings.Builder
	fw := a.Metrics()
	as := a.Assess()
	asil := as.Target

	fmt.Fprintf(&sb, "Corpus: %d files, %d LOC, %d functions across %d modules\n\n",
		fw.TotalFiles, fw.TotalLOC, fw.TotalFunc, len(fw.Modules))

	stats := a.ShardStats()
	sort.SliceStable(stats, func(i, j int) bool {
		if stats[i].Files != stats[j].Files {
			return stats[i].Files > stats[j].Files
		}
		return stats[i].Module < stats[j].Module
	})
	shardTable := report.NewTable(
		fmt.Sprintf("Shard layout — %d of %d module shards (largest first)", len(stats), len(stats)),
		"Shard", "Files", "Bytes", "Findings")
	for _, s := range stats {
		shardTable.AddRow(s.Module, s.Files, s.Bytes, s.Findings)
	}
	sb.WriteString(shardTable.String())
	sb.WriteString("\n")

	printTable := func(title string, group []iso26262.TopicAssessment) {
		tbl := report.NewTable(title, "#", "Topic", "Rec@"+asil.String(), "Verdict", "Violations", "Effort", "Evidence")
		for _, ta := range group {
			tbl.AddRow(ta.Topic.Item, ta.Topic.Name,
				ta.Topic.RecommendationFor(asil).String(),
				ta.Verdict.String(), ta.Violations, ta.Effort.String(), ta.Evidence)
		}
		sb.WriteString(tbl.String())
		sb.WriteString("\n")
	}
	printTable("Table 1 — Modeling/coding guidelines (ISO26262-6 Table 1)", as.Coding)
	printTable("Table 2 — Architectural design (ISO26262-6 Table 3)", as.Arch)
	printTable("Table 3 — Unit design & implementation (ISO26262-6 Table 8)", as.Unit)

	sb.WriteString("Observations (paper Section 3):\n")
	for _, o := range as.Observations {
		fmt.Fprintf(&sb, "  Observation %2d: %s\n                  evidence: %s\n", o.Number, o.Text, o.Evidence)
	}
	sb.WriteString("\n")

	gaps := as.Gaps()
	fmt.Fprintf(&sb, "Certification gaps at %s: %d topics block compliance\n", asil, len(gaps))
	for _, g := range gaps {
		fmt.Fprintf(&sb, "  - [T%d item %d] %s (%s, remediation: %s)\n",
			int(g.Topic.Table), g.Topic.Item, g.Topic.Name, g.Verdict, g.Effort)
	}
	return sb.String()
}

// firstLineDiff locates the first differing line for a readable failure.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(no line diff found — lengths differ?)"
}
