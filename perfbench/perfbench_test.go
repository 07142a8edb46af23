package main

import (
	"path/filepath"
	"testing"
)

// counts are the per-layer metrics that count work rather than time it;
// two traced runs of one seed must report the same values.
var counts = []string{
	"ccparse.files_parsed", "artifact.dirty_shards", "rules.files_rechecked",
	"rules.recheck_per_changed_file", "metrics.files_recomputed",
	"store.journal_records", "store.compactions", "store.snapshot_mb",
}

func runBrief(t *testing.T, workload string, trace, wrong bool) *result {
	t.Helper()
	dir := t.TempDir()
	res, diag, err := execute(options{
		workload: workload, seed: 26262, seconds: 1, trace: trace, wrong: wrong,
		workDir: filepath.Join(dir, "work"), spans: filepath.Join(dir, "spans.jsonl"),
	})
	if err != nil {
		t.Fatalf("%s: %v\n%v", workload, err, diag)
	}
	return res
}

func checkMetrics(t *testing.T, workload string, res *result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: %s has unit %q, want %q", workload, d.name, m.Unit, d.unit)
		case positive && m.Value <= 0:
			t.Errorf("%s: %s = %v, want > 0", workload, d.name, m.Value)
		}
	}
}

func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload on the 10k-file corpus")
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			// A seeded wrong answer is one failed op, and the run still
			// prints every end-to-end metric.
			res := runBrief(t, w, false, true)
			checkMetrics(t, w, res, endToEnd, true)
			if res.Correct || res.Failed != 1 {
				t.Errorf("seeded wrong answer: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
			}

			// The unmodified program answers everything right, the traced
			// run prints every per-layer metric, and its counts repeat.
			first := runBrief(t, w, true, false)
			second := runBrief(t, w, true, false)
			for _, r := range []*result{first, second} {
				checkMetrics(t, w, r, perLayer, false)
				if !r.Correct || r.Failed != 0 {
					t.Errorf("traced run: correct=%v failed=%d of %d", r.Correct, r.Failed, r.Attempted)
				}
			}
			for _, name := range counts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s: %s is %v then %v", w, name, a, b)
				}
			}
			// A body edit re-checks its own file; a name change re-checks
			// the whole corpus.
			rechecked := first.Metrics["rules.files_rechecked"].Value
			if (w == "edit-10k" && rechecked != 1) || (w == "rename-10k" && rechecked < 10000) {
				t.Errorf("%s re-checks %v files per delta", w, rechecked)
			}
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 30 || pct != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75", v, pct)
	}
	if v, pct := tail(xs[:10]); v != 0 || pct != 0 {
		t.Errorf("tail of ten samples = %v at p%v, want none", v, pct)
	}
}

func TestSpanNesting(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Name: "rules.walk", Start: 10, End: 60},
		{Op: 1, ID: 2, Parent: 0, Name: "metrics.arch", Start: 60, End: 90},
	}
	r := analyzeSpans(spans)
	if r.violations != 0 || r.selfMs["client"] != 20e-6 || r.selfMs["rules"] != 50e-6 {
		t.Errorf("well-nested spans: violations=%d self=%v", r.violations, r.selfMs)
	}
	spans[2].End = 120 // child outlives its parent
	if r := analyzeSpans(spans); r.violations == 0 {
		t.Error("a child ending after its parent was not reported")
	}
}
