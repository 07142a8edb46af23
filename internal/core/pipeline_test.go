package core

import (
	"runtime"
	"testing"
)

// forceParallel raises GOMAXPROCS so the pipeline's worker pools spawn
// real goroutines even on single-core runners (the -race gate must cover
// the concurrent paths).
func forceParallel(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestPipelineDeterministic runs the full parallel pipeline twice and
// requires identical findings, metrics, and verdicts — the top-level
// determinism gate over the concurrent frontend, fused rule engine, and
// parallel metrics (run under -race in CI).
func TestPipelineDeterministic(t *testing.T) {
	forceParallel(t)
	run := func() (*Assessor, *Assessment) {
		a := NewAssessor(DefaultConfig())
		if err := a.LoadDefaultCorpus(); err != nil {
			t.Fatal(err)
		}
		return a, a.Assess()
	}
	a1, as1 := run()
	a2, as2 := run()

	f1, f2 := a1.Findings(), a2.Findings()
	if len(f1) != len(f2) {
		t.Fatalf("finding counts differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].String() != f2[i].String() || f1[i].Severity != f2[i].Severity ||
			f1[i].Module != f2[i].Module || f1[i].Function != f2[i].Function {
			t.Fatalf("finding %d differs: %s vs %s", i, f1[i].String(), f2[i].String())
		}
	}

	m1, m2 := a1.Metrics(), a2.Metrics()
	if m1.TotalLOC != m2.TotalLOC || m1.TotalFunc != m2.TotalFunc ||
		m1.ModerateOrWorse != m2.ModerateOrWorse || len(m1.Files()) != len(m2.Files()) {
		t.Fatalf("metrics differ: %+v vs %+v", m1, m2)
	}
	for i := range m1.Files() {
		if m1.Files()[i].Path != m2.Files()[i].Path || m1.Files()[i].NLOC != m2.Files()[i].NLOC {
			t.Fatalf("file metrics %d differ", i)
		}
	}

	ar1, ar2 := a1.Arch(), a2.Arch()
	if len(ar1) != len(ar2) {
		t.Fatalf("arch module counts differ: %d vs %d", len(ar1), len(ar2))
	}
	for i := range ar1 {
		if *ar1[i] != *ar2[i] {
			t.Fatalf("arch metrics differ for %s: %+v vs %+v", ar1[i].Module, ar1[i], ar2[i])
		}
	}

	for i := range as1.Coding {
		if as1.Coding[i] != as2.Coding[i] {
			t.Fatalf("coding verdict %d differs", i)
		}
	}
	for i := range as1.Arch {
		if as1.Arch[i] != as2.Arch[i] {
			t.Fatalf("arch verdict %d differs", i)
		}
	}
	for i := range as1.Unit {
		if as1.Unit[i] != as2.Unit[i] {
			t.Fatalf("unit verdict %d differs", i)
		}
	}
	for i := range as1.Observations {
		if as1.Observations[i] != as2.Observations[i] {
			t.Fatalf("observation %d differs", i)
		}
	}
}

// TestSharedIndexReused checks the artifact cache is built once per load
// and shared by every pipeline stage.
func TestSharedIndexReused(t *testing.T) {
	a := NewAssessor(DefaultConfig())
	if err := a.LoadDefaultCorpus(); err != nil {
		t.Fatal(err)
	}
	ix := a.Index()
	a.Findings()
	a.Metrics()
	a.Arch()
	if a.Index() != ix {
		t.Fatal("index rebuilt between stages")
	}
	if len(ix.ByName) == 0 {
		t.Fatal("index empty")
	}
	// Reloading must invalidate the cache.
	if err := a.LoadDefaultCorpus(); err != nil {
		t.Fatal(err)
	}
	if a.Index() == ix {
		t.Fatal("index not invalidated by reload")
	}
}
