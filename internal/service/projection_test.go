package service

// White-box regression tests for the concurrent read path: /report and
// /findings must serve under the corpus READ lock from the
// generation-keyed cache of rendered bodies. A regression back to the
// write lock shows up here as a deadlock-timeout, not as a flaky timing
// assertion.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/srcfile"
)

func loadedState(t *testing.T) *corpusState {
	t.Helper()
	fs := srcfile.NewFileSet()
	fs.AddSource("m/a.c", "int ga;\nint fa(int x) { if (x > 0) { return 1; } return 0; }\n")
	fs.AddSource("n/b.c", "int fb(int x) { while (x > 0) { x--; } return x; }\n")
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	return &corpusState{a: a}
}

// reportOf and findingsOf serve st's cached bodies as the handlers do.
func reportOf(st *corpusState) []byte { return st.rendered(&st.projReport, reportBody, "c") }
func findingsOf(st *corpusState) []byte {
	return st.rendered(&st.projFindings, st.findings.render, "c")
}

// TestProjectionsServeUnderReadLock is the blocked-reader probe: a held
// read lock (a delta prepare in flight) must not block the report and
// findings renders — they take the read lock too. If either regresses
// to the write lock, the render never returns.
func TestProjectionsServeUnderReadLock(t *testing.T) {
	st := loadedState(t)
	st.mu.RLock()
	type rendered struct{ r, f []byte }
	done := make(chan rendered, 1)
	go func() {
		done <- rendered{reportOf(st), findingsOf(st)}
	}()
	var first rendered
	select {
	case first = <-done:
	case <-time.After(10 * time.Second):
		st.mu.RUnlock()
		t.Fatal("bodies blocked behind a held read lock: the read path takes the write lock")
	}
	st.mu.RUnlock()
	if len(first.r) == 0 || len(first.f) == 0 {
		t.Fatal("empty body")
	}

	// Same generation: the cached bodies are served as-is (one backing
	// array), so a read burst renders once.
	if unsafe.SliceData(reportOf(st)) != unsafe.SliceData(first.r) {
		t.Fatal("same-generation report was re-rendered: body memoization broken")
	}
	if unsafe.SliceData(findingsOf(st)) != unsafe.SliceData(first.f) {
		t.Fatal("same-generation findings were re-rendered: body memoization broken")
	}

	// A commit advances the assessor generation and must invalidate both
	// bodies — the fresh render must reflect the edit and must not reuse
	// the published arrays a handler may still be writing to a client.
	firstR, firstF := bytes.Clone(first.r), bytes.Clone(first.f)
	st.mu.Lock()
	_, err := st.a.ApplyDelta(core.Delta{Changed: []*srcfile.File{
		{Path: "m/a.c", Src: "int ga;\nint ga2;\nint fa(int x) { return x; }\n"},
	}})
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	second, secondF := reportOf(st), findingsOf(st)
	if unsafe.SliceData(second) == unsafe.SliceData(first.r) {
		t.Fatal("stale report body served after a state-changing commit")
	}
	if unsafe.SliceData(secondF) == unsafe.SliceData(first.f) {
		t.Fatal("stale findings body served after a state-changing commit")
	}
	if !bytes.Equal(first.r, firstR) || !bytes.Equal(first.f, firstF) {
		t.Fatal("a published body was written again after the commit")
	}
	var before, after ReportResponse
	if err := json.Unmarshal(first.r, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &after); err != nil {
		t.Fatal(err)
	}
	if after.Summary.LOC == before.Summary.LOC {
		t.Fatalf("fresh report does not reflect the committed edit (LOC %d unchanged)", after.Summary.LOC)
	}
}

// TestNoOpDeltaKeepsProjection pins the generation contract from the
// serving side: an all-unchanged delta fires no hook, bumps no
// generation, and therefore keeps both cached bodies valid.
func TestNoOpDeltaKeepsProjection(t *testing.T) {
	st := loadedState(t)
	first, firstF := reportOf(st), findingsOf(st)
	st.mu.Lock()
	res, err := st.a.ApplyDelta(core.Delta{Changed: []*srcfile.File{
		{Path: "m/a.c", Src: "int ga;\nint fa(int x) { if (x > 0) { return 1; } return 0; }\n"},
	}})
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unchanged != 1 || res.Parsed != 0 {
		t.Fatalf("delta result %+v, want a pure no-op", res)
	}
	if unsafe.SliceData(reportOf(st)) != unsafe.SliceData(first) {
		t.Fatal("no-op delta invalidated the report body")
	}
	if unsafe.SliceData(findingsOf(st)) != unsafe.SliceData(firstF) {
		t.Fatal("no-op delta invalidated the findings body")
	}
}
