package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// replayDelta applies one delta to an in-process assessor through the
// calls the service's /delta handler makes (prepare, commit, assess,
// compaction when due, sync barrier), with a span around each, and adds
// what the program reports to the run's accumulator. cs is nil when the
// delta is not journaled.
func (b *bench) replayDelta(a *core.Assessor, cs *store.CorpusStore, d delta, tr *tracer) error {
	prep := tr.begin("core.prepare")
	pd, err := a.PrepareDelta(coreDelta(d.req))
	tr.end(prep)
	if err != nil {
		return err
	}
	commit := tr.begin("core.commit")
	t0 := time.Now()
	res, err := a.CommitDelta(pd)
	commitNs := time.Since(t0).Nanoseconds()
	tr.end(commit)
	if err != nil {
		return err
	}
	// Stubs left after the commit that the assessment re-parses
	// (hydration) are parse work too.
	stubs := a.StubUnits()
	tr.reported(prep, "ccparse.parse", res.ParseNs, false)
	tr.reported(commit, "store.journal_stage", res.HookNs, true)

	s := tr.begin("rules.walk")
	a.Findings()
	tr.end(s)
	s = tr.begin("metrics.framework")
	a.Metrics()
	tr.end(s)
	s = tr.begin("metrics.arch")
	a.Arch()
	tr.end(s)
	s = tr.begin("core.verdicts")
	a.Assess()
	tr.end(s)

	acc := &b.acc
	if cs != nil {
		if cs.ShouldCompact() {
			s = tr.begin("core.export")
			st, err := a.ExportState()
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("store.snapshot_write")
			_, err = cs.WriteSnapshot(st)
			tr.end(s)
			if err != nil {
				return err
			}
			acc.compactions++
		}
		s = tr.begin("store.sync_barrier")
		_, err := cs.SyncBarrier()()
		tr.end(s)
		if err != nil {
			return err
		}
	}

	acc.ops++
	acc.deltas++
	acc.parsed += res.Parsed + stubs - a.StubUnits()
	acc.changed += res.Parsed + res.Removed
	acc.parseNs += res.ParseNs
	acc.parseBytes += int64(d.bytes)
	acc.applyNs += commitNs - res.HookNs
	acc.dirty += res.DirtyShards
	acc.rechecked += a.RuleFilesChecked()
	acc.recomputed += a.MetricFilesComputed()
	return errIf(a.Stats().Total != d.wantTotal, "replayed delta leaves %d findings, want %d", a.Stats().Total, d.wantTotal)
}
