package store

import "repro/internal/obs"

// JournalMetrics carries the store-level instruments the serving layer
// registers and attaches via CorpusStore.SetMetrics. Every field may be
// nil (obs instruments are nil-safe), and a nil *JournalMetrics as a
// whole disables instrumentation — the store never registers metrics
// itself, so embedded uses (tests, adstore, the differential harness)
// pay nothing.
type JournalMetrics struct {
	// Staged counts journal records staged (one per non-empty commit).
	Staged *obs.Counter
	// Fsyncs counts record-durability fsyncs issued (group commit
	// amortizes this below one per record).
	Fsyncs *obs.Counter
	// BatchRecords observes, per fsync, how many staged records that
	// fsync newly made durable — the group-commit batch size.
	BatchRecords *obs.Histogram
	// Compactions counts snapshots WriteSnapshot installed (each absorbs
	// the journal) and CompactionFailures the writes that failed before
	// installing anything.
	Compactions        *obs.Counter
	CompactionFailures *obs.Counter
	// ShardsCopied and ShardsEncoded count, over installed snapshots, the
	// shards whose blocks were copied verbatim from the restored snapshot
	// and the shards encoded afresh.
	ShardsCopied  *obs.Counter
	ShardsEncoded *obs.Counter
}

// SetMetrics attaches (or with nil detaches) journal instruments,
// forwarding to the open journal handle and to any handle the store
// opens later.
func (cs *CorpusStore) SetMetrics(m *JournalMetrics) {
	cs.metrics = m
	if cs.j != nil {
		cs.j.SetMetrics(m)
	}
}
