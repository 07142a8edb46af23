package core

// ShardStat is the operator-facing summary of one corpus shard
// (module): how many files it owns, how many source bytes they hold,
// and how many findings the rule engine currently attributes to it.
// cmd/adassess prints these under -shards. A body edit's warm latency
// follows the edited file rather than its shard, and so does a
// name-changing delta's: the files reading a moved name only flip
// conditioned findings.
type ShardStat struct {
	Module   string
	Files    int
	Bytes    int
	Findings int
}

// ShardStats returns per-shard statistics in sorted module order. It
// runs (or reuses) the rule engine to attribute findings.
func (a *Assessor) ShardStats() []ShardStat {
	if a.fs == nil {
		return nil
	}
	a.runRules()
	out := make([]ShardStat, 0, len(a.fs.Modules()))
	for _, mod := range a.fs.Modules() {
		st := ShardStat{Module: mod, Findings: a.stats.ByModule[mod]}
		for _, f := range a.fs.ModuleFiles(mod) {
			st.Files++
			st.Bytes += len(f.Src)
		}
		out = append(out, st)
	}
	return out
}
