package store

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/srcfile"
)

// On-disk layout, one subdirectory per corpus:
//
//	<root>/<corpus>/snapshot   current snapshot (atomic tmp+rename)
//	<root>/<corpus>/journal    append-only delta journal
//	<root>/<corpus>/clean      clean-shutdown marker (empty journal
//	                           certified at the time it was written)

// Options tunes a data directory.
type Options struct {
	// MaxJournalBytes triggers compaction (snapshot + journal reset)
	// once the journal exceeds it; 0 means DefaultMaxJournalBytes.
	MaxJournalBytes int64
	// MaxJournalRecords likewise bounds the record count; 0 means
	// DefaultMaxJournalRecords. Compaction keys on whichever trips
	// first; negative disables that trigger.
	MaxJournalRecords int
}

// Compaction defaults: small enough that replay-on-boot stays a bounded
// fraction of snapshot load, large enough that steady-state deltas
// rarely pay a snapshot write.
const (
	DefaultMaxJournalBytes   = 8 << 20
	DefaultMaxJournalRecords = 1024
)

// corpusNameRE constrains corpus names once they become directory
// names. First character excludes '.' so names cannot traverse or hide.
var corpusNameRE = regexp.MustCompile(`^[A-Za-z0-9_-][A-Za-z0-9._-]{0,63}$`)

// ValidCorpusName reports whether a corpus name is usable as a store
// directory name.
func ValidCorpusName(name string) bool { return corpusNameRE.MatchString(name) }

// Dir manages one data directory holding any number of corpus stores.
type Dir struct {
	root string
	opts Options
}

// Open creates (if needed) and returns a data directory manager.
func Open(root string, opts Options) (*Dir, error) {
	if root == "" {
		return nil, errors.New("store: empty data directory")
	}
	if opts.MaxJournalBytes == 0 {
		opts.MaxJournalBytes = DefaultMaxJournalBytes
	}
	if opts.MaxJournalRecords == 0 {
		opts.MaxJournalRecords = DefaultMaxJournalRecords
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Dir{root: root, opts: opts}, nil
}

// Root returns the data directory path.
func (d *Dir) Root() string { return d.root }

// Corpora lists the corpus names holding a snapshot, sorted.
func (d *Dir) Corpora() ([]string, error) {
	ents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range ents {
		if !ent.IsDir() || !ValidCorpusName(ent.Name()) {
			continue
		}
		if _, err := os.Stat(filepath.Join(d.root, ent.Name(), "snapshot")); err == nil {
			out = append(out, ent.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Corpus opens the store of one corpus, creating its directory.
func (d *Dir) Corpus(name string) (*CorpusStore, error) {
	if !ValidCorpusName(name) {
		return nil, fmt.Errorf("store: corpus name %q is not storable (want %s)", name, corpusNameRE)
	}
	dir := filepath.Join(d.root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &CorpusStore{dir: dir, opts: d.opts}, nil
}

// CorpusStore is the persistent state of one corpus: its current
// snapshot and its delta journal. It is not safe for concurrent use;
// callers (the service) serialize on their per-corpus lock.
type CorpusStore struct {
	dir  string
	opts Options
	j    *Journal
	// gen is the generation tag of the current snapshot (0 = unknown /
	// no snapshot loaded or written yet). Appends stamp it into every
	// record; recovery skips records stamped for another generation.
	gen uint64
	// pendingReset marks a journal reset that failed after its snapshot
	// rename succeeded; retried before the next append. Stale records
	// are inert either way (wrong generation), this is only hygiene.
	pendingReset bool
	// metrics, when attached (SetMetrics), is forwarded to every journal
	// handle this store opens.
	metrics *JournalMetrics
}

func (cs *CorpusStore) snapshotPath() string { return filepath.Join(cs.dir, "snapshot") }
func (cs *CorpusStore) journalPath() string  { return filepath.Join(cs.dir, "journal") }
func (cs *CorpusStore) cleanPath() string    { return filepath.Join(cs.dir, "clean") }

// newGen draws a random nonzero generation tag.
func newGen() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, err
		}
		if g := binary.LittleEndian.Uint64(b[:]); g != 0 {
			return g, nil
		}
	}
}

// WriteSnapshot atomically persists a snapshot under a fresh generation
// and absorbs the journal into it: encode to a temp file, fsync, rename
// over the previous snapshot, fsync the directory, then reset the
// journal. An error implies the previous snapshot+journal pair is still
// authoritative (nothing was installed). Failures after the rename —
// the directory sync or the journal truncation — do not fail the write:
// any surviving journal records carry the superseded generation and are
// skipped on recovery, and the reset is retried before the next append.
// Shards the state copies from its base snapshot are copied verbatim
// (see EncodeSnapshot), so the write costs O(changed shards) plus the
// files section. Returns the encoded snapshot size.
func (cs *CorpusStore) WriteSnapshot(st *core.PersistedState) (int64, error) {
	gen, err := newGen()
	var raw []byte
	var copied, encoded int
	if err == nil {
		raw, copied, encoded, err = encodeSnapshot(st, gen)
	}
	if err == nil {
		err = cs.install(raw, gen)
	}
	if m := cs.metrics; m != nil {
		if err != nil {
			m.CompactionFailures.Inc()
		} else {
			m.Compactions.Inc()
			m.ShardsCopied.Add(int64(copied))
			m.ShardsEncoded.Add(int64(encoded))
		}
	}
	if err != nil {
		return 0, err
	}
	return int64(len(raw)), nil
}

// install makes raw the current snapshot under generation gen (the
// temp file, fsync, rename and directory fsync sequence of
// WriteSnapshot), then resets the journal.
func (cs *CorpusStore) install(raw []byte, gen uint64) error {
	tmp := cs.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, cs.snapshotPath()); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	// The snapshot is installed: from here on the new generation rules,
	// and remaining steps are best-effort hygiene.
	cs.gen = gen
	_ = syncDir(cs.dir)
	cs.pendingReset = cs.resetJournal() != nil
	return nil
}

// resetJournal truncates the journal (open handle or offline).
func (cs *CorpusStore) resetJournal() error {
	if cs.j != nil {
		return cs.j.Reset()
	}
	if _, err := os.Stat(cs.journalPath()); err != nil {
		return nil // nothing to reset
	}
	j, _, err := OpenJournal(cs.journalPath(), nil)
	if err != nil {
		return err
	}
	if err := j.Reset(); err != nil {
		_ = j.Close()
		return err
	}
	return j.Close()
}

// OpenCurrent opens the current snapshot lazily: framing and checksums
// are validated and the shard directory decoded, but shard blocks are
// left for first touch. Remembers the generation for journal appends
// and replay filtering.
func (cs *CorpusStore) OpenCurrent() (*Snapshot, int64, error) {
	all, err := readFileString(cs.snapshotPath())
	if err != nil {
		return nil, 0, err
	}
	snap, err := openSnapshot(all)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot %s: %w", cs.snapshotPath(), err)
	}
	cs.gen = snap.Gen()
	return snap, int64(len(all)), nil
}

// readFileString reads a file straight into the one string the snapshot
// decodes from: a boot allocates the snapshot's size once, not a []byte
// and then its string copy.
func readFileString(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }() // read-only: nothing to flush
	var sb strings.Builder
	if fi, err := f.Stat(); err == nil {
		sb.Grow(int(fi.Size()))
	}
	if _, err := io.Copy(&sb, f); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// RecoverInfo summarizes a boot-time recovery.
type RecoverInfo struct {
	// SnapshotBytes is the size of the snapshot that seeded the state.
	SnapshotBytes int64
	// Replayed is the number of journal records applied on top.
	Replayed int
	// Stale is the number of records skipped because they carry a
	// superseded snapshot generation (a journal reset that never landed
	// after its snapshot did; the records' effects are already inside
	// the snapshot or were discarded with the corpus they described).
	Stale int
	// Torn reports that a torn journal tail was dropped.
	Torn bool
	// Recomputed is the number of snapshot finding and metric blocks that
	// failed to decode at restore; each cache recomputes those shards on
	// first use (core.Assessor.RecomputedBlocks).
	Recomputed int
	// Clean reports that the previous process shut down cleanly (it
	// compacted, left an empty journal, and wrote the marker); a clean
	// boot replays nothing.
	Clean bool
}

// Recover rebuilds a warm assessor from the snapshot plus journal
// replay (torn tail tolerated), leaving the store positioned for
// further appends. The clean-shutdown marker is consumed: it certifies
// only the boot that finds it.
func (cs *CorpusStore) Recover(cfg core.Config) (*core.Assessor, *RecoverInfo, error) {
	snap, nbytes, err := cs.OpenCurrent()
	if err != nil {
		return nil, nil, err
	}
	a, err := core.RestoreAssessorFrom(cfg, snap)
	if err != nil {
		return nil, nil, err
	}
	info := &RecoverInfo{SnapshotBytes: nbytes, Recomputed: a.RecomputedBlocks(), Clean: cs.consumeClean()}
	j, rep, err := OpenJournal(cs.journalPath(), cs.replayInto(a, info))
	if err != nil {
		return nil, nil, err
	}
	j.SetMetrics(cs.metrics)
	cs.j = j
	info.Torn = rep.Torn
	if info.Replayed > 0 || info.Torn {
		info.Clean = false
	}
	return a, info, nil
}

// replayInto returns the journal apply callback: records stamped with
// the current snapshot generation apply to the assessor; records from a
// superseded generation are counted stale and skipped.
func (cs *CorpusStore) replayInto(a *core.Assessor, info *RecoverInfo) func(gen uint64, changed []*srcfile.File, removed []string) error {
	return func(gen uint64, changed []*srcfile.File, removed []string) error {
		if gen != cs.gen {
			info.Stale++
			return nil
		}
		if _, err := a.ApplyDelta(core.Delta{Changed: changed, Removed: removed}); err != nil {
			return err
		}
		info.Replayed++
		return nil
	}
}

// Append journals one committed delta under the current snapshot
// generation, syncing before return: Stage plus an immediate sync — the
// single-threaded commit hook (the differential harness and tests use
// it directly). The concurrent service stages under its corpus write
// lock and group-commits via SyncBarrier after releasing it.
func (cs *CorpusStore) Append(changed []*srcfile.File, removed []string) error {
	if err := cs.Stage(changed, removed); err != nil {
		return err
	}
	return cs.j.SyncTo(cs.j.Staged())
}

// Stage journals one committed delta under the current snapshot
// generation WITHOUT syncing. It is the natural core.Assessor commit
// hook for the concurrent service: the record hits the OS under the
// corpus write lock (commit order = journal order, so every fsync
// covers a prefix of committed deltas), and the handler makes it
// durable via SyncBarrier before acknowledging. Staging before any
// snapshot exists is an error: a record with no generation to anchor to
// could never replay safely.
func (cs *CorpusStore) Stage(changed []*srcfile.File, removed []string) error {
	if cs.gen == 0 {
		return fmt.Errorf("store: journal append before a snapshot exists in %s", cs.dir)
	}
	if cs.j == nil {
		j, _, err := OpenJournal(cs.journalPath(), nil)
		if err != nil {
			return err
		}
		j.SetMetrics(cs.metrics)
		cs.j = j
	}
	if cs.pendingReset {
		if err := cs.j.Reset(); err != nil {
			return err // stale records still inert; retried next append
		}
		cs.pendingReset = false
	}
	_, err := cs.j.Stage(cs.gen, changed, removed)
	return err
}

// SyncBarrier captures everything staged so far and returns a closure
// that blocks until it is durable, group-committing with concurrent
// barriers, then reports the cumulative fsync count. Callers capture
// the barrier while still holding their corpus lock (pinning the staged
// high-water mark to their own commit) and invoke it after release, so
// the fsync happens outside the lock and concurrent commits coalesce
// onto one fsync. With nothing staged (no journal open) the closure is
// a durable no-op.
func (cs *CorpusStore) SyncBarrier() func() (int64, error) {
	j := cs.j
	if j == nil {
		return func() (int64, error) { return 0, nil }
	}
	seq := j.Staged()
	return func() (int64, error) {
		err := j.SyncTo(seq)
		return j.Fsyncs(), err
	}
}

// ReadJournal scans the corpus's journal read-only (see the package
// function of the same name) — the inspection and crash-simulation
// path: nothing is truncated and no handle is kept.
func (cs *CorpusStore) ReadJournal(apply func(gen uint64, changed []*srcfile.File, removed []string) error) (JournalReplay, int64, error) {
	return ReadJournal(cs.journalPath(), apply)
}

// RecoverReadOnly rebuilds a warm assessor from the snapshot plus a
// read-only journal replay: unlike Recover it neither truncates torn
// tails, consumes the clean marker, nor keeps the journal open. The
// differential harness uses it to audit a live store mid-run.
func (cs *CorpusStore) RecoverReadOnly(cfg core.Config) (*core.Assessor, *RecoverInfo, error) {
	snap, nbytes, err := cs.OpenCurrent()
	if err != nil {
		return nil, nil, err
	}
	a, err := core.RestoreAssessorFrom(cfg, snap)
	if err != nil {
		return nil, nil, err
	}
	info := &RecoverInfo{SnapshotBytes: nbytes, Recomputed: a.RecomputedBlocks()}
	rep, _, err := cs.ReadJournal(cs.replayInto(a, info))
	if err != nil {
		return nil, nil, err
	}
	info.Torn = rep.Torn
	return a, info, nil
}

// JournalRecords returns the number of journaled records (0 when the
// journal was never opened).
func (cs *CorpusStore) JournalRecords() int {
	if cs.j == nil {
		return 0
	}
	return cs.j.Records()
}

// JournalBytes returns the journal's valid size in bytes.
func (cs *CorpusStore) JournalBytes() int64 {
	if cs.j == nil {
		return 0
	}
	return cs.j.Size()
}

// Fsyncs returns the cumulative record-durability fsync count of the
// open journal handle (0 when the journal was never opened). Unlike the
// record count it survives compaction resets, so fsyncs ÷ deltas over a
// load run measures how well group commit amortizes.
func (cs *CorpusStore) Fsyncs() int64 {
	if cs.j == nil {
		return 0
	}
	return cs.j.Fsyncs()
}

// ShouldCompact reports whether the journal has outgrown the
// configured thresholds and deserves absorbing into a fresh snapshot.
func (cs *CorpusStore) ShouldCompact() bool {
	if cs.j == nil {
		return false
	}
	if cs.opts.MaxJournalRecords > 0 && cs.j.Records() >= cs.opts.MaxJournalRecords {
		return true
	}
	return cs.opts.MaxJournalBytes > 0 && cs.j.Size() >= cs.opts.MaxJournalBytes
}

// CopyTo duplicates the corpus's on-disk state (snapshot and journal)
// into another corpus store. The differential harness uses it to
// crash-simulate against a scratch copy without touching the live
// store.
func (cs *CorpusStore) CopyTo(dst *CorpusStore) error {
	for _, name := range []string{"snapshot", "journal"} {
		raw, err := os.ReadFile(filepath.Join(cs.dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst.dir, name), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// MarkClean records a clean shutdown: callers compact first (so the
// journal is empty) and the marker certifies that the next boot needs
// no replay.
func (cs *CorpusStore) MarkClean() error {
	return os.WriteFile(cs.cleanPath(), []byte("clean\n"), 0o644)
}

// consumeClean reports and removes the clean-shutdown marker.
func (cs *CorpusStore) consumeClean() bool {
	if _, err := os.Stat(cs.cleanPath()); err != nil {
		return false
	}
	return os.Remove(cs.cleanPath()) == nil
}

// Close flushes and closes the journal handle.
func (cs *CorpusStore) Close() error {
	if cs.j == nil {
		return nil
	}
	err := cs.j.Sync()
	if cerr := cs.j.Close(); err == nil {
		err = cerr
	}
	cs.j = nil
	return err
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
