package store

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/srcfile"
)

// Journal format, version 1.
//
//	magic  "ADJRNL01"                           (8 bytes)
//	record*
//	  length u32 LE   (payload bytes)
//	  crc32  u32 LE   (IEEE, over the payload)
//	  payload [length]byte
//	payload:
//	  op u8 (1 = delta)
//	  gen varint (the snapshot generation the delta applies to)
//	  nChanged varint; per change: path, module, src (strings)
//	  nRemoved varint; per removal: path
//
// Appends write one record with a single write(2) followed by fsync, so
// an acknowledged record is durable and a crash mid-append leaves at
// most one torn record at the physical tail. Replay walks records until
// the first length/CRC violation; a violation at the tail is the
// expected torn-write signature and is reported (not an error), and the
// journal is truncated back to the last good record before any further
// append.
//
// Group commit splits an append into its two halves: Stage issues the
// write(2) (callers serialize stages — the service holds the corpus
// write lock) and SyncTo makes a staged prefix durable with a
// leader/follower fsync batch — the first waiter syncs once on behalf
// of every record staged before its fsync started, and concurrent
// /delta writers therefore coalesce onto one fsync instead of paying
// one each. Durability semantics are unchanged: a record is
// acknowledged only after SyncTo covers it, records are staged in
// commit order so every fsync covers a prefix, and a crash still leaves
// at most a torn suffix of never-acknowledged records.

const (
	journalMagic     = "ADJRNL01"
	journalRecordHdr = 8
	opDelta          = 1
	// maxJournalRecord bounds a single record (and therefore a decode
	// allocation) at slightly above the service's request-body cap.
	maxJournalRecord = 64 << 20
)

// Journal is an open, append-positioned delta journal. Stage calls must
// be serialized by the caller (records are laid out back to back);
// SyncTo, Reset, and every accessor are safe for concurrent use against
// them — the group-commit state below is guarded by mu.
type Journal struct {
	f    *os.File
	path string

	mu      sync.Mutex
	size    int64 // bytes of magic + valid records
	records int   // valid records on disk
	// staged counts records ever staged through this handle and durable
	// the prefix of them made durable — by a SyncTo fsync, or by a
	// Reset absorbing them into an already-fsync'd snapshot. Both are
	// monotonic (Reset does not rewind them; they number records, not
	// bytes), so a sequence returned by Stage stays meaningful across
	// compactions.
	staged  int64
	durable int64
	// syncing is the in-flight fsync batch, nil when no leader is
	// syncing. Followers wait on done; upTo is the staged sequence the
	// batch covers.
	syncing *syncBatch
	// fsyncs counts the fsyncs issued to make records durable (one per
	// Append; group commit amortizes it below one per record). Header
	// writes and resets are not counted: the metric answers "how many
	// fsyncs did acknowledged deltas cost".
	fsyncs int64
	// metrics, when attached, mirrors stage/fsync activity into the
	// serving layer's registry (nil disables; the instruments are
	// lock-free atomics, recorded under mu only for a consistent read of
	// the field itself).
	metrics *JournalMetrics
}

// SetMetrics attaches (or with nil detaches) observability instruments.
func (j *Journal) SetMetrics(m *JournalMetrics) {
	j.mu.Lock()
	j.metrics = m
	j.mu.Unlock()
}

// syncBatch is one leader fsync and the waiters it covers.
type syncBatch struct {
	done chan struct{}
	upTo int64
	err  error
}

// JournalReplay reports what opening a journal found.
type JournalReplay struct {
	// Records is the number of valid records replayed.
	Records int
	// Torn reports whether a torn (incomplete or corrupt) tail was
	// dropped — the crash-mid-append signature.
	Torn bool
}

// ReadJournal scans the journal at path read-only, replaying every
// valid record through apply (which may be nil) in append order with
// the generation it was appended against, and returns what it found
// plus the valid byte length. A missing journal is an empty one.
// Nothing on disk is modified — inspection tooling (cmd/adstore) uses
// this directly; OpenJournal adds the truncate-and-append positioning
// on top.
func ReadJournal(path string, apply func(gen uint64, changed []*srcfile.File, removed []string) error) (JournalReplay, int64, error) {
	var rep JournalReplay
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return rep, 0, nil
	case err != nil:
		return rep, 0, err
	}
	if len(raw) == 0 {
		return rep, 0, nil
	}
	if len(raw) < len(journalMagic) {
		// A crash during the very first header write leaves a short
		// file that provably holds no complete record: the torn-write
		// case, not corruption — recovery proceeds from the snapshot
		// alone and the header is rewritten before the next append.
		rep.Torn = true
		return rep, 0, nil
	}
	if string(raw[:len(journalMagic)]) != journalMagic {
		return rep, 0, fmt.Errorf("%w: bad journal magic in %s", errCorrupt, path)
	}
	off := len(journalMagic)
	valid := int64(off)
	for off < len(raw) {
		if len(raw)-off < journalRecordHdr {
			rep.Torn = true
			break
		}
		n := int(getU32(raw[off:]))
		sum := getU32(raw[off+4:])
		if n > maxJournalRecord || len(raw)-off-journalRecordHdr < n {
			rep.Torn = true
			break
		}
		payload := raw[off+journalRecordHdr : off+journalRecordHdr+n]
		if crc(payload) != sum {
			rep.Torn = true
			break
		}
		gen, changed, removed, derr := decodeDeltaRecord(payload)
		if derr != nil {
			// A checksummed record that does not decode is not a torn
			// write but a format problem: refuse rather than drop data.
			return rep, valid, fmt.Errorf("journal %s record %d: %w", path, rep.Records+1, derr)
		}
		if apply != nil {
			if aerr := apply(gen, changed, removed); aerr != nil {
				return rep, valid, fmt.Errorf("journal %s record %d: replay: %w", path, rep.Records+1, aerr)
			}
		}
		off += journalRecordHdr + n
		valid = int64(off)
		rep.Records++
	}
	return rep, valid, nil
}

// OpenJournal opens (creating if absent) the journal at path, replaying
// every valid record through apply in append order. A torn tail is
// truncated so subsequent appends extend the last good record. An apply
// error aborts the open.
func OpenJournal(path string, apply func(gen uint64, changed []*srcfile.File, removed []string) error) (*Journal, JournalReplay, error) {
	rep, valid, err := ReadJournal(path, apply)
	if err != nil {
		return nil, rep, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, rep, err
	}
	j := &Journal{f: f, path: path, size: valid, records: rep.Records}
	if valid == 0 {
		if err := j.writeHeader(); err != nil {
			_ = f.Close()
			return nil, rep, err
		}
	} else if rep.Torn {
		// Drop the torn tail before any further append.
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return nil, rep, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, rep, err
		}
	}
	return j, rep, nil
}

func (j *Journal) writeHeader() error {
	if _, err := j.f.WriteAt([]byte(journalMagic), 0); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.mu.Lock()
	j.size = int64(len(journalMagic))
	j.records = 0
	j.mu.Unlock()
	return nil
}

// Stage writes one delta record at the tail WITHOUT syncing and returns
// its staged sequence for a later SyncTo. The record is not durable —
// and must not be acknowledged — until SyncTo covers the sequence.
// Callers serialize Stage calls (the service holds the corpus write
// lock across the commit that stages). A delta encoding above the
// replay limit is rejected up front: appending it would succeed but
// replay would misread it as a torn tail and silently truncate it away
// — an explicit error (which aborts the commit, state untouched)
// instead of acknowledged-then-lost data. A failed write likewise
// leaves the tail position unadvanced, so the next stage overwrites any
// partial bytes and replay sees at worst a torn tail.
func (j *Journal) Stage(gen uint64, changed []*srcfile.File, removed []string) (int64, error) {
	payload := encodeDeltaRecord(gen, changed, removed)
	if len(payload) > maxJournalRecord {
		return 0, fmt.Errorf("store: delta record of %d bytes exceeds the %d-byte journal record limit", len(payload), maxJournalRecord)
	}
	rec := make([]byte, journalRecordHdr+len(payload))
	putU32(rec, uint32(len(payload)))
	putU32(rec[4:], crc(payload))
	copy(rec[journalRecordHdr:], payload)
	j.mu.Lock()
	off := j.size
	j.mu.Unlock()
	if _, err := j.f.WriteAt(rec, off); err != nil {
		return 0, err
	}
	j.mu.Lock()
	j.size = off + int64(len(rec))
	j.records++
	j.staged++
	seq := j.staged
	m := j.metrics
	j.mu.Unlock()
	if m != nil {
		m.Staged.Inc()
	}
	return seq, nil
}

// SyncTo blocks until the staged sequence seq is durable, group-
// committing with every other concurrent SyncTo: if an fsync is already
// in flight the caller waits for it, and the first waiter that finds no
// fsync in flight becomes the leader and syncs once on behalf of every
// record staged so far. An error means seq's durability is unknown —
// callers must not acknowledge the record.
func (j *Journal) SyncTo(seq int64) error {
	j.mu.Lock()
	for j.durable < seq {
		if b := j.syncing; b != nil {
			// Follower: wait out the in-flight batch. If it failed and
			// covered us, our durability is unknown; if it covered only
			// earlier records, loop and sync (or wait) again.
			j.mu.Unlock()
			<-b.done
			if b.err != nil && b.upTo >= seq {
				return b.err
			}
			j.mu.Lock()
			continue
		}
		b := &syncBatch{done: make(chan struct{}), upTo: j.staged}
		j.syncing = b
		j.mu.Unlock()
		b.err = j.f.Sync()
		j.mu.Lock()
		j.syncing = nil
		j.fsyncs++
		if m := j.metrics; m != nil {
			m.Fsyncs.Inc()
			if b.err == nil && b.upTo > j.durable {
				m.BatchRecords.Observe(b.upTo - j.durable)
			}
		}
		if b.err == nil && b.upTo > j.durable {
			j.durable = b.upTo
		}
		close(b.done)
		if b.err != nil {
			j.mu.Unlock()
			return b.err
		}
	}
	j.mu.Unlock()
	return nil
}

// Staged returns the sequence of the most recently staged record (0
// before any stage) — the argument a caller passes to SyncTo to cover
// everything it has staged so far.
func (j *Journal) Staged() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.staged
}

// Fsyncs returns the cumulative number of record-durability fsyncs this
// journal handle has issued (never reset, not even by Reset): the
// denominator half of the fsyncs-per-delta load metric is the delta
// count, this is the numerator.
func (j *Journal) Fsyncs() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fsyncs
}

// Reset discards every record (a fresh snapshot absorbed them) and
// syncs the truncation. Every staged record becomes durable by
// absorption — the snapshot that triggered the reset was fsync'd with
// those records' deltas applied — so in-flight SyncTo waiters are
// satisfied even though the records themselves are gone.
func (j *Journal) Reset() error {
	j.mu.Lock()
	j.durable = j.staged
	j.mu.Unlock()
	if err := j.f.Truncate(int64(len(journalMagic))); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.mu.Lock()
	j.size = int64(len(journalMagic))
	j.records = 0
	j.mu.Unlock()
	return nil
}

// Records returns the number of records currently journaled.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Size returns the journal's valid byte size (header + records).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Sync flushes the journal file to stable storage (appends already sync
// record-by-record; this is the belt-and-braces flush on shutdown).
func (j *Journal) Sync() error { return j.f.Sync() }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

func encodeDeltaRecord(gen uint64, changed []*srcfile.File, removed []string) []byte {
	var e enc
	e.byte(opDelta)
	e.uvarint(gen)
	e.int(len(changed))
	for _, f := range changed {
		e.string(f.Path)
		e.string(f.Module)
		e.string(f.Src)
	}
	e.strings(removed)
	return e.buf
}

func decodeDeltaRecord(payload []byte) (gen uint64, changed []*srcfile.File, removed []string, err error) {
	// The copy detaches the decoded strings from the (reusable) record
	// buffer; journal records are delta-sized, so this is cheap.
	d := &dec{buf: string(payload)}
	if op := d.byte(); d.err == nil && op != opDelta {
		return 0, nil, nil, fmt.Errorf("%w: unknown journal op %d", errCorrupt, op)
	}
	gen = d.uvarint()
	n := d.length()
	for i := 0; i < n && d.err == nil; i++ {
		changed = append(changed, &srcfile.File{
			Path:   d.string(),
			Module: d.string(),
			Src:    d.string(),
		})
	}
	removed = d.stringsList()
	if err := d.done(); err != nil {
		return 0, nil, nil, err
	}
	return gen, changed, removed, nil
}
