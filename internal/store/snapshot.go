package store

import (
	"fmt"
	"slices"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/iso26262"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// Snapshot format, version 2.
//
//	magic   "ADSNAP01"                         (8 bytes)
//	version u32 little-endian                  (= 2)
//	section*                                   (one per tag, any order)
//	  tag      u8      ('H', 'D', 'F', 'U', 'R', 'M')
//	  length   u32 LE  (payload bytes)
//	  payload  [length]byte
//	  crc32    u32 LE  (IEEE, over the payload)
//
// Sections: H carries the snapshot generation, the target ASIL, and
// the rule-set fingerprint; F the corpus files (insertion order). The
// remaining state is partitioned by module shard — the same partition
// the artifact index derives from the files — and laid out as
// concatenated per-shard blocks:
//
//	U  per shard: the shard's unit facts in sorted path order;
//	R  per shard: one finding list per path (positional — paths come
//	   from the shard's U block), then one trailing corpus-level block;
//	M  per shard: one metric row per path (positional).
//
// D is the shard directory: for every shard its module, file count, a
// signature slot, and the (offset, length) extents of its U, R, and M
// blocks inside those sections, plus the extent of the corpus finding
// block in R. The signature slot (a presence flag and two varints) is
// retired: writers mark it absent with zeros and readers skip it, so
// snapshots whose slots carry signatures still restore. The directory
// makes every shard's blocks reachable without scanning: a restore
// decodes them one shard per worker, and a write copies an unchanged
// shard's blocks verbatim.
//
// Every section must appear exactly once and is CRC-checked eagerly at
// open, so no block decode reads unchecksummed bytes. Integers
// inside payloads are unsigned varints; strings are length-prefixed
// bytes. Any truncation, bit flip, or trailing garbage fails open with
// a wrapped "corrupt data" error.
//
// The generation is a random nonzero 64-bit tag drawn per snapshot
// write; journal records carry the generation they were appended
// against, and recovery skips records whose generation does not match
// the snapshot's — so a journal that outlives its snapshot (crash or
// I/O failure between the snapshot rename and the journal truncation)
// can never replay onto state it does not describe.

const (
	snapMagic   = "ADSNAP01"
	snapVersion = 2
)

var snapTags = []byte{'H', 'D', 'F', 'U', 'R', 'M'}

// Extent locates one shard's block inside a section payload.
type Extent struct {
	Off int
	Len int
}

// SnapShard is one shard directory entry.
type SnapShard struct {
	// Module is the shard key.
	Module string
	// Files is the number of unit paths (and finding lists, and metric
	// rows) in the shard's blocks.
	Files int
	// Units, Findings, Metrics are the shard's block extents inside the
	// U, R, and M section payloads respectively.
	Units    Extent
	Findings Extent
	Metrics  Extent
}

// shardBlocks is one shard's U, R and M blocks as they land in a
// snapshot: freshly encoded (enc) or copied verbatim from the shard's
// stored blocks (raw); exactly one of the two is set.
type shardBlocks struct {
	files int
	enc   [3][]byte
	raw   [3]string
}

func (b *shardBlocks) size(i int) int { return len(b.enc[i]) + len(b.raw[i]) }

func (b *shardBlocks) appendTo(e *enc, i int) {
	e.buf = append(e.buf, b.enc[i]...)
	e.buf = append(e.buf, b.raw[i]...)
}

// EncodeSnapshot renders a persisted state into the versioned binary
// snapshot format under the given generation tag. It panics when the
// state is incomplete (a shard without its blocks whose finding lists
// or metric rows do not match its units); every state ExportState
// returns is complete.
func EncodeSnapshot(st *core.PersistedState, gen uint64) []byte {
	raw, _, _, err := encodeSnapshot(st, gen)
	if err != nil {
		panic(fmt.Sprintf("store: EncodeSnapshot: %v", err))
	}
	return raw
}

// encodeSnapshot renders st and reports how many shards it copied
// verbatim and how many it encoded. A shard carrying its stored blocks
// (Encoded) is copied block for block: they are what a fresh encode of
// the same shard writes. Every other shard is encoded from its units,
// finding lists and metric rows. Each section is sized from its parts
// before it is filled, so the output is one allocation.
func encodeSnapshot(st *core.PersistedState, gen uint64) ([]byte, int, int, error) {
	// Shards are independent: encode (or take) each one's blocks on a
	// worker pool into private buffers; the sequential fill below lays
	// them out in state order.
	blocks := make([]shardBlocks, len(st.Shards))
	errs := make([]error, len(st.Shards))
	par.For(par.Workers(len(blocks)), len(blocks), func(k int) {
		ps, b := &st.Shards[k], &blocks[k]
		if ps.Encoded != nil {
			b.files, b.raw = ps.Encoded.Files, ps.Encoded.Blocks
			return
		}
		errs[k] = encodeShard(ps, b)
	})
	copied := 0
	for k, err := range errs {
		if err != nil {
			return nil, 0, 0, err
		}
		if st.Shards[k].Encoded != nil {
			copied++
		}
	}
	var corpus enc
	encodeFindings(&corpus, st.CorpusFindings)

	var h enc
	h.uvarint(gen)
	h.int(int(st.Target))
	h.strings(st.RuleIDs)

	var d enc
	var sizes [3]int
	d.int(len(blocks))
	for k := range blocks {
		b := &blocks[k]
		d.string(st.Shards[k].Module)
		d.int(b.files)
		// The retired signature slot: absent, zeros.
		d.bool(false)
		d.uvarint(0)
		d.uvarint(0)
		for i := range sizes {
			d.int(sizes[i])
			d.int(b.size(i))
			sizes[i] += b.size(i)
		}
	}
	d.int(sizes[1])
	d.int(len(corpus.buf))
	sizes[1] += len(corpus.buf)

	fSize := filesSize(st.Files)
	total := len(snapMagic) + 4
	for _, n := range []int{len(h.buf), len(d.buf), fSize, sizes[0], sizes[1], sizes[2]} {
		total += 1 + 4 + n + 4
	}
	out := enc{buf: make([]byte, 0, total)}
	out.buf = append(out.buf, snapMagic...)
	out.u32(snapVersion)
	// section frames one payload: the length is patched in after the
	// fill, so the sizes above only ever size the buffer.
	section := func(tag byte, fill func()) {
		out.byte(tag)
		out.u32(0)
		at := len(out.buf)
		fill()
		putU32(out.buf[at-4:], uint32(len(out.buf)-at))
		out.u32(crc(out.buf[at:]))
	}
	section('H', func() { out.buf = append(out.buf, h.buf...) })
	section('D', func() { out.buf = append(out.buf, d.buf...) })
	section('F', func() { encodeFiles(&out, st.Files) })
	for i, tag := range []byte{'U', 'R', 'M'} {
		section(tag, func() {
			for k := range blocks {
				blocks[k].appendTo(&out, i)
			}
			if tag == 'R' {
				out.buf = append(out.buf, corpus.buf...)
			}
		})
	}
	return out.buf, copied, len(blocks) - copied, nil
}

// encodeShard encodes one shard's U, R and M blocks.
func encodeShard(ps *core.PersistedShard, b *shardBlocks) error {
	ufs, fss, rows := ps.Units, ps.Findings, ps.Rows
	if len(fss) != len(ufs) || len(rows) != len(ufs) || slices.Contains(rows, nil) {
		return fmt.Errorf("shard %q has %d units, %d finding lists and %d metric rows", ps.Module, len(ufs), len(fss), len(rows))
	}
	var u, r, mm enc
	for i := range ufs {
		encodeUnit(&u, &ufs[i])
		encodeFindings(&r, fss[i])
		encodeMetricRow(&mm, rows[i])
	}
	b.files = len(ufs)
	b.enc = [3][]byte{u.buf, r.buf, mm.buf}
	return nil
}

// encodeFiles writes the F section payload: the corpus files in
// insertion order.
func encodeFiles(e *enc, files []core.PersistedFile) {
	e.int(len(files))
	for i := range files {
		pf := &files[i]
		e.string(pf.Path)
		e.string(pf.Module)
		e.byte(byte(pf.Lang))
		e.string(pf.Src)
	}
}

// filesSize is the exact length encodeFiles writes.
func filesSize(files []core.PersistedFile) int {
	n := uvarintLen(uint64(len(files)))
	for i := range files {
		pf := &files[i]
		n += stringLen(pf.Path) + stringLen(pf.Module) + 1 + stringLen(pf.Src)
	}
	return n
}

// Snapshot is an opened snapshot: opening one validates every section
// checksum and decodes the header and shard directory. State decodes
// the rest in one parallel pass, which makes a Snapshot a
// core.StateSource for core.RestoreAssessorFrom.
//
// All decoded strings are zero-copy views into the snapshot buffer;
// holding any of them (the restored corpus does) pins the buffer,
// which is dominated by the sources the corpus needs resident anyway.
type Snapshot struct {
	gen     uint64
	target  iso26262.ASIL
	ruleIDs []string

	// Section payloads as views of the one raw string, plus their
	// absolute offsets in the snapshot (for inspection tooling).
	fRaw, uRaw, rRaw, mRaw     string
	fBase, uBase, rBase, mBase int

	shards []SnapShard
	corpus Extent
}

// OpenSnapshot parses a snapshot's framing: magic, version, section
// checksums, header, and shard directory. No shard block is decoded.
func OpenSnapshot(raw []byte) (*Snapshot, error) {
	return openSnapshot(string(raw))
}

// openSnapshot is OpenSnapshot over the whole snapshot as one string:
// every decoded string is a zero-copy view into it.
func openSnapshot(all string) (*Snapshot, error) {
	if len(all) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: snapshot shorter than its header", errCorrupt)
	}
	if all[:len(snapMagic)] != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", errCorrupt)
	}
	if v := getU32s(all[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d (this build reads %d)", v, snapVersion)
	}
	type section struct {
		payload string
		base    int
	}
	// Walk the framing first (cheap), then verify every section checksum
	// on a worker pool: the eager CRC pass is most of the cost of opening
	// a large snapshot and the sections are independent.
	type rawSection struct {
		tag     byte
		payload string
		want    uint32
	}
	var raws []rawSection
	sections := make(map[byte]section, len(snapTags))
	off := len(snapMagic) + 4
	for off < len(all) {
		if len(all)-off < 1+4 {
			return nil, fmt.Errorf("%w: truncated section header", errCorrupt)
		}
		tag := all[off]
		n := int(getU32s(all[off+1:]))
		off += 5
		if n < 0 || len(all)-off < n+4 {
			return nil, fmt.Errorf("%w: truncated section %q", errCorrupt, tag)
		}
		base := off
		off += n
		raws = append(raws, rawSection{tag: tag, payload: all[base:off], want: getU32s(all[off:])})
		off += 4
		if _, dup := sections[tag]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", errCorrupt, tag)
		}
		sections[tag] = section{payload: all[base : off-4], base: base}
	}
	crcErrs := make([]error, len(raws))
	par.For(par.Workers(len(raws)), len(raws), func(i int) {
		if got := crcString(raws[i].payload); got != raws[i].want {
			crcErrs[i] = fmt.Errorf("%w: section %q checksum mismatch (%08x != %08x)", errCorrupt, raws[i].tag, got, raws[i].want)
		}
	})
	for _, err := range crcErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, tag := range snapTags {
		if _, ok := sections[tag]; !ok {
			return nil, fmt.Errorf("%w: missing section %q", errCorrupt, tag)
		}
	}

	s := &Snapshot{
		fRaw: sections['F'].payload, fBase: sections['F'].base,
		uRaw: sections['U'].payload, uBase: sections['U'].base,
		rRaw: sections['R'].payload, rBase: sections['R'].base,
		mRaw: sections['M'].payload, mBase: sections['M'].base,
	}

	h := &dec{buf: sections['H'].payload}
	s.gen = h.uvarint()
	s.target = iso26262.ASIL(h.int())
	s.ruleIDs = h.stringsList()
	if err := h.done(); err != nil {
		return nil, fmt.Errorf("snapshot header: %w", err)
	}

	d := &dec{buf: sections['D'].payload}
	n := d.int()
	if d.err == nil && n > len(d.buf) {
		// A shard entry is well over a byte; bound the allocation.
		d.fail("shard count exceeds directory size")
	}
	s.shards = make([]SnapShard, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		sh := SnapShard{
			Module: d.string(),
			Files:  d.int(),
		}
		// Skip the retired signature slot (present or not).
		d.bool()
		d.uvarint()
		d.uvarint()
		sh.Units = Extent{d.int(), d.int()}
		sh.Findings = Extent{d.int(), d.int()}
		sh.Metrics = Extent{d.int(), d.int()}
		s.shards = append(s.shards, sh)
	}
	s.corpus = Extent{d.int(), d.int()}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot directory: %w", err)
	}
	seen := make(map[string]bool, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		if seen[sh.Module] {
			return nil, fmt.Errorf("%w: duplicate shard %q in directory", errCorrupt, sh.Module)
		}
		if !extentOK(sh.Units, len(s.uRaw)) || !extentOK(sh.Findings, len(s.rRaw)) || !extentOK(sh.Metrics, len(s.mRaw)) {
			return nil, fmt.Errorf("%w: shard %q extent out of section bounds", errCorrupt, sh.Module)
		}
		seen[sh.Module] = true
	}
	if !extentOK(s.corpus, len(s.rRaw)) {
		return nil, fmt.Errorf("%w: corpus finding extent out of section bounds", errCorrupt)
	}
	return s, nil
}

func extentOK(e Extent, n int) bool {
	return e.Off >= 0 && e.Len >= 0 && e.Off <= n && e.Len <= n-e.Off
}

// Gen returns the snapshot's generation tag.
func (s *Snapshot) Gen() uint64 { return s.gen }

// Target returns the snapshotted target ASIL.
func (s *Snapshot) Target() iso26262.ASIL { return s.target }

// RuleIDs returns the snapshotted rule-set fingerprint.
func (s *Snapshot) RuleIDs() []string { return s.ruleIDs }

// Directory returns the shard directory (a copy; offsets are relative
// to their section payloads — see SectionBounds for the absolutes).
func (s *Snapshot) Directory() []SnapShard {
	out := make([]SnapShard, len(s.shards))
	copy(out, s.shards)
	return out
}

// CorpusExtent returns the corpus-level finding block's extent inside
// the R section.
func (s *Snapshot) CorpusExtent() Extent { return s.corpus }

// SectionBounds returns the absolute snapshot offset and size of the
// U, R, and M section payloads ('U', 'R', 'M'; zeroes otherwise).
func (s *Snapshot) SectionBounds(tag byte) (base, size int) {
	switch tag {
	case 'F':
		return s.fBase, len(s.fRaw)
	case 'U':
		return s.uBase, len(s.uRaw)
	case 'R':
		return s.rBase, len(s.rRaw)
	case 'M':
		return s.mBase, len(s.mRaw)
	}
	return 0, 0
}

// Files decodes and returns the corpus files.
func (s *Snapshot) Files() ([]core.PersistedFile, error) {
	files, err := decodeBlock(s.fRaw, -1, func(d *dec, _ int) core.PersistedFile {
		return core.PersistedFile{
			Path:   d.string(),
			Module: d.string(),
			Lang:   srcfile.Language(d.byte()),
			Src:    d.string(),
		}
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot files: %w", err)
	}
	return files, nil
}

// State decodes the whole snapshot: the files and the corpus finding
// block, then every shard's blocks on a worker pool, one shard per
// worker. Each shard carries its stored blocks as Encoded. A finding or
// metric block that fails to decode leaves that shard's Findings or
// Rows nil, for the restore to recompute; a unit block, the files or
// the corpus block that fails to decode is an error.
func (s *Snapshot) State() (*core.PersistedState, error) {
	files, err := s.Files()
	if err != nil {
		return nil, err
	}
	d := &dec{buf: s.rRaw[s.corpus.Off : s.corpus.Off+s.corpus.Len]}
	corpus := decodeFindings(d)
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot corpus findings: %w", err)
	}
	st := &core.PersistedState{Target: s.target, RuleIDs: s.ruleIDs, Files: files,
		Shards: make([]core.PersistedShard, len(s.shards)), CorpusFindings: corpus}
	errs := make([]error, len(s.shards))
	par.For(par.Workers(len(s.shards)), len(s.shards), func(k int) {
		errs[k] = s.decodeShard(&s.shards[k], &st.Shards[k])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// decodeShard decodes one directory entry's blocks into ps.
func (s *Snapshot) decodeShard(sh *SnapShard, ps *core.PersistedShard) error {
	e := &core.EncodedShard{Files: sh.Files, Blocks: [3]string{
		s.uRaw[sh.Units.Off : sh.Units.Off+sh.Units.Len],
		s.rRaw[sh.Findings.Off : sh.Findings.Off+sh.Findings.Len],
		s.mRaw[sh.Metrics.Off : sh.Metrics.Off+sh.Metrics.Len],
	}}
	ufs, err := decodeBlock(e.Blocks[0], sh.Files, func(d *dec, _ int) artifact.UnitFacts { return decodeUnit(d) })
	if err != nil {
		return fmt.Errorf("snapshot shard %q units: %w", sh.Module, err)
	}
	*ps = core.PersistedShard{Module: sh.Module, Units: ufs, Encoded: e}
	ps.Findings, _ = decodeBlock(e.Blocks[1], sh.Files, func(d *dec, _ int) []rules.Finding { return decodeFindings(d) })
	// Rows are positional on the wire: each takes its path from the unit
	// block.
	ps.Rows, _ = decodeBlock(e.Blocks[2], sh.Files, func(d *dec, i int) *metrics.FileMetrics { return decodeMetricRow(d, ufs[i].Path) })
	return nil
}

// decodeBlock decodes a block of n entries (n < 0: a length-prefixed
// block), requiring it to be consumed exactly.
func decodeBlock[T any](raw string, n int, one func(d *dec, i int) T) ([]T, error) {
	d := &dec{buf: raw}
	if n < 0 {
		n = d.length()
	}
	// Every entry takes at least one byte: bound the allocation.
	out := make([]T, 0, min(n, len(raw)))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, one(d, i))
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

func encodeUnit(e *enc, uf *artifact.UnitFacts) {
	e.string(uf.Path)
	e.int(len(uf.Funcs))
	for k := range uf.Funcs {
		ft := &uf.Funcs[k]
		e.string(ft.Name)
		e.bool(ft.Void)
		e.int(ft.Line)
		e.int(ft.Params)
		e.int(ft.CCN)
		e.int(ft.Returns)
		e.strings(ft.Calls)
	}
	e.strings(uf.Globals)
}

func decodeUnit(d *dec) artifact.UnitFacts {
	uf := artifact.UnitFacts{Path: d.string()}
	nf := d.length()
	if nf > 0 {
		uf.Funcs = make([]artifact.FuncFacts, 0, nf)
	}
	for k := 0; k < nf && d.err == nil; k++ {
		uf.Funcs = append(uf.Funcs, artifact.FuncFacts{
			Name:    d.string(),
			Void:    d.bool(),
			Line:    d.int(),
			Params:  d.int(),
			CCN:     d.int(),
			Returns: d.int(),
			Calls:   d.stringsList(),
		})
	}
	uf.Globals = d.stringsList()
	return uf
}

func encodeFindings(e *enc, fs []rules.Finding) {
	e.int(len(fs))
	for i := range fs {
		fd := &fs[i]
		e.string(fd.RuleID)
		e.byte(byte(fd.Severity))
		e.string(fd.File)
		e.string(fd.Module)
		e.int(fd.Line)
		e.string(fd.Msg)
		e.string(fd.Function)
		e.int(len(fd.Refs))
		for _, ref := range fd.Refs {
			e.int(int(ref.Table))
			e.int(ref.Item)
		}
	}
}

func decodeFindings(d *dec) []rules.Finding {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]rules.Finding, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		fd := rules.Finding{
			RuleID:   d.string(),
			Severity: rules.Severity(d.byte()),
			File:     d.string(),
			Module:   d.string(),
			Line:     d.int(),
			Msg:      d.string(),
			Function: d.string(),
		}
		nr := d.length()
		if nr > 0 {
			fd.Refs = make([]iso26262.Ref, 0, nr)
			for k := 0; k < nr && d.err == nil; k++ {
				fd.Refs = append(fd.Refs, iso26262.Ref{
					Table: iso26262.TableID(d.int()),
					Item:  d.int(),
				})
			}
		}
		out = append(out, fd)
	}
	return out
}

func encodeMetricRow(e *enc, fm *metrics.FileMetrics) {
	e.string(fm.Module)
	e.byte(byte(fm.Lang))
	e.int(fm.LOC)
	e.int(fm.NLOC)
	e.int(len(fm.Functions))
	for _, fn := range fm.Functions {
		e.string(fn.Name)
		e.int(fn.StartLine)
		e.int(fn.EndLine)
		e.int(fn.NLOC)
		e.int(fn.CCN)
		e.int(fn.Params)
		e.int(fn.Returns)
		e.bool(fn.IsKernel)
	}
}

// decodeMetricRow reads one metrics row. The per-function File and
// Module fields are not on the wire: the analysis always derives them
// from the owning file, so they are reconstructed from the row.
func decodeMetricRow(d *dec, path string) *metrics.FileMetrics {
	fm := &metrics.FileMetrics{
		Path:   path,
		Module: d.string(),
		Lang:   srcfile.Language(d.byte()),
		LOC:    d.int(),
		NLOC:   d.int(),
	}
	n := d.length()
	if n > 0 {
		fm.Functions = make([]*metrics.FunctionMetrics, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		fm.Functions = append(fm.Functions, &metrics.FunctionMetrics{
			Name:      d.string(),
			File:      path,
			Module:    fm.Module,
			StartLine: d.int(),
			EndLine:   d.int(),
			NLOC:      d.int(),
			CCN:       d.int(),
			Params:    d.int(),
			Returns:   d.int(),
			IsKernel:  d.bool(),
		})
	}
	return fm
}
