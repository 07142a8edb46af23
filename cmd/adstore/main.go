// Command adstore inspects, verifies, compacts, and dumps the
// persistent corpus stores an adserve -data-dir directory holds.
//
// Usage:
//
//	adstore -data-dir DIR list
//	adstore -data-dir DIR [-corpus NAME] inspect
//	adstore -data-dir DIR [-corpus NAME] verify
//	adstore -data-dir DIR [-corpus NAME] compact
//	adstore -data-dir DIR [-corpus NAME] [-src PATH] dump
//
//	list     names every stored corpus with snapshot/journal sizes.
//	inspect  prints the snapshot header (version, target ASIL, rule
//	         set, counts) and the journal state (records, bytes, torn
//	         tail) without modifying anything.
//	verify   checks every checksum (the decode path), restores the
//	         snapshot, replays the journal read-only, then re-parses
//	         and re-assesses the restored sources cold and byte-
//	         compares findings, report, and shard stats against the
//	         restored warm state — the oracle the recovery path is
//	         pinned to. Exits 1 on any divergence.
//	compact  restores snapshot+journal and writes a fresh snapshot
//	         absorbing the journal (what POST /snapshot does online).
//	dump     prints a per-module summary of the snapshot; -src PATH
//	         prints one stored file's source. Like every flag, -src
//	         goes before the operation.
//
// Flags are validated before any work happens: bad values exit 2 with a
// message on stderr. Runtime failures (missing stores, corrupt
// snapshots, verification mismatches) exit 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/srcfile"
	"repro/internal/store"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adstore: %v\n", err)
		os.Exit(code)
	}
}

func run() (int, error) {
	dataDirFlag := flag.String("data-dir", "", "the adserve data directory (required)")
	corpusFlag := flag.String("corpus", "default", "corpus name for per-corpus operations")
	srcFlag := flag.String("src", "", "with dump: print this stored file's source")
	flag.Parse()

	if *dataDirFlag == "" {
		return 2, fmt.Errorf("-data-dir is required")
	}
	if flag.NArg() != 1 {
		return 2, fmt.Errorf("exactly one operation expected (list, inspect, verify, compact, dump), got %v", flag.Args())
	}
	op := flag.Arg(0)
	switch op {
	case "list", "inspect", "verify", "compact", "dump":
	default:
		return 2, fmt.Errorf("unknown operation %q (want list, inspect, verify, compact, or dump)", op)
	}
	if *srcFlag != "" && op != "dump" {
		return 2, fmt.Errorf("-src only applies to dump")
	}
	if op != "list" && !store.ValidCorpusName(*corpusFlag) {
		return 2, fmt.Errorf("corpus name %q is not storable", *corpusFlag)
	}

	// Only compact writes; every other operation is an inspection and
	// must not create directories as a side effect (store.Open and
	// Dir.Corpus MkdirAll their paths for the serving flow).
	if op != "compact" {
		if fi, err := os.Stat(*dataDirFlag); err != nil || !fi.IsDir() {
			return 1, fmt.Errorf("data directory %s does not exist", *dataDirFlag)
		}
	}
	if op != "compact" && op != "list" {
		if fi, err := os.Stat(filepath.Join(*dataDirFlag, *corpusFlag)); err != nil || !fi.IsDir() {
			return 1, fmt.Errorf("corpus %q is not stored under %s", *corpusFlag, *dataDirFlag)
		}
	}

	d, err := store.Open(*dataDirFlag, store.Options{})
	if err != nil {
		return 1, err
	}
	switch op {
	case "list":
		return list(d)
	case "inspect":
		return inspect(d, *corpusFlag)
	case "verify":
		return verify(d, *corpusFlag)
	case "compact":
		return compact(d, *corpusFlag)
	default:
		return dump(d, *corpusFlag, *srcFlag)
	}
}

func list(d *store.Dir) (int, error) {
	names, err := d.Corpora()
	if err != nil {
		return 1, err
	}
	if len(names) == 0 {
		fmt.Printf("no corpora under %s\n", d.Root())
		return 0, nil
	}
	for _, name := range names {
		cs, cerr := d.Corpus(name)
		if cerr != nil {
			return 1, cerr
		}
		snapSz := fileSize(filepath.Join(d.Root(), name, "snapshot"))
		rep, jb, jerr := cs.ReadJournal(nil)
		state := fmt.Sprintf("journal %d records / %d bytes", rep.Records, jb)
		if jerr != nil {
			state = "journal unreadable: " + jerr.Error()
		} else if rep.Torn {
			state += " (torn tail)"
		}
		fmt.Printf("%-24s snapshot %d bytes, %s\n", name, snapSz, state)
	}
	return 0, nil
}

func inspect(d *store.Dir, name string) (int, error) {
	cs, err := d.Corpus(name)
	if err != nil {
		return 1, err
	}
	// Lazy open: framing, checksums, header, and shard directory only.
	// Everything below prints without decoding a single shard block —
	// inspect stays O(header + directory) no matter the corpus size.
	snap, nbytes, err := cs.OpenCurrent()
	if err != nil {
		return 1, err
	}
	dir := snap.Directory()
	nFiles := 0
	for i := range dir {
		nFiles += dir[i].Files
	}
	fmt.Printf("corpus:     %s\n", name)
	fmt.Printf("snapshot:   %d bytes (checksums ok), generation %#016x\n", nbytes, snap.Gen())
	fmt.Printf("target:     %s\n", snap.Target())
	fmt.Printf("rules:      %v\n", snap.RuleIDs())
	fmt.Printf("files:      %d across %d shards\n", nFiles, len(dir))
	fmt.Printf("shards:     %-20s %6s  %23s %23s %23s\n", "module", "files", "units(off+len)", "findings(off+len)", "metrics(off+len)")
	uBase, _ := snap.SectionBounds('U')
	rBase, _ := snap.SectionBounds('R')
	mBase, _ := snap.SectionBounds('M')
	ext := func(base int, e store.Extent) string {
		return fmt.Sprintf("%12d +%10d", base+e.Off, e.Len)
	}
	for i := range dir {
		sh := &dir[i]
		fmt.Printf("            %-20s %6d  %s %s %s\n",
			sh.Module, sh.Files, ext(uBase, sh.Units), ext(rBase, sh.Findings), ext(mBase, sh.Metrics))
	}
	fmt.Printf("corpus-findings: %s\n", ext(rBase, snap.CorpusExtent()))
	rep, jb, jerr := cs.ReadJournal(nil)
	if jerr != nil {
		return 1, jerr
	}
	torn := ""
	if rep.Torn {
		torn = " — torn tail (crash mid-append), will be dropped on recovery"
	}
	fmt.Printf("journal:    %d records, %d bytes%s\n", rep.Records, jb, torn)
	if _, err := os.Stat(filepath.Join(d.Root(), name, "clean")); err == nil {
		fmt.Printf("shutdown:   clean (marker present)\n")
	} else {
		fmt.Printf("shutdown:   no clean marker (crash or still running)\n")
	}
	return 0, nil
}

// verify is the recovery oracle: restore warm state from disk, then
// independently re-derive everything from the restored sources with a
// cold parse+assess and demand byte equality.
func verify(d *store.Dir, name string) (int, error) {
	cs, err := d.Corpus(name)
	if err != nil {
		return 1, err
	}
	warm, info, err := cs.RecoverReadOnly(core.DefaultConfig())
	if err != nil {
		return 1, err
	}

	cold := core.NewAssessor(warm.Config())
	fs := srcfile.NewFileSet()
	for _, f := range warm.FileSet().Files() {
		fs.Add(&srcfile.File{Path: f.Path, Module: f.Module, Lang: f.Lang, Src: f.Src})
	}
	if err := cold.LoadFileSet(fs); err != nil {
		return 1, fmt.Errorf("cold re-parse of restored sources: %w", err)
	}

	warmFindings, _ := json.Marshal(service.FindingRows(warm.Findings()))
	coldFindings, _ := json.Marshal(service.FindingRows(cold.Findings()))
	if !bytes.Equal(warmFindings, coldFindings) {
		return 1, fmt.Errorf("FAIL: restored findings diverge from cold re-assessment")
	}
	warmReport, _ := json.Marshal(service.BuildReport(name, warm))
	coldReport, _ := json.Marshal(service.BuildReport(name, cold))
	if !bytes.Equal(warmReport, coldReport) {
		return 1, fmt.Errorf("FAIL: restored report diverges from cold re-assessment")
	}
	if w, c := fmt.Sprintf("%v", warm.ShardStats()), fmt.Sprintf("%v", cold.ShardStats()); w != c {
		return 1, fmt.Errorf("FAIL: restored shard stats diverge from cold re-assessment")
	}
	torn := ""
	if info.Torn {
		torn = ", torn tail ignored"
	}
	fmt.Printf("OK: %s — snapshot %d bytes, %d journal records replayed%s; %d files, %d findings byte-identical to cold re-assessment\n",
		name, info.SnapshotBytes, info.Replayed, torn, warm.FileSet().Len(), len(warm.Findings()))
	return 0, nil
}

func compact(d *store.Dir, name string) (int, error) {
	cs, err := d.Corpus(name)
	if err != nil {
		return 1, err
	}
	a, info, err := cs.Recover(core.DefaultConfig())
	if err != nil {
		return 1, err
	}
	defer cs.Close()
	snap, err := a.ExportState()
	if err != nil {
		return 1, err
	}
	n, err := cs.WriteSnapshot(snap)
	if err != nil {
		return 1, err
	}
	// The journal is empty and the snapshot current: equivalent to a
	// clean shutdown, so certify it for the next boot.
	if err := cs.MarkClean(); err != nil {
		return 1, err
	}
	fmt.Printf("compacted %s: %d journal records absorbed into a %d-byte snapshot (%d files)\n",
		name, info.Replayed, n, a.FileSet().Len())
	return 0, nil
}

func dump(d *store.Dir, name, src string) (int, error) {
	cs, err := d.Corpus(name)
	if err != nil {
		return 1, err
	}
	// Lazy open, then the files section only: no shard block is decoded.
	snap, _, err := cs.OpenCurrent()
	if err != nil {
		return 1, err
	}
	files, err := snap.Files()
	if err != nil {
		return 1, err
	}
	if src != "" {
		for i := range files {
			if files[i].Path == src {
				fmt.Print(files[i].Src)
				return 0, nil
			}
		}
		return 1, fmt.Errorf("file %q is not in the snapshot", src)
	}
	type modStat struct{ files, bytes int }
	mods := make(map[string]*modStat)
	var order []string
	for i := range files {
		pf := &files[i]
		ms := mods[pf.Module]
		if ms == nil {
			ms = &modStat{}
			mods[pf.Module] = ms
			order = append(order, pf.Module)
		}
		ms.files++
		ms.bytes += len(pf.Src)
	}
	fmt.Printf("%s: %d files across %d modules (target %s)\n", name, len(files), len(mods), snap.Target())
	for _, m := range order {
		fmt.Printf("  %-20s %5d files %9d bytes\n", m, mods[m].files, mods[m].bytes)
	}
	return 0, nil
}

func fileSize(p string) int64 {
	fi, err := os.Stat(p)
	if err != nil {
		return 0
	}
	return fi.Size()
}
