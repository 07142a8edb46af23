package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// loadWL is edit-10k (name-stable body edits over one module's files)
// and rename-10k (a rename / add / remove cycle). One client sends
// closed-loop deltas over loopback HTTP to a persistent adserve booted
// from the corpus's data directory, and reads between deltas (readsAfter).
type loadWL struct {
	rename bool

	srv *server
	sc  script
	// fork is the script as set-up left it, and replayDir a copy of the
	// data directory at that point: the traced replay's input.
	fork      script
	replayDir string
	fsyncs    int64 // highest cumulative journal fsync count acked so far
}

// warmupDeltas is the set-up traffic: one rename cycle (whose first
// rename re-parses every restored stub) or four body edits, followed by
// one read of each endpoint.
func (w *loadWL) warmupDeltas() int {
	if w.rename {
		return 3
	}
	return 4
}

func (w *loadWL) setup(b *bench, last bool) (time.Duration, error) {
	if w.srv != nil {
		if err := w.srv.close(); err != nil {
			return 0, err
		}
		w.srv = nil
	}
	dir, err := b.freshDir("data")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = buildDataDir(b.c, dir)
	build := time.Since(t0)
	if err != nil {
		return build, err
	}
	processBoundary()

	t1 := time.Now()
	srv, err := bootServer(dir, b.cl)
	boot := time.Since(t1)
	if err != nil {
		return build + boot, err
	}
	w.srv = srv
	b.acc.bootMs = ms(boot)
	if w.rename {
		w.sc = newRenamer(b.c, 0)
	} else {
		w.sc = newEditor(b.c, 0)
	}
	w.fsyncs = 0
	err = w.warmup()
	setup := build + time.Since(t1)
	if err != nil || !last || !b.opt.trace {
		return setup, err
	}
	w.fork = w.sc.fork()
	if w.replayDir, err = b.freshDir("replay"); err != nil {
		return setup, err
	}
	return setup, copyCorpus(dir, w.replayDir)
}

func (w *loadWL) warmup() error {
	var d delta
	for i := 0; i < w.warmupDeltas(); i++ {
		d = w.sc.nextDelta()
		ack, _, err := w.srv.postDelta(d)
		if err != nil {
			return err
		}
		if ack.Summary.Findings != d.wantTotal {
			return fmt.Errorf("warm-up ack has %d findings, want %d", ack.Summary.Findings, d.wantTotal)
		}
		if ack.Journal != nil {
			w.fsyncs = max(w.fsyncs, ack.Journal.Fsyncs)
		}
	}
	rep, _, err := w.srv.get("/report")
	if err == nil {
		err = checkReport(rep, d.wantTotal)
	}
	if err != nil {
		return err
	}
	find, _, err := w.srv.get("/findings")
	if err == nil {
		err = checkFindings(find, d.wantTotal)
	}
	return err
}

// readsAfter is what the client reads after the i-th delta of a timed
// part. edit-10k reads /report or /findings, alternating, after every
// second delta. rename-10k's deltas take some forty times longer, so it
// reads both after every delta: alternate reads would leave about ten
// samples of each per run, too few for a steady median.
func (w *loadWL) readsAfter(i int) []string {
	switch {
	case w.rename:
		return []string{"/report", "/findings"}
	case i%2 == 0:
		return nil
	case (i/2)%2 == 0:
		return []string{"/report"}
	default:
		return []string{"/findings"}
	}
}

func (w *loadWL) timed(b *bench, p *phase, d time.Duration, ts *traceSet) {
	var tr *tracer
	if ts != nil {
		tr = ts.add(newTracer(b.base))
	}
	before, err := w.srv.statz()
	if err != nil {
		b.check("statz", err)
		return
	}
	acked, reads, fsyncs := 0, 0, w.fsyncs
	deadline := time.Now().Add(d)
	p.rt.begin()
	start := time.Now()
	// At least four deltas, so each endpoint is read at least once.
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		d := w.sc.nextDelta()
		g0 := gcCycles()
		root := tr.beginOp("delta")
		ack, lat, err := w.srv.postDelta(d)
		tr.end(root)
		p.rt.opGC(g0)
		if p.split != nil {
			p.split.client(lat)
		}
		if err == nil {
			acked++
			p.opMs = append(p.opMs, ms(lat))
			if ack.Journal != nil {
				fsyncs = max(fsyncs, ack.Journal.Fsyncs)
			}
			want := d.wantTotal + b.wrongShift()
			err = errIf(ack.Summary.Findings != want, "ack has %d findings, want %d", ack.Summary.Findings, want)
		}
		b.check("delta", err)
		for _, path := range w.readsAfter(i) {
			root = tr.beginOp("read")
			body, lat, err := w.srv.get(path)
			tr.end(root)
			if p.split != nil {
				p.split.client(lat)
			}
			if err == nil {
				reads++
				if path == "/report" {
					p.repMs = append(p.repMs, ms(lat))
					err = checkReport(body, d.wantTotal)
				} else {
					p.findMs = append(p.findMs, ms(lat))
					err = checkFindings(body, d.wantTotal)
				}
			}
			b.check(path, err)
		}
	}
	p.wall = time.Since(start)
	p.rt.finish()
	p.ops = acked

	// The /statz oracle: the server's counts over the timed part must
	// equal what the client saw.
	after, err := w.srv.statz()
	if err != nil {
		b.check("statz", err)
		return
	}
	diff := func(name string, kv ...string) int64 {
		v1, _ := after.series(name, kv...)
		v0, _ := before.series(name, kv...)
		return v1 - v0
	}
	serverReads := diff("adserve_requests_total", "endpoint", "/report", "class", "2xx") +
		diff("adserve_requests_total", "endpoint", "/findings", "class", "2xx")
	b.check("statz acked deltas", errIf(diff("adserve_deltas_acked_total") != int64(acked),
		"server acked %d deltas, the client saw %d", diff("adserve_deltas_acked_total"), acked))
	b.check("statz fsyncs", errIf(diff("adserve_journal_fsyncs_total") != fsyncs-w.fsyncs,
		"server counted %d fsyncs, acks show %d", diff("adserve_journal_fsyncs_total"), fsyncs-w.fsyncs))
	b.check("statz reads", errIf(serverReads != int64(reads),
		"server served %d reads with 2xx, the client read %d", serverReads, reads))
	w.fsyncs = fsyncs
	if p.split != nil {
		p.split.addStatz(before, after)
	}
}

// replay applies the workload's next deltas, in a fixed count, to a
// copy of the data directory as set-up left it, through the same calls
// the /delta handler makes.
func (w *loadWL) replay(b *bench, tr *tracer) {
	err := func() error {
		d, err := store.Open(w.replayDir, storeOptions)
		if err != nil {
			return err
		}
		cs, err := d.Corpus(corpusName)
		if err != nil {
			return err
		}
		a, _, err := cs.Recover(core.DefaultConfig())
		if err != nil {
			return err
		}
		a.SetCommitHook(cs.Stage)
		a.Assess() // re-assesses what the journal replay applied, untraced
		// 256 edits cross the journal's compaction threshold once; two
		// rename cycles already re-check the corpus six times.
		n := 256
		if w.rename {
			n = 6
		}
		for k := 0; k < n; k++ {
			root := tr.beginOp("replay")
			err := b.replayDelta(a, cs, w.fork.nextDelta(), tr)
			tr.end(root)
			b.check("replay delta", err)
		}
		b.acc.journalRecords = cs.JournalRecords()
		// What the next compaction would write, with a fixed generation
		// tag so the size repeats exactly.
		root := tr.beginOp("replay")
		s := tr.begin("core.export")
		st, err := a.ExportState()
		tr.end(s)
		if err == nil {
			s = tr.begin("store.encode")
			b.acc.snapshotBytes = int64(len(store.EncodeSnapshot(st, 1)))
			tr.end(s)
		}
		tr.end(root)
		if err != nil {
			return err
		}
		return cs.Close()
	}()
	if err != nil {
		b.check("replay", err)
	}
}

// finish checks the final state: /report and /findings must equal a
// fresh cold assessment of the final corpus byte for byte.
func (w *loadWL) finish(b *bench) {
	b.heapFirstMB, b.heapMB = liveHeapMB()
	rep, _, err1 := w.srv.get("/report")
	find, _, err2 := w.srv.get("/findings")
	t0 := time.Now()
	err := w.srv.close()
	b.acc.closeMs = ms(time.Since(t0))
	w.srv = nil
	b.check("close", err)
	if err := errors.Join(err1, err2); err != nil {
		b.check("final reads", err)
		return
	}
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(b.c.fileSet(w.sc.edits())); err != nil {
		b.check("final cold assessment", err)
		return
	}
	a.Assess()
	b.check("final /report", errIf(!bytes.Equal(rep, renderReport(a)),
		"/report differs from a cold assessment of the final corpus"))
	b.check("final /findings", errIf(!bytes.Equal(find, renderFindings(a)),
		"/findings differs from a cold assessment of the final corpus"))
}
