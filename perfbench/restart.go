package main

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// restartWL is restart-10k: one op is a clean restart of a persistent
// adserve holding the corpus — boot from the data directory, the first
// /report and /findings, one name-stable /delta, the reads a client
// makes before the drain, then Close (snapshot and clean marker).
type restartWL struct {
	dir               string
	ed                script
	prevRep, prevFind []byte // the last op's bodies before its drain
	// fork is the edit script as set-up left it, and replayDir a copy of
	// the data directory at that point: the traced replay's input.
	fork      script
	replayDir string
}

// restartOp is what one restart observed.
type restartOp struct {
	lat, repLat, findLat time.Duration
	rep, find            []byte // first reads after the boot
	rep2, find2          []byte // reads before the drain
	ack                  *service.DeltaResponse
	want                 int
}

func (w *restartWL) setup(b *bench, last bool) (time.Duration, error) {
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
	w.dir, w.ed, w.prevRep, w.prevFind = dir, newEditor(b.c, 0), nil, nil
	t1 := time.Now()
	r, err := w.op(b, nil, nil)
	d := build + time.Since(t1)
	if err == nil {
		err = w.checkOp(r, 0)
	}
	if err != nil || !last || !b.opt.trace {
		return d, err
	}
	w.fork = w.ed.fork()
	if w.replayDir, err = b.freshDir("replay"); err != nil {
		return d, err
	}
	return d, copyCorpus(dir, w.replayDir)
}

// op performs one restart.
func (w *restartWL) op(b *bench, tr *tracer, split *serverSplit) (restartOp, error) {
	var r restartOp
	root := tr.beginOp("op")
	defer tr.end(root)
	t0 := time.Now()
	s := tr.begin("service.boot")
	srv, err := bootServer(w.dir, b.cl)
	tr.end(s)
	if err != nil {
		r.lat = time.Since(t0)
		return r, err
	}
	err = w.requests(srv, tr, &r, split)
	s = tr.begin("service.close")
	cerr := srv.close()
	tr.end(s)
	r.lat = time.Since(t0)
	return r, errors.Join(err, cerr)
}

func (w *restartWL) requests(srv *server, tr *tracer, r *restartOp, split *serverSplit) error {
	get := func(path string) ([]byte, time.Duration, error) {
		s := tr.begin("client." + strings.TrimPrefix(path, "/"))
		body, lat, err := srv.get(path)
		tr.end(s)
		if split != nil {
			split.client(lat)
		}
		return body, lat, err
	}
	var err error
	if r.rep, r.repLat, err = get("/report"); err != nil {
		return err
	}
	if r.find, r.findLat, err = get("/findings"); err != nil {
		return err
	}
	d := w.ed.nextDelta()
	r.want = d.wantTotal
	s := tr.begin("client.delta")
	ack, lat, err := srv.postDelta(d)
	tr.end(s)
	if split != nil {
		split.client(lat)
	}
	if err != nil {
		return err
	}
	r.ack = ack
	if r.rep2, _, err = get("/report"); err != nil {
		return err
	}
	if r.find2, _, err = get("/findings"); err != nil {
		return err
	}
	if split != nil {
		z, err := srv.statz()
		if err != nil {
			return err
		}
		split.addStatz(nil, z)
	}
	return nil
}

// checkOp checks one restart: the reads after the boot must equal the
// previous op's reads before its drain byte for byte, and the delta's
// ack must carry the expected findings total.
func (w *restartWL) checkOp(r restartOp, shift int) error {
	defer func() { w.prevRep, w.prevFind = r.rep2, r.find2 }()
	if w.prevRep != nil && !bytes.Equal(r.rep, w.prevRep) {
		return errors.New("/report after the boot differs from /report before the drain")
	}
	if w.prevFind != nil && !bytes.Equal(r.find, w.prevFind) {
		return errors.New("/findings after the boot differs from /findings before the drain")
	}
	return errIf(r.ack.Summary.Findings != r.want+shift,
		"delta ack has %d findings, want %d", r.ack.Summary.Findings, r.want+shift)
}

func (w *restartWL) timed(b *bench, p *phase, d time.Duration, ts *traceSet) {
	var tr *tracer
	if ts != nil {
		tr = ts.add(newTracer(b.base))
	}
	deadline := time.Now().Add(d)
	p.rt.begin()
	for p.ops == 0 || time.Now().Before(deadline) {
		// A restart starts a new process: the last server's garbage is
		// gone before the boot. Collected here, outside the op's time.
		runtime.GC()
		g0 := gcCycles()
		r, err := w.op(b, tr, p.split)
		p.rt.opGC(g0)
		p.ops++
		p.wall += r.lat
		p.opMs = append(p.opMs, ms(r.lat))
		if r.rep != nil {
			p.repMs = append(p.repMs, ms(r.repLat))
		}
		if r.find != nil {
			p.findMs = append(p.findMs, ms(r.findLat))
		}
		if err == nil {
			err = w.checkOp(r, b.wrongShift())
		} else {
			w.prevRep, w.prevFind = nil, nil
		}
		b.check("restart", err)
	}
	p.rt.finish()
}

// replay restarts a copy of the data directory as set-up left it twice,
// through the layers' own calls: snapshot open, restore, first
// assessment, first delta, export, encode and snapshot write.
func (w *restartWL) replay(b *bench, tr *tracer) {
	for k := 0; k < 2; k++ {
		b.check("restart replay", w.replayOp(b, tr, w.replayDir, w.fork))
	}
}

func (w *restartWL) replayOp(b *bench, tr *tracer, dir string, ed script) error {
	root := tr.beginOp("replay")
	defer tr.end(root)
	s := tr.begin("store.open")
	d, err := store.Open(dir, storeOptions)
	var cs *store.CorpusStore
	var snap *store.Snapshot
	if err == nil {
		cs, err = d.Corpus(corpusName)
	}
	if err == nil {
		snap, _, err = cs.OpenCurrent()
	}
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.restore")
	a, err := core.RestoreAssessorFrom(core.DefaultConfig(), snap)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.first_assess")
	a.Assess()
	tr.end(s)
	s = tr.begin("core.first_delta")
	err = b.replayDelta(a, nil, ed.nextDelta(), tr)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.export")
	st, err := a.ExportState()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("store.encode")
	b.acc.snapshotBytes = int64(len(store.EncodeSnapshot(st, 1)))
	tr.end(s)
	s = tr.begin("store.snapshot_write")
	_, err = cs.WriteSnapshot(st)
	tr.end(s)
	if err != nil {
		return err
	}
	b.acc.compactions++
	return cs.Close()
}

func (w *restartWL) finish(b *bench) {
	srv, err := bootServer(w.dir, b.cl)
	if err != nil {
		b.check("final boot", err)
		return
	}
	r := restartOp{}
	var err1, err2 error
	r.rep, _, err1 = srv.get("/report")
	r.find, _, err2 = srv.get("/findings")
	err = errors.Join(err1, err2)
	if err == nil && (!bytes.Equal(r.rep, w.prevRep) || !bytes.Equal(r.find, w.prevFind)) {
		err = errors.New("reads after the final boot differ from the last op's reads before its drain")
	}
	b.check("final boot", err)
	b.heapFirstMB, b.heapMB = liveHeapMB()
	b.check("final close", srv.close())
}

// copyCorpus copies the corpus's snapshot and journal from one data
// directory to another.
func copyCorpus(from, to string) error {
	var cs [2]*store.CorpusStore
	for i, dir := range []string{from, to} {
		d, err := store.Open(dir, storeOptions)
		if err == nil {
			cs[i], err = d.Corpus(corpusName)
		}
		if err != nil {
			return err
		}
	}
	return cs[0].CopyTo(cs[1])
}
