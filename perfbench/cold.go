package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/srcfile"
)

// coldWL is cold-10k: a fresh assessor loads and assesses the generated
// tree, one op at a time; the last assessment's report and findings are
// then rendered as /report and /findings would serve them.
type coldWL struct {
	last *core.Assessor
}

// coldOp runs one cold assessment as separate calls into each layer.
// Assess would make the same calls in the same order (Findings builds
// the index first, then Metrics, then Arch); the verdicts are all that
// is left for Assess itself. It returns the time spent parsing.
func coldOp(fs *srcfile.FileSet, tr *tracer) (*core.Assessor, *core.Assessment, time.Duration, error) {
	a := core.NewAssessor(core.DefaultConfig())
	s := tr.begin("ccparse.parse")
	t0 := time.Now()
	err := a.LoadFileSet(fs)
	parse := time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, nil, parse, err
	}
	s = tr.begin("artifact.build")
	a.Index()
	tr.end(s)
	s = tr.begin("rules.walk")
	a.Findings()
	tr.end(s)
	s = tr.begin("metrics.framework")
	a.Metrics()
	tr.end(s)
	s = tr.begin("metrics.arch")
	a.Arch()
	tr.end(s)
	s = tr.begin("core.verdicts")
	as := a.Assess()
	tr.end(s)
	return a, as, parse, nil
}

func (w *coldWL) setup(b *bench, last bool) (time.Duration, error) {
	w.last = nil
	fs := b.c.gen.FileSet()
	t0 := time.Now()
	a, as, _, err := coldOp(fs, nil)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	w.last = a
	return d, b.c.checkCold(a, as, 0)
}

func (w *coldWL) timed(b *bench, p *phase, d time.Duration, ts *traceSet) {
	var tr *tracer
	if ts != nil {
		tr = ts.add(newTracer(b.base))
	}
	deadline := time.Now().Add(d)
	p.rt.begin()
	for p.ops == 0 || time.Now().Before(deadline) {
		// Only one assessment is live at a time, as in a process that
		// assesses one corpus.
		w.last = nil
		fs := b.c.gen.FileSet()
		g0 := gcCycles()
		root := tr.beginOp("op")
		t0 := time.Now()
		a, as, parse, err := coldOp(fs, tr)
		opLat := time.Since(t0)
		tr.end(root)
		p.rt.opGC(g0)
		p.ops++
		p.opMs = append(p.opMs, ms(opLat))
		p.wall += opLat
		if err == nil {
			err = b.c.checkCold(a, as, b.wrongShift())
		}
		b.check("cold assessment", err)
		if a == nil {
			continue
		}

		if tr != nil {
			acc := &b.acc
			acc.ops++
			acc.parsed += fs.Len()
			acc.changed += fs.Len()
			acc.parseBytes += int64(b.c.bytes)
			acc.parseNs += parse.Nanoseconds()
			acc.rechecked += a.RuleFilesChecked()
			acc.recomputed += a.MetricFilesComputed()
		}
		w.last = a
	}
	p.rt.finish()
	if w.last != nil {
		w.reads(b, p, tr)
	}
}

// coldReads is how many times the read phase renders each projection.
const coldReads = 16

// reads renders the last assessment's report and findings, as /report
// and /findings would serve them, in a phase of their own after the
// assessments. Garbage is collected before each pair of renders,
// untimed: with the assessment's 400 MB live, a collection started by
// the assessments or by earlier renders would otherwise overlap about
// half of the renders and slow them by a half, so the median would
// depend on where the collector happened to be.
func (w *coldWL) reads(b *bench, p *phase, tr *tracer) {
	total := len(b.c.want)
	for i := 0; i < coldReads; i++ {
		runtime.GC()
		root := tr.beginOp("read")
		s := tr.begin("service.report")
		t0 := time.Now()
		rep := renderReport(w.last)
		p.repMs = append(p.repMs, ms(time.Since(t0)))
		tr.end(s)
		s = tr.begin("service.findings")
		t1 := time.Now()
		find := renderFindings(w.last)
		p.findMs = append(p.findMs, ms(time.Since(t1)))
		tr.end(s)
		tr.end(root)
		b.check("report", checkReport(rep, total))
		b.check("findings", checkFindings(find, total))
	}
}

// replay: the traced cold ops already call each layer separately.
func (w *coldWL) replay(b *bench, tr *tracer) {}

func (w *coldWL) finish(b *bench) {
	b.heapFirstMB, b.heapMB = liveHeapMB()
	runtime.KeepAlive(w.last)
}

// checkReport checks a /report body's findings total.
func checkReport(body []byte, want int) error {
	var r struct {
		Summary struct {
			Findings int `json:"findings"`
		} `json:"summary"`
		Observations []json.RawMessage `json:"observations"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Summary.Findings != want || len(r.Observations) != 14 {
		return fmt.Errorf("report has %d findings and %d observations, want %d and 14",
			r.Summary.Findings, len(r.Observations), want)
	}
	return nil
}

// checkFindings checks a /findings body's row count without decoding
// its several megabytes of rows: the count field precedes them.
func checkFindings(body []byte, want int) error {
	key := []byte(`"count":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return fmt.Errorf("findings body has no count")
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, ',')
	if j < 0 {
		return fmt.Errorf("findings body truncated")
	}
	n, err := strconv.Atoi(string(rest[:j]))
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("findings count %d, want %d", n, want)
	}
	return nil
}
