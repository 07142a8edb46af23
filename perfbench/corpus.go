package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/service"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// corpusParams is the 10k-file tree every workload runs on: 20 modules
// of 499 C++ files and one CUDA file each.
var corpusParams = corpusgen.Params{Modules: 20, FilesPerModule: 499,
	FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}

// corpusName is the corpus's name in the data directory and in every
// rendered report.
const corpusName = "bench"

// corpus is the generated input and its ground truth.
type corpus struct {
	gen   *corpusgen.Generator
	paths []string
	man   *corpusgen.Manifest
	want  []string // sorted manifest keys: path:line:[rule]
	bytes int
}

func newCorpus(seed int64) *corpus {
	g := corpusgen.New(corpusParams, seed)
	c := &corpus{gen: g, paths: g.Paths(), man: g.Manifest()}
	for _, e := range c.man.All() {
		c.want = append(c.want, e.String())
	}
	sort.Strings(c.want)
	for _, p := range c.paths {
		c.bytes += len(g.Source(p))
	}
	return c
}

// checkCold reports why a cold assessment of the generated corpus is
// wrong: its findings must equal the manifest exactly and all fourteen
// observations must be present. A non-zero shift expects that many
// findings more than the manifest holds (a seeded wrong answer).
func (c *corpus) checkCold(a *core.Assessor, as *core.Assessment, shift int) error {
	fs := a.Findings()
	got := make([]string, len(fs))
	for i, f := range fs {
		got[i] = corpusgen.Expect{Rule: f.RuleID, Path: f.File, Line: f.Line}.String()
	}
	sort.Strings(got)
	if len(got) != len(c.want)+shift {
		return fmt.Errorf("%d findings, want %d", len(got), len(c.want)+shift)
	}
	for i := range got {
		if got[i] != c.want[i] {
			return fmt.Errorf("finding %s, manifest expects %s", got[i], c.want[i])
		}
	}
	if len(as.Observations) != 14 {
		return fmt.Errorf("%d observations, want 14", len(as.Observations))
	}
	for i, o := range as.Observations {
		if o.Number != i+1 || o.Text == "" || o.Evidence == "" {
			return fmt.Errorf("observation %d malformed: %+v", i+1, o)
		}
	}
	return nil
}

// findingsOf is the manifest's finding count for one generated path.
func (c *corpus) findingsOf(path string) int { return len(c.man.PerFile[path]) }

// renderJSON encodes v exactly as the service writes a response body.
func renderJSON(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err) // the service's response types always encode
	}
	return b.Bytes()
}

// renderReport and renderFindings are the /report and /findings bodies
// of an assessor, through the service's own projections.
func renderReport(a *core.Assessor) []byte {
	return renderJSON(service.BuildReport(corpusName, a))
}

func renderFindings(a *core.Assessor) []byte {
	rows := service.FindingRows(a.Findings())
	return renderJSON(service.FindingsResponse{Corpus: corpusName, Count: len(rows), Findings: rows})
}

// overlay is a client's edits on top of the generated corpus.
type overlay struct {
	src     map[string]string
	removed map[string]bool
}

func newOverlay() *overlay {
	return &overlay{src: map[string]string{}, removed: map[string]bool{}}
}

func (o *overlay) clone() *overlay {
	n := newOverlay()
	for k, v := range o.src {
		n.src[k] = v
	}
	for k, v := range o.removed {
		n.removed[k] = v
	}
	return n
}

// current returns a path's content under the overlay.
func (c *corpus) current(o *overlay, path string) string {
	if s, ok := o.src[path]; ok {
		return s
	}
	return c.gen.Source(path)
}

// fileSet materialises the generated corpus under a client's edits:
// generated paths in order, then added paths sorted.
func (c *corpus) fileSet(o *overlay) *srcfile.FileSet {
	fs := srcfile.NewFileSet()
	base := make(map[string]bool, len(c.paths))
	for _, p := range c.paths {
		base[p] = true
		if !o.removed[p] {
			fs.AddSource(p, c.current(o, p))
		}
	}
	var added []string
	for p := range o.src {
		if !base[p] {
			added = append(added, p)
		}
	}
	sort.Strings(added)
	for _, p := range added {
		fs.AddSource(p, o.src[p])
	}
	return fs
}

// delta is one /delta request with the findings total its ack must carry.
type delta struct {
	req       service.DeltaRequest
	wantTotal int
	bytes     int // source bytes the delta carries
}

// script generates a client's deltas. fork returns an independent copy
// at the same position, with its own copy of the edits made so far.
type script interface {
	nextDelta() delta
	fork() script
	edits() *overlay
}

// Body edits swap one constant in a clean filler function: the file's
// function and global names, line count and findings stay the same, so
// the corpus's exported names never change.
const (
	editFrom = "float acc = seed + (0.5f * scale);"
	editTo   = "float acc = seed + (0.75f * scale);"
)

var ccPath = regexp.MustCompile(`^[a-z0-9]+/[a-z0-9]+_m(\d+)f(\d+)\.cc$`)

// moduleFiles lists one module's C++ files with ordinals in [lo, hi].
func (c *corpus) moduleFiles(module, lo, hi int) []string {
	var out []string
	for _, p := range c.paths {
		m := ccPath.FindStringSubmatch(p)
		if m == nil {
			continue
		}
		mi, _ := strconv.Atoi(m[1])
		ord, _ := strconv.Atoi(m[2])
		if mi == module && ord >= lo && ord <= hi {
			out = append(out, p)
		}
	}
	return out
}

// editor cycles name-stable body edits over one module's C++ files.
type editor struct {
	c     *corpus
	files []string
	ov    *overlay
	next  int
	total int
}

func newEditor(c *corpus, module int) *editor {
	return &editor{c: c, files: c.moduleFiles(module, 0, 1<<30), ov: newOverlay(), total: len(c.want)}
}

func (e *editor) fork() script {
	n := *e
	n.ov = e.ov.clone()
	return &n
}

func (e *editor) edits() *overlay { return e.ov }

func (e *editor) nextDelta() delta {
	p := e.files[e.next%len(e.files)]
	e.next++
	old := e.c.current(e.ov, p)
	src := strings.Replace(old, editFrom, editTo, 1)
	if src == old {
		src = strings.Replace(old, editTo, editFrom, 1)
	}
	e.ov.src[p] = src
	return delta{
		req:       service.DeltaRequest{Corpus: corpusName, Changed: map[string]string{p: src}},
		wantTotal: e.total,
		bytes:     len(src),
	}
}

// renamer changes exported names in a fixed cycle over one module's
// files with three-digit ordinals: rename a function of file F, add a
// copy of F under a fresh ordinal (F's ordinal + 500, so every name and
// line keeps its length), then remove that copy. Each step changes the
// corpus's name environment.
type renamer struct {
	c     *corpus
	files []string
	ov    *overlay
	step  int
	total int
	added string
}

func newRenamer(c *corpus, module int) *renamer {
	return &renamer{c: c, files: c.moduleFiles(module, 100, 499), ov: newOverlay(), total: len(c.want)}
}

func (r *renamer) fork() script {
	n := *r
	n.ov = r.ov.clone()
	return &n
}

func (r *renamer) edits() *overlay { return r.ov }

func (r *renamer) nextDelta() delta {
	victim := r.files[(r.step/3)%len(r.files)]
	m := ccPath.FindStringSubmatch(victim)
	mi, _ := strconv.Atoi(m[1])
	ord, _ := strconv.Atoi(m[2])
	slug := fmt.Sprintf("M%dX%d", mi, ord)
	var d delta
	switch r.step % 3 {
	case 0: // rename the file's first filler function (definition and calls)
		old := r.c.current(r.ov, victim)
		src := strings.ReplaceAll(old, slug+"N0(", slug+"R0(")
		if src == old {
			src = strings.ReplaceAll(old, slug+"R0(", slug+"N0(")
		}
		r.ov.src[victim] = src
		d = delta{req: service.DeltaRequest{Corpus: corpusName, Changed: map[string]string{victim: src}}, bytes: len(src)}
	case 1: // add a renamed copy: new path, new names
		fresh := fmt.Sprintf("M%dX%d", mi, ord+500)
		src := r.c.current(r.ov, victim)
		src = strings.ReplaceAll(src, slug, fresh)
		src = strings.ReplaceAll(src, strings.ToLower(slug), strings.ToLower(fresh))
		r.added = strings.Replace(victim, fmt.Sprintf("f%03d.cc", ord), fmt.Sprintf("f%03d.cc", ord+500), 1)
		r.ov.src[r.added] = src
		delete(r.ov.removed, r.added)
		r.total += r.c.findingsOf(victim)
		d = delta{req: service.DeltaRequest{Corpus: corpusName, Changed: map[string]string{r.added: src}}, bytes: len(src)}
	default: // remove the copy
		delete(r.ov.src, r.added)
		r.ov.removed[r.added] = true
		r.total -= r.c.findingsOf(victim)
		d = delta{req: service.DeltaRequest{Corpus: corpusName, Removed: []string{r.added}}}
	}
	r.step++
	d.wantTotal = r.total
	return d
}

// coreDelta converts a request into the core's delta form.
func coreDelta(req service.DeltaRequest) core.Delta {
	d := core.Delta{Removed: req.Removed}
	keys := make([]string, 0, len(req.Changed))
	for p := range req.Changed {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		d.Changed = append(d.Changed, &srcfile.File{Path: p, Src: req.Changed[p]})
	}
	return d
}

// buildDataDir cold-assesses the generated corpus, checks it, and
// persists it as a persistent server's /assess and clean Close would:
// snapshot, clean-shutdown marker, closed store.
func buildDataDir(c *corpus, dir string) error {
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(c.gen.FileSet()); err != nil {
		return err
	}
	if err := c.checkCold(a, a.Assess(), 0); err != nil {
		return fmt.Errorf("data-dir build: %w", err)
	}
	st, err := a.ExportState()
	if err != nil {
		return err
	}
	d, err := store.Open(dir, storeOptions)
	if err != nil {
		return err
	}
	cs, err := d.Corpus(corpusName)
	if err != nil {
		return err
	}
	if _, err := cs.WriteSnapshot(st); err != nil {
		return err
	}
	if err := cs.MarkClean(); err != nil {
		return err
	}
	return cs.Close()
}
