// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates the seed-given 10k-file corpusgen tree, runs
// one workload against the assessor for a fixed time, checks every
// answer, and prints one JSON result as its last line of output.
//
// Run it from the repository root through its wrapper, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload edit-10k --seed 26262 --seconds 15 --trace 0
//
// Workloads (see README.md in this directory for why each exists):
//
//	cold-10k     fresh core.Assessor: LoadFileSet then Assess, one at a time
//	restart-10k  persistent adserve: boot, first reads, first delta, Close
//	edit-10k     an HTTP client sending name-stable body edits plus reads
//	rename-10k   an HTTP client renaming, adding and removing exported names
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around each layer's public calls, from /statz, and
// from a deterministic in-process replay of the workload's deltas.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, and the last instance is the one that is timed.
const setupRepeats = 3

type metricDef struct{ name, unit string }

// endToEnd is every metric a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"findings_p50_ms", "ms"},
	{"report_p50_ms", "ms"},
	{"heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is every metric a --trace 1 run prints. A layer the workload
// does not enter reads 0.
var perLayer = []metricDef{
	{"ccparse.parse_ms", "ms"}, {"ccparse.mb_per_s", "MB/s"}, {"ccparse.files_parsed", "count"},
	{"artifact.build_ms", "ms"}, {"artifact.apply_ms", "ms"}, {"artifact.dirty_shards", "count"},
	{"rules.walk_ms", "ms"}, {"rules.files_rechecked", "count"}, {"rules.recheck_per_changed_file", "ratio"},
	{"metrics.framework_ms", "ms"}, {"metrics.arch_ms", "ms"}, {"metrics.files_recomputed", "count"},
	{"core.prepare_ms", "ms"}, {"core.commit_ms", "ms"}, {"core.verdicts_ms", "ms"},
	{"core.export_ms", "ms"}, {"core.restore_ms", "ms"}, {"core.first_assess_ms", "ms"},
	{"core.first_delta_ms", "ms"},
	{"store.encode_ms", "ms"}, {"store.snapshot_write_ms", "ms"}, {"store.snapshot_mb", "MB"},
	{"store.open_ms", "ms"}, {"store.journal_stage_ms", "ms"}, {"store.sync_barrier_ms", "ms"},
	{"store.fsyncs_per_delta", "ratio"}, {"store.journal_records", "count"}, {"store.compactions", "count"},
	{"service.boot_ms", "ms"}, {"service.close_ms", "ms"},
	{"service.phase.prepare_ms", "ms"}, {"service.phase.commit_ms", "ms"},
	{"service.phase.journal_stage_ms", "ms"}, {"service.phase.assess_ms", "ms"},
	{"service.phase.sync_barrier_ms", "ms"}, {"service.phase.render_ms", "ms"},
	{"service.wait_ms", "ms"}, {"service.client_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"}, {"runtime.gc_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"}, {"runtime.ops_in_gc_share", "ratio"},
	{"client.self_ms", "ms"}, {"service.self_ms", "ms"}, {"core.self_ms", "ms"},
	{"ccparse.self_ms", "ms"}, {"artifact.self_ms", "ms"}, {"rules.self_ms", "ms"},
	{"metrics.self_ms", "ms"}, {"store.self_ms", "ms"},
	{"bench.gen_s", "s"}, {"bench.trace_overhead", "ratio"}, {"bench.setup_gcs", "count"},
	{"bench.op_tail_ms", "ms"}, {"bench.op_tail_pct", "%"}, {"bench.op_samples", "count"},
	{"bench.findings_tail_ms", "ms"}, {"bench.findings_tail_pct", "%"}, {"bench.findings_samples", "count"},
	{"bench.report_tail_ms", "ms"}, {"bench.report_tail_pct", "%"}, {"bench.report_samples", "count"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
	spans    string
	wrong    bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 26262, "corpus and workload seed")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed part in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "work"), "directory for data directories (emptied per run)")
	fs.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if newWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	}
	return o, nil
}

// workload is one traffic shape. setup prepares it once and returns the
// set-up time it measured (execute repeats it and times the last
// instance); timed runs closed-loop ops for d, at least one; replay
// drives the workload's layers in-process for a fixed op count with
// spans (traced runs only); finish runs the end-of-run answer checks,
// measures the live heap and releases the workload.
type workload interface {
	setup(b *bench, last bool) (time.Duration, error)
	timed(b *bench, p *phase, d time.Duration, ts *traceSet)
	replay(b *bench, tr *tracer)
	finish(b *bench)
}

func newWorkload(name string) workload {
	switch name {
	case "cold-10k":
		return &coldWL{}
	case "restart-10k":
		return &restartWL{}
	case "edit-10k":
		return &loadWL{}
	case "rename-10k":
		return &loadWL{rename: true}
	}
	return nil
}

func workloadNames() []string { return []string{"cold-10k", "restart-10k", "edit-10k", "rename-10k"} }

// phase is one timed part of a run.
type phase struct {
	opMs, findMs, repMs []float64
	ops                 int           // ops counted by ops_per_s
	wall                time.Duration // the timed part's length
	rt                  rtWindow
	split               *serverSplit // server-side breakdown (traced phases)
}

func (p *phase) opsPerS() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.ops) / p.wall.Seconds()
}

// layerAcc accumulates what the traced ops and the replay did, as the
// program reports it.
type layerAcc struct {
	ops, deltas                  int
	parsed, changed              int
	rechecked, recomputed, dirty int
	parseNs, applyNs, parseBytes int64
	journalRecords, compactions  int
	snapshotBytes                int64
	// bootMs and closeMs time the server's boot and close on workloads
	// whose ops do not restart it.
	bootMs, closeMs float64
}

// bench is one run's state.
type bench struct {
	opt    options
	c      *corpus
	cl     *http.Client
	base   time.Time
	runDir string
	heapMB float64
	// heapFirstMB is the heap after one collection, pool caches included.
	heapFirstMB float64
	acc         layerAcc
	tried       int
	failed      int
	fails       []string
	wrongOn     bool
}

// check counts one attempted op and whether its answer was right.
func (b *bench) check(what string, err error) {
	b.tried++
	if err != nil {
		b.failed++
		if len(b.fails) < 8 {
			b.fails = append(b.fails, what+": "+err.Error())
		}
	}
}

// wrongShift is 1 exactly once when options.wrong is set (the
// benchmark's own test sets it): the first timed op expects a findings
// total one too high.
func (b *bench) wrongShift() int {
	if b.wrongOn {
		b.wrongOn = false
		return 1
	}
	return 0
}

// freshDir returns an empty directory under the run's work directory.
func (b *bench) freshDir(name string) (string, error) {
	dir := filepath.Join(b.runDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// processBoundary stands in for a server process starting after the
// data directory was written: it returns the build's heap to the OS, so
// the server starts from the heap it restores (not timed as set-up).
func processBoundary() {
	runtime.GC()
	debug.FreeOSMemory()
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, diag, err := execute(opt)
	for _, line := range diag {
		fmt.Fprintln(stdout, "# "+line)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// execute runs one workload and returns its result and diagnostics.
func execute(opt options) (*result, []string, error) {
	diag := []string{fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%t cpu=%q numcpu=%d gomaxprocs=%d go=%s",
		opt.workload, opt.seed, opt.seconds, opt.trace, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())}

	cpu0, mem0 := machineSpeed()
	// Input generation is not set-up: it runs before the set-up clock.
	t0 := time.Now()
	c := newCorpus(opt.seed)
	genS := time.Since(t0).Seconds()

	b := &bench{opt: opt, c: c, cl: newClient(), base: time.Now()}
	b.runDir = filepath.Join(opt.workDir, fmt.Sprintf("%s-%d", opt.workload, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, diag, err
	}
	defer os.RemoveAll(b.runDir)
	w := newWorkload(opt.workload)

	gc0 := gcCycles()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := w.setup(b, i == setupRepeats-1)
		if err != nil {
			return nil, diag, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	setupGCs := gcCycles() - gc0
	rssReset := resetPeakRSS()

	b.wrongOn = opt.wrong
	secs := time.Duration(opt.seconds) * time.Second
	main := &phase{}
	var traced *phase
	ts := &traceSet{}
	if !opt.trace {
		w.timed(b, main, secs, nil)
	} else {
		w.timed(b, main, secs/2, nil)
		traced = &phase{split: newServerSplit()}
		w.timed(b, traced, secs/2, ts)
	}
	peakMB := peakRSSMB()
	if opt.trace {
		w.replay(b, ts.add(newTracer(b.base)))
	}
	w.finish(b)

	cpu1, mem1 := machineSpeed()
	rtm := main.rt.metrics(main.ops)
	diag = append(diag, fmt.Sprintf("noise gen_s=%.3f setup_s=%s setup_gcs=%d peak_rss_reset=%t heap_after_one_gc_mb=%.1f %s",
		genS, floats(setups), setupGCs, rssReset, b.heapFirstMB, kv(rtm)))
	diag = append(diag, fmt.Sprintf("machine cpu_mb_per_s=%.0f,%.0f mem_mb_per_s=%.0f,%.0f (start,end)", cpu0, cpu1, mem0, mem1))
	diag = append(diag, "tails "+tailLine("op", main.opMs)+" "+tailLine("findings", main.findMs)+" "+tailLine("report", main.repMs))

	res := &result{Metrics: map[string]metric{}}
	if !opt.trace {
		vals := map[string]float64{
			"setup_s":         median(setups),
			"ops_per_s":       main.opsPerS(),
			"op_p50_ms":       median(main.opMs),
			"findings_p50_ms": median(main.findMs),
			"report_p50_ms":   median(main.repMs),
			"heap_mb":         b.heapMB,
			"peak_rss_mb":     peakMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		spans := ts.flat()
		sr := analyzeSpans(spans)
		vals := b.layerMetrics(sr, traced)
		for k, v := range rtm {
			vals[k] = v
		}
		vals["bench.gen_s"] = genS
		vals["bench.setup_gcs"] = float64(setupGCs)
		if tp := traced.opsPerS(); tp > 0 {
			vals["bench.trace_overhead"] = main.opsPerS() / tp
		}
		for _, t := range []struct {
			name string
			xs   []float64
		}{{"op", main.opMs}, {"findings", main.findMs}, {"report", main.repMs}} {
			v, pct := tail(t.xs)
			vals["bench."+t.name+"_tail_ms"] = v
			vals["bench."+t.name+"_tail_pct"] = pct
			vals["bench."+t.name+"_samples"] = float64(len(t.xs))
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		diag = append(diag, fmt.Sprintf("trace spans=%d file=%s self: %s", len(spans), opt.spans, sr.selfTable()))
		if err := writeSpans(opt.spans, spans); err != nil {
			return nil, diag, err
		}
	}
	res.Attempted, res.Failed = b.tried, b.failed
	res.Correct = b.failed == 0 && b.tried > 0
	for _, f := range b.fails {
		diag = append(diag, "failed "+f)
	}
	if b.failed > len(b.fails) {
		diag = append(diag, fmt.Sprintf("failed ... and %d more", b.failed-len(b.fails)))
	}
	return res, diag, nil
}

// layerMetrics assembles the per-layer metrics of a traced run and
// checks that no span's children exceed it.
func (b *bench) layerMetrics(sr spanReport, traced *phase) map[string]float64 {
	vals := map[string]float64{}
	for name, v := range sr.meanMs {
		vals[name+"_ms"] = v
	}
	for _, l := range spanLayers {
		vals[l+".self_ms"] = sr.selfMs[l]
	}
	var err error
	if sr.violations > 0 {
		err = fmt.Errorf("%d spans exceed their parent", sr.violations)
	}
	b.check("trace nesting", err)
	if traced.split != nil && traced.split.handlerN > 0 {
		b.check("server split", traced.split.metrics(vals))
	}
	a := &b.acc
	div := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	vals["ccparse.files_parsed"] = div(float64(a.parsed), float64(a.ops))
	vals["ccparse.mb_per_s"] = div(float64(a.parseBytes)*1e3, float64(a.parseNs))
	vals["artifact.apply_ms"] = div(float64(a.applyNs)/1e6, float64(a.deltas))
	vals["artifact.dirty_shards"] = div(float64(a.dirty), float64(a.deltas))
	vals["rules.files_rechecked"] = div(float64(a.rechecked), float64(a.ops))
	vals["rules.recheck_per_changed_file"] = div(float64(a.rechecked), float64(a.changed))
	vals["metrics.files_recomputed"] = div(float64(a.recomputed), float64(a.ops))
	vals["store.snapshot_mb"] = float64(a.snapshotBytes) / 1e6
	vals["store.journal_records"] = float64(a.journalRecords)
	vals["store.compactions"] = float64(a.compactions)
	if _, ok := vals["service.boot_ms"]; !ok {
		vals["service.boot_ms"] = a.bootMs
	}
	if _, ok := vals["service.close_ms"]; !ok {
		vals["service.close_ms"] = a.closeMs
	}
	return vals
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func kv(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, m[k])
	}
	return strings.Join(parts, " ")
}

func tailLine(name string, xs []float64) string {
	v, pct := tail(xs)
	if pct == 0 {
		return fmt.Sprintf("%s: n=%d (no percentile has ten samples beyond it)", name, len(xs))
	}
	return fmt.Sprintf("%s: p%.1f=%.3fms n=%d", name, pct, v, len(xs))
}

// errIf returns an error built from format when cond holds.
func errIf(cond bool, format string, args ...any) error {
	if !cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}
