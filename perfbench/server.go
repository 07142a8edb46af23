package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// storeOptions configures every data directory the benchmark opens, as
// adserve -journal-max-records 256 would: the journal compacts into a
// fresh snapshot every 256 records, so edit-10k completes several
// compaction cycles in every run rather than zero or one depending on
// its speed (the default, 1024, sits at about one run's worth of
// edits). The byte threshold keeps its default.
var storeOptions = store.Options{MaxJournalRecords: 256}

// newClient is the workloads' HTTP client. Bodies travel uncompressed,
// as a client that does not ask for gzip sees them.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		DisableCompression:  true,
		MaxIdleConnsPerHost: 4,
	}}
}

// server is a persistent adserve instance in this process, serving on a
// loopback port.
type server struct {
	svc  *service.Server
	hs   *http.Server
	done chan struct{}
	base string
	cl   *http.Client
}

// bootServer restores the data directory exactly as adserve -data-dir
// does and starts serving it. The previous process must have shut down
// cleanly: the boot must replay nothing.
func bootServer(dir string, cl *http.Client) (*server, error) {
	d, err := store.Open(dir, storeOptions)
	if err != nil {
		return nil, err
	}
	svc, restored, err := service.NewWithStore(d)
	if err != nil {
		return nil, err
	}
	if len(restored) != 1 || restored[0].Name != corpusName || !restored[0].Clean {
		_ = svc.Close()
		return nil, fmt.Errorf("boot restored %+v, want one clean corpus %q", restored, corpusName)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	s := &server{
		svc:  svc,
		hs:   &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: time.Minute},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		cl:   cl,
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops serving, waits for the serve loop to exit, then drains the
// corpus to disk (snapshot and clean-shutdown marker).
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.cl.CloseIdleConnections()
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// get reads one endpoint of the corpus and returns the body and the
// client-observed latency (request sent to body fully read).
func (s *server) get(path string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := s.cl.Get(s.base + path + "?corpus=" + corpusName)
	if err != nil {
		return nil, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, lat, nil
}

// postDelta sends one delta and decodes its ack.
func (s *server) postDelta(d delta) (*service.DeltaResponse, time.Duration, error) {
	payload, err := json.Marshal(d.req)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := s.cl.Post(s.base+"/delta", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("POST /delta: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack service.DeltaResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		return nil, lat, err
	}
	return &ack, lat, nil
}

// statz is a decoded /statz snapshot.
type statz []obs.MetricValue

func (s *server) statz() (statz, error) {
	body, _, err := s.get("/statz")
	if err != nil {
		return nil, err
	}
	var r service.StatzResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return r.Metrics, nil
}

// series sums value (count for histograms) and sum over the series of
// name whose labels include every key=value pair in kv.
func (z statz) series(name string, kv ...string) (value, sum int64) {
	for _, m := range z {
		if m.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(kv); i += 2 {
			if m.Labels[kv[i]] != kv[i+1] {
				ok = false
				break
			}
		}
		if ok {
			value += m.Value
			sum += m.Sum
		}
	}
	return value, sum
}

// phaseNames are the delta pipeline's span phases as /metrics names them.
var phaseNames = []string{"prepare", "commit", "journal_stage", "assess", "sync_barrier", "render"}

// readEndpoints are the endpoints the workloads time.
var readEndpoints = []string{"/delta", "/report", "/findings"}

// serverSplit accumulates the server-side breakdown of client requests:
// /statz phase and handler sums next to the client's own timings.
type serverSplit struct {
	phaseNs, phaseN     map[string]int64
	handlerNs, handlerN int64
	clientNs, clientN   int64
	fsyncs, acked       int64
}

func newServerSplit() *serverSplit {
	return &serverSplit{phaseNs: map[string]int64{}, phaseN: map[string]int64{}}
}

// addStatz adds the difference between two snapshots of one server
// (before may be nil for a freshly booted server).
func (sp *serverSplit) addStatz(before, after statz) {
	diff := func(name string, kv ...string) (int64, int64) {
		v1, s1 := after.series(name, kv...)
		v0, s0 := before.series(name, kv...)
		return v1 - v0, s1 - s0
	}
	for _, p := range phaseNames {
		n, ns := diff("adserve_delta_phase_ns", "phase", p)
		sp.phaseN[p] += n
		sp.phaseNs[p] += ns
	}
	for _, ep := range readEndpoints {
		n, ns := diff("adserve_request_latency_ns", "endpoint", ep)
		sp.handlerN += n
		sp.handlerNs += ns
	}
	f, _ := diff("adserve_journal_fsyncs_total")
	a, _ := diff("adserve_deltas_acked_total")
	sp.fsyncs += f
	sp.acked += a
}

func (sp *serverSplit) client(lat time.Duration) {
	sp.clientNs += lat.Nanoseconds()
	sp.clientN++
}

// metrics returns the service.* per-layer metrics and an error when a
// part exceeds its whole: phases must fit in handler time, handler time
// in client time, and the server must have seen every client request.
func (sp *serverSplit) metrics(out map[string]float64) error {
	var phases int64
	for _, p := range phaseNames {
		v := 0.0
		if sp.phaseN[p] > 0 {
			v = float64(sp.phaseNs[p]) / 1e6 / float64(sp.phaseN[p])
		}
		out["service.phase."+p+"_ms"] = v
		phases += sp.phaseNs[p]
	}
	if sp.handlerN == 0 {
		return nil
	}
	out["service.wait_ms"] = float64(sp.handlerNs-phases) / 1e6 / float64(sp.handlerN)
	out["service.client_ms"] = float64(sp.clientNs-sp.handlerNs) / 1e6 / float64(sp.handlerN)
	if sp.acked > 0 {
		out["store.fsyncs_per_delta"] = float64(sp.fsyncs) / float64(sp.acked)
	}
	switch {
	case sp.handlerN != sp.clientN:
		return fmt.Errorf("server handled %d timed requests, client sent %d", sp.handlerN, sp.clientN)
	case phases > sp.handlerNs:
		return fmt.Errorf("phases %dns exceed handler time %dns", phases, sp.handlerNs)
	case sp.handlerNs > sp.clientNs:
		return fmt.Errorf("handler time %dns exceeds client time %dns", sp.handlerNs, sp.clientNs)
	}
	return nil
}
