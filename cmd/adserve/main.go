// Command adserve runs the assessment service: a long-running HTTP JSON
// API holding warm assessor state per corpus, so repeated assessments of
// nearly-identical corpora take the incremental path. With -data-dir
// the service is persistent: corpora are restored on boot from their
// snapshot plus delta-journal replay (torn journal tails from a crash
// mid-append are dropped), every /delta is journaled and fsync'd before
// it is acknowledged, and a graceful shutdown drains in-flight
// requests, compacts each corpus into a fresh snapshot, and writes a
// clean-shutdown marker so the next boot replays nothing.
//
// Usage:
//
//	adserve [-addr :8080] [-allow-dir] [-max-body bytes] [-data-dir DIR]
//	        [-trace-log PATH] [-trace-threshold 100ms]
//
// Endpoints (see internal/service):
//
//	POST /assess   {"corpus":"c1","files":{"m/a.c":"int x;..."}}      load + assess
//	POST /assess   {"corpus":"c1","generate":true,"seed":26262}       generated corpus
//	POST /delta    {"corpus":"c1","changed":{"m/a.c":"..."},"removed":["m/b.c"]}
//	POST /snapshot {"corpus":"c1"}                                    force compaction
//	GET  /report?corpus=c1                                            full report (gzip-aware)
//	GET  /findings?corpus=c1                                          every finding (gzip-aware)
//	GET  /healthz                                                     liveness
//	GET  /metrics                                                     Prometheus text exposition
//	GET  /statz                                                       metrics snapshot as JSON
//
// With -trace-log PATH (or "-" for stderr) requests slower than
// -trace-threshold are appended to PATH as JSON lines, one per request,
// with the delta pipeline's per-phase timing breakdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "adserve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addrFlag := flag.String("addr", ":8080", "listen address")
	allowDirFlag := flag.Bool("allow-dir", false,
		"allow POST /assess to load server-side directories via \"dir\"")
	maxBodyFlag := flag.Int64("max-body", service.DefaultMaxBody,
		"maximum request body size in bytes")
	dataDirFlag := flag.String("data-dir", "",
		"persist corpora under this directory (snapshot + delta journal, restored on boot)")
	journalMBFlag := flag.Int64("journal-max-mb", 0,
		"compact once the delta journal exceeds this many MiB (0 = default)")
	journalRecsFlag := flag.Int("journal-max-records", 0,
		"compact once the delta journal holds this many records (0 = default, negative disables)")
	pprofFlag := flag.Bool("pprof", false,
		"expose net/http/pprof under /debug/pprof/ (off by default; profiling data leaks source paths)")
	traceLogFlag := flag.String("trace-log", "",
		"append slow-request JSON lines to this file (\"-\" = stderr)")
	traceThresholdFlag := flag.Duration("trace-threshold", 100*time.Millisecond,
		"minimum request duration for a -trace-log line (0 traces everything)")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if *maxBodyFlag <= 0 {
		return fmt.Errorf("-max-body must be positive (got %d)", *maxBodyFlag)
	}
	if *dataDirFlag == "" && (*journalMBFlag != 0 || *journalRecsFlag != 0) {
		return errors.New("-journal-max-mb/-journal-max-records require -data-dir")
	}

	var svc *service.Server
	if *dataDirFlag != "" {
		d, err := store.Open(*dataDirFlag, store.Options{
			MaxJournalBytes:   *journalMBFlag << 20,
			MaxJournalRecords: *journalRecsFlag,
		})
		if err != nil {
			return err
		}
		var restored []service.RestoredCorpus
		if svc, restored, err = service.NewWithStore(d); err != nil {
			return err
		}
		fmt.Printf("adserve: data dir %s, %d corpora restored\n", *dataDirFlag, len(restored))
		for _, rc := range restored {
			how := fmt.Sprintf("%d journal records replayed", rc.Replayed)
			if rc.Clean {
				how = "clean shutdown, nothing to replay"
			}
			if rc.Stale > 0 {
				how += fmt.Sprintf(", %d stale journal records skipped", rc.Stale)
			}
			if rc.Torn {
				how += ", torn journal tail dropped"
			}
			fmt.Printf("adserve: restored corpus %q (%d files; %s)\n", rc.Name, rc.Files, how)
		}
	} else {
		svc = service.New()
	}
	svc.AllowDir = *allowDirFlag
	svc.MaxBody = *maxBodyFlag
	if *traceLogFlag != "" {
		svc.TraceThreshold = *traceThresholdFlag
		if *traceLogFlag == "-" {
			svc.TraceLog = os.Stderr
		} else {
			f, err := os.OpenFile(*traceLogFlag, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("-trace-log: %w", err)
			}
			defer f.Close()
			svc.TraceLog = f
		}
		fmt.Printf("adserve: tracing requests >= %v to %s\n", *traceThresholdFlag, *traceLogFlag)
	}
	handler := svc.Handler()
	if *pprofFlag {
		// Opt-in only: the profile endpoints reveal heap contents and
		// goroutine stacks (hence corpus paths and source fragments), so
		// they never ship on by default.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Printf("adserve: pprof enabled under /debug/pprof/\n")
	}
	srv := &http.Server{
		Addr:              *addrFlag,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("adserve: listening on %s\n", *addrFlag)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		svc.Close()
		return err
	case sig := <-stop:
		fmt.Printf("adserve: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain in-flight requests first, then flush state to disk:
		// compact every corpus, sync and close the journals, and write
		// the clean-shutdown markers.
		if err := srv.Shutdown(ctx); err != nil {
			svc.Close()
			return err
		}
		if err := svc.Close(); err != nil {
			return fmt.Errorf("flush state: %w", err)
		}
		if *dataDirFlag != "" {
			fmt.Println("adserve: state flushed, clean shutdown")
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
