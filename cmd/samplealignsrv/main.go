// Command samplealignsrv serves Sample-Align-D as a long-running HTTP
// job service: submit FASTA over HTTP, poll for status, fetch the
// aligned result. Jobs flow through a bounded queue with admission
// control (429 on overload) and identical resubmissions are answered
// from a content-addressed result cache.
//
// Usage:
//
//	samplealignsrv -addr :8080 -p 4 -max-concurrent 2
//
// The flags fill a serve.Config, and their defaults are read from
// serve.Config{}.WithDefaults(), the same table an embedded server
// uses: -max-procs is 64 (−1 lifts the cap) and -drain-timeout 30s
// either way.
//
// Submit / poll / fetch:
//
//	curl -s --data-binary @seqs.fa 'localhost:8080/v1/jobs?procs=4'   # → {"id":"j..."}
//	curl -s localhost:8080/v1/jobs/<id>                               # status
//	curl -s localhost:8080/v1/jobs/<id>/result                        # aligned FASTA
//	curl -s localhost:8080/v1/jobs/<id>/trace                         # pipeline span tree
//	curl -sN localhost:8080/v1/jobs/<id>/events                       # live progress (SSE)
//
// Or synchronously (client disconnect cancels the job):
//
//	curl -s --data-binary @seqs.fa localhost:8080/v1/align
//
// Or many inputs in one request — admitted all-or-nothing against the
// queue bound and journaled as a single commit group:
//
//	curl -s -H 'Content-Type: application/json' \
//	     -d '{"inputs":[{"fasta":">a\nACGT\n"},{"fasta":">b\nAAGT\n"}]}' \
//	     localhost:8080/v1/batch
//
// With -data-dir the server is durable: accepted jobs are journaled
// before they run and results are persisted content-addressed on disk,
// so a restart re-enqueues unfinished jobs, keeps finished ones
// visible, and serves their results from disk without recomputing:
//
//	samplealignsrv -addr :8080 -data-dir /var/lib/samplealign
//
// With -cluster, jobs fan out over a pre-connected TCP rank cluster of
// samplealignd worker daemons instead of in-process ranks. Each job
// binds its own mesh ports, so up to -max-concurrent cluster jobs run
// at once on the same workers:
//
//	samplealignd -worker-ctrl :9001 &
//	samplealignd -worker-ctrl :9002 &
//	samplealignsrv -addr :8080 -cluster 127.0.0.1:9001,127.0.0.1:9002
//
// Observability: logs are structured (text by default, -log-json for
// JSON lines), every job carries a trace ID tying logs, the span tree
// at /v1/jobs/{id}/trace, the live Server-Sent-Events progress stream
// at /v1/jobs/{id}/events and the per-stage histograms on /metrics
// together, and -pprof-addr serves net/http/pprof on its own listener.
// In cluster mode the trace spans every rank: workers run their own
// tracers and ship their span trees back for grafting into one tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"unicode"

	samplealign "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	def := serve.Config{}.WithDefaults()
	addr := flag.String("addr", ":8080", "HTTP listen address")
	procs := flag.Int("p", def.Defaults.Procs, "default ranks per job")
	workers := flag.Int("workers", def.Defaults.Workers, "default shared-memory workers per rank")
	aligner := flag.String("aligner", def.Defaults.Aligner,
		fmt.Sprintf("default bucket aligner: %s", strings.Join(samplealign.SequentialAligners(), "|")))
	maxConcurrent := flag.Int("max-concurrent", def.MaxConcurrent, "jobs aligning at once")
	maxQueued := flag.Int("max-queued", def.MaxQueued, "queued jobs beyond the running ones (429 past this)")
	maxProcs := flag.Int("max-procs", def.Limits.MaxProcs, "reject jobs requesting more ranks than this (-1 = no cap)")
	workerBudget := flag.Int("worker-budget", def.Limits.WorkerBudget, "clamp procs*workers per job (0 = no cap)")
	cacheEntries := flag.Int("cache-entries", def.CacheEntries, "result cache entry bound (-1 disables)")
	cacheBytes := flag.Int64("cache-bytes", def.CacheBytes, "result cache byte bound (-1 unbounded)")
	dataDir := flag.String("data-dir", "", "durability directory: write-ahead job journal + on-disk result store (empty = in-memory only)")
	storeEntries := flag.Int("store-entries", def.StoreEntries, "result files the on-disk store holds, each with its job trace (-1 disables the disk tier)")
	storeBytes := flag.Int64("store-bytes", def.StoreBytes, "byte bound over the on-disk store's result files, traces and all (-1 unbounded)")
	drainTimeout := flag.Duration("drain-timeout", def.DrainTimeout, "how long SIGTERM/SIGINT waits for running jobs before hard-canceling (<0 skips draining)")
	cluster := flag.String("cluster", "", "comma-separated worker control addresses (samplealignd -worker-ctrl); empty = in-process ranks")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines (default: text)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address — a separate listener, never the public API mux (empty = disabled)")
	noTrace := flag.Bool("no-trace", false, "disable per-job span tracing (trace endpoint answers 404; output bytes are identical either way)")
	flag.Parse()

	logger := newLogger(*logJSON)

	cfg := serve.Config{
		Defaults: serve.Options{Procs: *procs, Workers: *workers, Aligner: *aligner},
		Limits:   serve.Limits{MaxProcs: *maxProcs, WorkerBudget: *workerBudget},

		MaxConcurrent: *maxConcurrent,
		MaxQueued:     *maxQueued,
		CacheEntries:  *cacheEntries,
		CacheBytes:    *cacheBytes,
		DataDir:       *dataDir,
		StoreEntries:  *storeEntries,
		StoreBytes:    *storeBytes,
		DrainTimeout:  *drainTimeout,
		Logger:        logger,
		NoTrace:       *noTrace,
	}
	mode := "inproc"
	if ctrls := strings.FieldsFunc(*cluster, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }); len(ctrls) > 0 {
		cfg.Executor = &serve.Cluster{Workers: ctrls}
		mode = fmt.Sprintf("cluster(%d workers)", len(ctrls))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		// pprof runs on its own listener so the profiling endpoints are
		// never reachable through the public API address.
		bound, psrv, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			logger.Error("pprof listen failed", "addr", *pprofAddr, "err", err)
			os.Exit(1)
		}
		defer psrv.Close()
		logger.Info("pprof listening", "addr", bound)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if rec := srv.Recovery(); rec.Enabled {
		logger.Info("journal recovery complete", "data_dir", *dataDir,
			"journal_records", rec.JournalRecords, "finished_restored", rec.Finished,
			"requeued", rec.Requeued, "interrupted", rec.Interrupted,
			"clean_shutdown", rec.CleanShutdown)
	}
	logger.Info("listening", "addr", *addr, "executor", mode,
		"default_procs", *procs, "default_aligner", *aligner, "tracing", !*noTrace)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger: text for humans by default, one
// JSON object per line with -log-json for log shippers.
func newLogger(jsonLines bool) *slog.Logger {
	var h slog.Handler
	if jsonLines {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h).With("app", "samplealignsrv")
}
