// Command samplealignd is one rank of a multi-process Sample-Align-D
// cluster over TCP: start one instance per node (or per core), each with
// its shard of the input; rank 0 writes the final alignment.
//
// Example — a 4-rank cluster on one machine:
//
//	samplealignd -rank 0 -addrs :7000,:7001,:7002,:7003 -in shard0.fa -out aligned.fa &
//	samplealignd -rank 1 -addrs :7000,:7001,:7002,:7003 -in shard1.fa &
//	samplealignd -rank 2 -addrs :7000,:7001,:7002,:7003 -in shard2.fa &
//	samplealignd -rank 3 -addrs :7000,:7001,:7002,:7003 -in shard3.fa &
//
// Every rank must list the same addresses (rank i listens on addrs[i]);
// ranks given different lists refuse each other's mesh hello.
//
// Worker mode — instead of one batch run, serve cluster jobs, side by
// side, each on a mesh port of its own, dispatched by a samplealignsrv
// coordinator (which is rank 0 and ships each job's shard over the
// control connection):
//
//	samplealignd -worker-ctrl :9001
//
// -metrics-addr serves rank-local Prometheus metrics (per-stage
// latencies, job counts, DP-kernel tallies) on a separate listener in
// either mode; -pprof-addr does the same for net/http/pprof.
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
	rank := flag.Int("rank", -1, "this process's rank (required)")
	addrList := flag.String("addrs", "", "comma-separated listen addresses, one per rank (required)")
	in := flag.String("in", "", "this rank's input FASTA shard (required)")
	out := flag.String("out", "", "output FASTA file (rank 0 only; default stdout)")
	workers := flag.Int("workers", 1, "shared-memory workers in this rank, covering guide-tree construction (distance matrix, UPGMA/NJ) and merging; identical output for any value (0 = all cores)")
	aligner := flag.String("aligner", "muscle", "bucket aligner")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
	workerCtrl := flag.String("worker-ctrl", "", "serve cluster jobs: control listen address (see samplealignsrv -cluster)")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines (default: text)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address — a separate listener (empty = disabled)")
	metricsAddr := flag.String("metrics-addr", "", "serve rank-local Prometheus metrics (stage latencies, job counts, kernel tallies) on this address — a separate listener (empty = disabled)")
	flag.Parse()

	var h slog.Handler
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(h).With("app", "samplealignd")

	if *pprofAddr != "" {
		bound, psrv, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listen %s: %w", *pprofAddr, err))
		}
		defer psrv.Close()
		logger.Info("pprof listening", "addr", bound)
	}

	// Rank-local metrics ride their own listener (same pattern as
	// -pprof-addr) so scraping never touches the mesh or control ports.
	var wm *serve.WorkerMetrics
	if *metricsAddr != "" {
		wm = serve.NewWorkerMetrics()
		bound, msrv, err := obs.Serve(*metricsAddr, wm.Handler())
		if err != nil {
			fatal(fmt.Errorf("metrics listen %s: %w", *metricsAddr, err))
		}
		defer msrv.Close()
		logger.Info("metrics listening", "addr", bound)
	}

	if *workerCtrl != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := serve.RunWorker(ctx, serve.WorkerConfig{
			CtrlAddr: *workerCtrl,
			Metrics:  wm,
			Logger:   logger,
		})
		if err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}

	addrs := strings.FieldsFunc(*addrList, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if *rank < 0 || *in == "" || len(addrs) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *rank >= len(addrs) {
		fatal(fmt.Errorf("rank %d out of range for %d addresses", *rank, len(addrs)))
	}
	local, err := samplealign.ReadFASTAFile(*in)
	if err != nil {
		fatal(err)
	}
	logger.Info("rank starting", "rank", *rank, "procs", len(addrs),
		"local_seqs", len(local), "listen", addrs[*rank])

	// SIGINT/SIGTERM (and an optional -timeout deadline) cancel the run:
	// the rank unwinds its collectives, closes its peer connections and
	// exits instead of hanging the rest of the cluster.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Batch mode feeds the same stage histograms through a rank-local
	// hook-only tracer; output stays byte-identical (tracing only
	// observes).
	if wm != nil {
		ctx = obs.WithTracer(ctx, obs.NewHook(wm.ObserveStage))
		wm.JobStarted()
	}
	aln, err := samplealign.AlignTCPContext(ctx,
		samplealign.TCPRankConfig{Rank: *rank, Addrs: addrs},
		local,
		samplealign.WithWorkers(*workers),
		samplealign.WithLocalAligner(*aligner),
	)
	wm.JobFinished(err == nil)
	if err != nil {
		fatal(err)
	}
	if *rank != 0 {
		logger.Info("rank done", "rank", *rank)
		return
	}
	if *out == "" {
		if err := samplealign.WriteFASTA(os.Stdout, aln.Seqs); err != nil {
			fatal(err)
		}
		return
	}
	if err := samplealign.WriteFASTAFile(*out, aln.Seqs); err != nil {
		fatal(err)
	}
	logger.Info("alignment written", "num_seqs", aln.NumSeqs(), "width", aln.Width(), "out", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "samplealignd:", err)
	os.Exit(1)
}
