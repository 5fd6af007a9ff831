// Command minserve serves the min public API over HTTP: the network
// catalog, the paper's characterization check, bit-directed routing
// and the parallel traffic-simulation engine. Bodies are JSON by
// default; clients may negotiate the binary wire codec per request
// with Content-Type / Accept: application/x-min-bin (sweep-sized
// fault plans shrink ~9x on the wire — see the minserve package doc).
//
// Usage:
//
//	minserve -addr :8080
//	curl localhost:8080/v1/networks
//	curl -d '{"network":"omega","stages":4}' localhost:8080/v1/check
//	curl -d '{"network":"omega","stages":6,"waves":500,"seed":7}' localhost:8080/v1/simulate
//
// With -jobs-dir, long sweeps run on the checkpointed job plane and
// survive restarts:
//
//	minserve -addr :8080 -jobs-dir /var/lib/minserve/jobs
//	curl -d '{"networks":["omega","baseline"],"stages":6,"faultRates":[0,0.05],"trialsPerCell":20000}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/<id>/events
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests get -grace to finish (cancelled simulations stop within one
// trial), and the job plane drains — running shards checkpoint, so a
// restart resumes exactly where the logs end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minequiv/minserve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "minserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("minserve", flag.ContinueOnError)
	def := minserve.DefaultConfig()
	addr := fs.String("addr", ":8080", "listen address")
	maxBody := fs.Int64("max-body", def.MaxBodyBytes, "request body size limit, bytes")
	maxStages := fs.Int("max-stages", def.MaxStages, "largest accepted network (terminals = 2^stages)")
	maxTrials := fs.Int("max-trials", def.MaxTrials, "largest accepted waves/replications count")
	maxCycles := fs.Int("max-cycles", def.MaxCycles, "largest accepted cycles+warmup per replication")
	maxFaults := fs.Int("max-faults", def.MaxFaults, "largest accepted pinned-fault list per request")
	maxBatch := fs.Int("max-batch", def.MaxBatch, "largest accepted /v1/batch item count")
	cacheEntries := fs.Int("cache-entries", def.CacheEntries, "response cache capacity (negative disables)")
	maxConcurrent := fs.Int("max-concurrent", 0, "admitted work requests executing at once (0 = GOMAXPROCS, negative disables admission)")
	maxQueue := fs.Int("max-queue", def.MaxQueueDepth, "work requests allowed to wait for a slot (negative: shed immediately)")
	queueWait := fs.Duration("queue-wait", def.QueueWait, "longest one request may wait in the queue")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline, queue wait included (0 disables)")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	jobsDir := fs.String("jobs-dir", "", "checkpoint directory for the async job plane (empty: jobs are in-memory and die with the process)")
	jobWorkers := fs.Int("job-workers", 0, "job-plane shard executors (0 = GOMAXPROCS)")
	jobTTL := fs.Duration("job-ttl", def.JobTTL, "how long finished jobs (and their checkpoints) are kept (negative: forever)")
	maxJobs := fs.Int("max-jobs", def.MaxJobs, "live jobs accepted at once")
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc, err := minserve.New(minserve.Config{
		MaxBodyBytes:   *maxBody,
		MaxStages:      *maxStages,
		MaxTrials:      *maxTrials,
		MaxCycles:      *maxCycles,
		MaxFaults:      *maxFaults,
		MaxBatch:       *maxBatch,
		CacheEntries:   *cacheEntries,
		MaxConcurrent:  *maxConcurrent,
		MaxQueueDepth:  *maxQueue,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		JobsDir:        *jobsDir,
		JobWorkers:     *jobWorkers,
		JobTTL:         *jobTTL,
		MaxJobs:        *maxJobs,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// No WriteTimeout: long simulations are legitimate; the request
		// limits above bound them, and BaseContext cancellation stops
		// abandoned runs.
	}
	fmt.Fprintf(w, "minserve listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(w, "minserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	httpErr := srv.Shutdown(shutdownCtx)
	if httpErr != nil {
		// Requests still running after the grace period are cut off.
		_ = srv.Close()
	}
	// Drain the job plane within the same grace budget: in-flight shards
	// finish and checkpoint; past the deadline they are aborted and will
	// simply re-run after the next start.
	if err := svc.Close(shutdownCtx); err != nil {
		fmt.Fprintln(w, "minserve: job drain cut short; unfinished shards will re-run on restart")
	}
	if httpErr != nil {
		return fmt.Errorf("graceful shutdown: %w", httpErr)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "minserve: bye")
	return nil
}
