// Command pearld is the PEARL simulation-as-a-service daemon: a JSON
// HTTP API over a bounded job queue, a worker pool of concurrent
// simulations, a content-addressed result cache and a live metrics
// endpoint. See the README's "pearld" section for the API walkthrough.
//
// Usage:
//
//	pearld                         # listen on :8080 with GOMAXPROCS workers
//	pearld -addr :9000 -workers 8 -queue 256 -cache 4096 -timeout 2m
//	pearld -cache-dir /var/cache/pearld            # results survive restarts
//	pearld -cache-dir d -warm-cache results/       # preload from artifacts
//	pearld -model-dir models/                      # host trained ML models
//	pearld -peers http://b:8080,http://c:8080      # shard batches across peers
//	pearld -tenants tenants.json                   # token auth + fair-share scheduling
//	pearld -stream-ring 1024 -max-streams 4        # tune the live /events SSE feeds
//	pearld -model-dir models/ -canary rw500        # online canary retraining of "rw500"
//
// SIGINT/SIGTERM starts a graceful drain: intake stops (503), queued
// jobs are cancelled, in-flight simulations finish (bounded by
// -drain-grace), then the process exits. SIGHUP reloads the -tenants
// file in place without dropping queued or running jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "bounded job-queue depth")
		cacheCap     = flag.Int("cache", 1024, "result-cache capacity (entries, LRU)")
		cacheDir     = flag.String("cache-dir", "", "directory for the disk-persistent result cache (empty = memory only)")
		cacheDirMax  = flag.Int64("cache-dir-max", 0, "disk cache size cap in bytes (0 = 256 MiB default)")
		warmCache    = flag.String("warm-cache", "", "JSON artifact file or directory to preload the cache from")
		modelDir     = flag.String("model-dir", "", "directory of trained model artifacts to host (rw500.json serves ref \"rw500\"); uploads via POST /v1/models persist here")
		peers        = flag.String("peers", "", "comma-separated base URLs of shard peers (e.g. http://b:8080,http://c:8080); batch points are partitioned across peers by content hash")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-request timeout for shard peer calls (0 = 15s default)")
		shardRetries = flag.Int("shard-retries", 0, "attempts against an unavailable peer before falling back to local execution (0 = 3 default)")
		tenants      = flag.String("tenants", "", "JSON tenant config file (tokens, weights, quotas); empty = open access as a single anonymous tenant. SIGHUP or POST /v1/admin/tenants/reload re-reads it")
		shardToken   = flag.String("shard-token", "", "service API token peer calls fall back to when a job carries no tenant token (tokenized clusters)")
		streamRing   = flag.Int("stream-ring", 0, "per-feed event ring capacity for /events streams; overflow drops oldest (0 = 512 default)")
		streamHB     = flag.Duration("stream-heartbeat", 0, "idle heartbeat interval on /events streams (0 = 15s default)")
		maxStreams   = flag.Int("max-streams", 0, "default per-tenant concurrent /events stream cap; per-tenant max_streams overrides (0 = 16 default)")
		canary       = flag.String("canary", "", "hosted model name to retrain online: completed ML jobs at its window feed an RLS estimator; POST /v1/admin/canary/refine publishes a new version, promoting the alias only on holdout improvement")
		canaryMin    = flag.Int("canary-min-samples", 0, "minimum RLS updates before a refinement is allowed (0 = 64 default)")
		canaryHold   = flag.Int("canary-holdout", 0, "hold every Nth window sample out of training for the promotion gate (0 = 8 default)")

		timeout    = flag.Duration("timeout", 5*time.Minute, "default per-job wall-clock timeout")
		drainGrace = flag.Duration("drain-grace", 2*time.Minute, "how long shutdown waits for in-flight jobs")
		pprofAddr  = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled); kept off the API listener so profiling is never exposed with it")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	opts := server.Options{
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheCapacity:       *cacheCap,
		CacheDir:            *cacheDir,
		CacheDirMaxBytes:    *cacheDirMax,
		ModelDir:            *modelDir,
		DefaultTimeout:      *timeout,
		Peers:               splitPeers(*peers),
		ShardTimeout:        *shardTimeout,
		ShardRetries:        *shardRetries,
		TenantsFile:         *tenants,
		ShardToken:          *shardToken,
		StreamRingCapacity:  *streamRing,
		StreamHeartbeat:     *streamHB,
		MaxStreamsPerTenant: *maxStreams,
		CanaryAlias:         *canary,
		CanaryMinSamples:    *canaryMin,
		CanaryHoldoutEvery:  *canaryHold,
	}
	if err := run(*addr, opts, *warmCache, *drainGrace); err != nil {
		fmt.Fprintln(os.Stderr, "pearld:", err)
		os.Exit(1)
	}
}

// splitPeers turns the -peers flag into the Options list, tolerating
// spaces and empty elements ("a, b," -> ["a", "b"]).
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// servePprof exposes the standard pprof handlers on their own listener,
// on an explicit mux rather than http.DefaultServeMux so nothing else
// registered there leaks out with them.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("pearld: pprof listening on %s", addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("pearld: pprof listener: %v", err)
	}
}

func run(addr string, opts server.Options, warmCache string, drainGrace time.Duration) error {
	daemon, err := server.New(opts)
	if err != nil {
		return err
	}
	if warmCache != "" {
		stats, err := daemon.WarmCache(warmCache)
		if err != nil {
			return err
		}
		log.Printf("pearld: warmed cache from %s (%s)", warmCache, stats)
	}
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           daemon,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("pearld listening on %s", addr)
		errCh <- httpServer.ListenAndServe()
	}()

	// SIGHUP hot-reloads the tenant config without touching queued or
	// running jobs; a broken file logs and keeps the previous tenants.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if names, err := daemon.ReloadTenants(); err != nil {
				log.Printf("pearld: tenant reload failed, keeping previous config: %v", err)
			} else {
				log.Printf("pearld: tenant config reloaded (%d tenants: %s)",
					len(names), strings.Join(names, ", "))
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("pearld: %v received, draining (grace %v)", s, drainGrace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	drainErr := daemon.Shutdown(ctx)
	if drainErr != nil {
		log.Printf("pearld: drain incomplete, in-flight jobs force-cancelled: %v", drainErr)
	} else {
		log.Printf("pearld: drained cleanly")
	}
	if err := httpServer.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
