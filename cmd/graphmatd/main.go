// Command graphmatd is the GraphMat analytics service: a long-running HTTP
// daemon that keeps graphs and engine scratch resident so many clients share
// one loaded graph across queries (the RedisGraph deployment model for a
// GraphBLAS-style engine).
//
// Usage:
//
//	graphmatd -addr :8765 -graph web=data/web.mtx -graph social=rmat:scale=16,edgefactor=16,seed=1
//	graphmatd -addr :8765 -data-dir /var/lib/graphmat -graph web=data/web.mtx
//
// With -data-dir, every registered graph checkpoints to an mmap-ready
// snapshot plus a write-ahead log under <data-dir>/<name>/; on restart the
// daemon boots from the snapshot (zero-copy map, no re-parse) and replays
// the WAL, so acked edge updates survive crashes.
//
// Endpoints (all under /v1; the unversioned forms are deprecated aliases
// answering with a Deprecation header):
//
//	GET    /v1/healthz                    liveness
//	GET    /v1/stats                      per-endpoint, per-algorithm, cache and batcher tallies
//	GET    /v1/algorithms                 available algorithms and their parameters
//	GET    /v1/openapi.json               machine-readable API description
//	GET    /v1/graphs                     registered graphs
//	POST   /v1/graphs                     register a graph: {"name":..., "path":...} or {"name":..., "generator":"rmat", "scale":14, ...}
//	POST   /v1/graphs?name=N&format=F     upload a graph body (format mtx, edgelist or bin), parsed server-side in parallel
//	GET    /v1/graphs/{name}              one graph's details
//	DELETE /v1/graphs/{name}              unregister a graph
//	POST   /v1/graphs/{name}/edges        apply a live edge-update batch
//	POST   /v1/graphs/{name}/run          unified run: {"algo":..., "sources":[...], "mode":..., "params":{...}, "timeout_ms":..., "stream":...}
//	POST   /v1/graphs/{name}/run/{algo}   run an algorithm; body holds its parameters
//
// Single-source /v1 run requests are admitted by group commit: a request
// for a (graph, algorithm, epoch, parameters) key with no run in flight runs
// at once on the scalar engine; requests arriving while a run for their key
// is in flight queue behind it and are coalesced into one multi-source block
// run when it ends, with per-source results fanned back out bit-identically.
// Nothing is timed, so there is no window to configure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphmat/internal/server"
)

// Connection limits of the HTTP listener. A client must finish its request
// headers within readHeaderTimeout and within maxHeaderBytes, and an idle
// keep-alive connection is closed after idleTimeout, so a stalled or
// abandoned client cannot hold a connection open forever. Bodies and
// responses have no whole-request deadline: uploads may be large and
// streamed runs long-lived, and each has its own limits in the server.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer builds the daemon's listener for handler h on addr.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// graphFlags collects repeated -graph name=spec values.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ", ") }

func (g *graphFlags) Set(v string) error {
	*g = append(*g, v)
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", ":8765", "listen address")
		cacheSize  = flag.Int("cache", 128, "result-cache capacity in entries (negative disables)")
		partitions = flag.Int("partitions", 0, "matrix partitions per graph build (0 = auto)")
		jobs       = flag.Int("j", 0, "ingestion workers for uploads and preloads (0 = GOMAXPROCS, 1 = sequential)")
		maxUpload  = flag.Int64("max-upload", 0, "largest accepted POST /graphs upload in bytes (0 = 1 GiB)")
		dataDir    = flag.String("data-dir", "", "persistence root: graphs checkpoint to mmap-ready snapshots + WAL under this directory and reboot from them instantly (empty = volatile)")
		quiet      = flag.Bool("quiet", false, "suppress per-request logging")
		graphs     graphFlags
	)
	flag.Var(&graphs, "graph", "preload a graph as name=spec; spec is a file path or generator:k=v,... (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "graphmatd: ", log.LstdFlags)
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}
	srv := server.New(server.Config{
		CacheSize:      *cacheSize,
		Partitions:     *partitions,
		Workers:        *jobs,
		MaxUploadBytes: *maxUpload,
		DataDir:        *dataDir,
		Logger:         reqLogger,
	})

	for _, spec := range graphs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			logger.Fatalf("-graph %q: want name=path or name=generator:k=v,...", spec)
		}
		src, err := server.ParseSourceSpec(rest)
		if err != nil {
			logger.Fatalf("-graph %s: %v", name, err)
		}
		start := time.Now()
		if err := srv.AddGraph(name, src); err != nil {
			logger.Fatalf("-graph %s: %v", name, err)
		}
		logger.Printf("loaded %s (%s) in %s", name, src.Describe(), time.Since(start).Round(time.Millisecond))
	}

	httpSrv := newHTTPServer(*addr, srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("serving on %s", *addr)

	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
		logger.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "graphmatd: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}
