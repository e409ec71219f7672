// Command cfc-artifact serves a standalone warm-artifact store: the
// content-addressed snapshot tier (internal/artifact) as its own process,
// so a fleet of cfc-serve replicas can share one warm store instead of
// each paying translator warm-up and checkpoint reference recording.
//
//	GET  /v1/artifacts                    ref index (fingerprint digests)
//	GET  /v1/artifacts/ref/{ref}          resolve a ref to its blob digest
//	PUT  /v1/artifacts/ref/{ref}          link a ref to an uploaded blob
//	GET  /v1/artifacts/blob/{digest}      fetch a sealed artifact envelope
//	PUT  /v1/artifacts/blob/{digest}      upload (digest-verified on write)
//	GET  /healthz                         liveness
//
// With -dir the store persists across restarts; without it, blobs live in
// memory for the life of the process. Replicas point at it with
// `cfc-serve -artifact-url http://host:9290`.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle half-open connections cannot pin the server.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:9290", "listen address")
	dir := flag.String("dir", "", "persistent store directory (empty: in-memory)")
	flag.Parse()

	store := artifact.NewStore(*dir)
	hs := &http.Server{Addr: *addr, Handler: artifact.Handler(store), ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "cfc-artifact: listening on http://%s\n", *addr)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "cfc-artifact:", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		if err := hs.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "cfc-artifact: shutdown:", err)
		}
	}
}
