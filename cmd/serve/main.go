// Command serve runs the production inference server: an HTTP prediction
// service over compiled decision trees, with per-model-version
// micro-batching and hot-swappable models behind a sharded cache.
//
// Models load at startup from serialized model JSON (the scalparc command's
// -json-out format, a single tree or a -forest) and can be replaced at
// runtime over HTTP:
//
//	serve -addr :8080 -model quest=tree.json -model spam=spam.json
//	curl -d '{"row": [50000,10000,30,"e2",200000,10,5000]}' localhost:8080/predict/quest
//	curl -X POST --data-binary @new-tree.json localhost:8080/models/quest
//	curl -X POST -H 'Content-Type: text/csv' --data-binary @train.csv localhost:8080/models/quest
//	curl localhost:8080/stats
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes, in-
// flight requests finish, and every model version's batcher drains.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/tree"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// modelFlags collects repeated -model name=path pairs.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string { return fmt.Sprintf("%d models", len(*m)) }

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

// run starts the server and blocks until ctx cancels (the signal handler in
// main) or the listener fails. ready, when non-nil, receives the bound
// address once the server is accepting — tests use it to find the port.
func run(ctx context.Context, args []string, stdout io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	var models modelFlags
	fs.Var(&models, "model", "load a model at startup: name=model.json, a tree or a forest (repeatable)")
	batch := fs.Int("batch", 0, "micro-batch row cap (0 = default 512)")
	deadline := fs.Duration("deadline", 0, "admission deadline: longest a request waits for a slot in a full prediction queue before 503 (0 = default 1ms); flushes never wait on it")
	workers := fs.Int("workers", 0, "flusher workers per model version (0 = default)")
	maxBody := fs.Int64("max-body", 0, "request body byte cap (0 = default 8 MiB)")
	maxRows := fs.Int("max-rows", 0, "rows per prediction request (0 = default 4096)")
	drainWait := fs.Duration("drain", 10*time.Second, "graceful shutdown grace period")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	s := serve.New(serve.Config{
		MaxBatch:          *batch,
		BatchWait:         *deadline,
		Workers:           *workers,
		MaxBodyBytes:      *maxBody,
		MaxRowsPerRequest: *maxRows,
	})
	defer s.Close()
	for _, m := range models {
		f, err := loadModel(m.path)
		if err != nil {
			return fmt.Errorf("-model %s: %w", m.name, err)
		}
		v, err := s.SetForest(m.name, f)
		if err != nil {
			return fmt.Errorf("-model %s: %w", m.name, err)
		}
		nodes := 0
		for _, t := range f.Trees {
			nodes += t.NumNodes()
		}
		fmt.Fprintf(stdout, "loaded model %q v%d from %s (%d tree(s), %d nodes, %d classes)\n",
			m.name, v, m.path, f.NumTrees(), nodes, f.Schema.NumClasses())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(stdout, "serving on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func loadModel(path string) (*tree.Forest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tree.DecodeModel(f)
}
