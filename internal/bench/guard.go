package bench

import (
	"errors"
	"fmt"
	"os"
)

// gates collects every gate one guard run violates, so a failing guard
// reports all of them at once rather than stopping at the first. Each
// guard's thresholds stay named constants beside the guard that owns them.
type gates struct {
	prefix string // opens every message, e.g. "vote guard: "
	errs   []error
}

func (g *gates) fail(format string, args ...any) {
	g.errs = append(g.errs, fmt.Errorf(g.prefix+format, args...))
}

// hostFactor is how many times slower this host runs a guard's frozen probe
// than the host that recorded the trajectory did (> 1 on a slower host). It
// is 0 — which skips the host-normalized gates — when either side lacks the
// probe figure.
func hostFactor(freshProbe, recordedProbe float64) float64 {
	if freshProbe <= 0 || recordedProbe <= 0 {
		return 0
	}
	return freshProbe / recordedProbe
}

// withinHost is the one fresh-vs-recorded comparison: the recorded figure is
// first scaled to this host — a time (lower is better) up by host, a rate
// (higher is better) down by it — and the fresh figure may then be worse by
// at most the factor slack. A uniformly slower machine therefore passes
// while a slower code path on the same machine does not: the gate is about
// the code, not the host.
func (g *gates) withinHost(what, unit string, fresh, recorded, host, slack float64, rate bool) {
	if host <= 0 || recorded <= 0 {
		return
	}
	limit, over := recorded*host*slack, fresh > recorded*host*slack
	if rate {
		limit, over = recorded/host/slack, fresh < recorded/host/slack
	}
	if over {
		g.fail("%s regression: %.2f %s vs limit %.2f (recorded %.2f, host factor %.2f, slack %.2fx)",
			what, fresh, unit, limit, recorded, host, slack)
	}
}

// guardError turns a guard's violated gates into its result: nil when every
// gate held, otherwise all of them joined. A failing guard that has an
// artifact (dump, nil for none) first writes it, so a tripped gate leaves
// more behind than its message.
func guardError(errs []error, dump func() error) error {
	if len(errs) == 0 {
		return nil
	}
	if dump != nil {
		if err := dump(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// writeArtifact hands write the directory the environment variable names
// (CI uploads it when a guard fails), creating it first. An unset variable
// is a silent no-op; a failure is the os error, which names the path.
func writeArtifact(envVar string, write func(dir string) error) error {
	dir := os.Getenv(envVar)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return write(dir)
}
