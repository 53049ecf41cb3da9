package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// runCtx is one run of one workload: its arguments, the span recorder, and
// everything the run reports.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	sz       sizes
	out      io.Writer // human-readable progress and the metric table

	tr *tracer

	metrics   map[string]sample
	attempted int
	failed    int
	failures  []string // first few failure messages, for the reader
	budget    []budgetRow
}

// sample is one reported metric: a value, its unit, and how many timed
// samples it summarises.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// budgetRow is one line of a traced training run's layer budget: the part
// of the train span an outside probe explains, or the unexplained rest.
type budgetRow struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	How     string  `json:"how"`
}

func newRunCtx(workload string, seed int64, seconds float64, trace bool, scale string, out io.Writer) (*runCtx, error) {
	sz, ok := scales[scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
	}
	return &runCtx{
		workload: workload, seed: seed, seconds: seconds, trace: trace, scale: scale, sz: sz,
		out: out, tr: newTracer(trace), metrics: map[string]sample{},
	}, nil
}

// set records a metric. The name must be in the registry: a typo would
// otherwise surface only as a silently missing figure.
func (rc *runCtx) set(name string, value float64, n int) {
	m := findMetric(endToEnd, name)
	if m == nil {
		m = findMetric(perLayer, name)
	}
	if m == nil {
		panic("benchmark: metric " + name + " is not in the registry (spec.go)")
	}
	rc.metrics[name] = sample{Value: value, Unit: m.Unit, N: n}
}

// op counts one attempted operation — a training job, a prediction check, a
// request — and records it as failed when it errored, was refused, or did
// not match its oracle.
func (rc *runCtx) op(err error) {
	rc.attempted++
	if err == nil {
		return
	}
	rc.failed++
	if len(rc.failures) < 5 {
		rc.failures = append(rc.failures, err.Error())
	}
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.out, format+"\n", args...)
}

// record is everything one run reports: what `-all` collects into a set
// file and `compare` reads back.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Scale     string            `json:"scale"`
	Host      hostLabel         `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	Budget    []budgetRow       `json:"budget,omitempty"`
}

// finish turns the run into its record: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A missing
// end-to-end metric is a bug in the workload; a per-layer metric the
// workload never set reads 0 (the layer was not entered).
func (rc *runCtx) finish(host hostLabel) (*record, error) {
	rec := &record{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Scale: rc.scale,
		Host: host, Attempted: rc.attempted, Failed: rc.failed, Failures: rc.failures,
		Correct: rc.failed == 0 && rc.attempted > 0,
		Metrics: map[string]sample{}, Budget: rc.budget,
	}
	if rc.trace {
		share := 0.0
		if rc.attempted > 0 {
			share = float64(rc.failed) / float64(rc.attempted)
		}
		rc.set("bench.failed_share", share, rc.attempted)
		rc.set("hostprobe.scan_ns_per_entry", host.ScanNsPerEntry, 1)
		for _, m := range perLayer {
			s, ok := rc.metrics[m.Name]
			if !ok {
				s = sample{Unit: m.Unit}
			}
			rec.Metrics[m.Name] = s
		}
		return rec, nil
	}
	for _, m := range endToEnd {
		s, ok := rc.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report end-to-end metric %s", rc.workload, m.Name)
		}
		rec.Metrics[m.Name] = s
	}
	return rec, nil
}

// print writes the metric table, the record line `-all` parses, and last the
// one-line JSON result the driver's contract asks for.
func (rec *record) print(w io.Writer) error {
	h := rec.Host
	fmt.Fprintf(w, "host: numcpu=%d gomaxprocs=%d go=%s %s/%s commit=%s hostprobe.scan_ns_per_entry=%.3f\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit, h.ScanNsPerEntry)
	if h.FewCPUs {
		fmt.Fprintf(w, "flag: host reports %d CPU for a p=%d load; ranks and clients time-slice, wall-clock figures are not comparable with a >=2-CPU host\n", h.NumCPU, procs)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rec.Metrics[name]
		fmt.Fprintf(w, "metric %-36s %16.6g %-7s n=%d\n", name, s.Value, s.Unit, s.N)
	}
	for _, b := range rec.Budget {
		fmt.Fprintf(w, "budget %-12s %10.4f s  %s\n", b.Layer, b.Seconds, b.How)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", recordPrefix, line)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	contract := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metric{}}
	for name, s := range rec.Metrics {
		contract.Metrics[name] = metric{s.Value, s.Unit}
	}
	line, err = json.Marshal(contract)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// recordPrefix marks the line of a run's output that carries its record.
const recordPrefix = "record: "
