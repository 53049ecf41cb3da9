package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/comm/tcptransport"
)

// TestMain lets the test binary serve as the rank-worker re-exec target of
// train-tcp-exact, exactly as main does for the benchmark binary.
func TestMain(m *testing.M) {
	if tcptransport.IsWorker() {
		if err := tcpWorkerMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark tcp worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the registry and the
// registry to the limits of the file's schema.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromSpec any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &fromSpec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromSpec) {
		t.Error("BENCHMARK.json differs from `bench spec`; regenerate it")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the schema's 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := findMetric(endToEnd, "setup_s"); m == nil || m.Unit != "s" || m.Better != "lower" {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
}

// TestEveryWorkloadTiny is the smoke run: every workload, untraced and
// traced, at the tiny scale. Each must pass its oracle checks and emit
// exactly the metric names the registry (and so BENCHMARK.json) lists.
func TestEveryWorkloadTiny(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", wl.Name, traced), func(t *testing.T) {
				var out bytes.Buffer
				rec, tr, err := runWorkload(wl, 1, 0.2, traced, "tiny", &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d: %v", rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, the registry lists %d", len(rec.Metrics), len(want))
				}
				for _, m := range want {
					s, ok := rec.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case s.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, registry says %q", m.Name, s.Unit, m.Unit)
					case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
						t.Errorf("metric %s is %v", m.Name, s.Value)
					case !traced && s.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, s.Value)
					}
				}
				checkContractLine(t, rec, len(want))
				if traced {
					checkTrace(t, rec, tr)
				}
			})
		}
	}
}

// checkContractLine verifies the last line a run prints is the one JSON
// object the driver reads.
func checkContractLine(t *testing.T, rec *record, metrics int) {
	t.Helper()
	var out bytes.Buffer
	if err := rec.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 {
		t.Errorf("last line has %d keys, want exactly correct, attempted, failed, metrics", len(line))
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != metrics {
		t.Errorf("last line carries %d metrics, want %d", len(ms), metrics)
	}
	for name, m := range ms {
		if _, ok := m["value"].(float64); !ok || len(m) != 2 {
			t.Errorf("metric %s: want exactly a numeric value and a unit, got %v", name, m)
		}
	}
}

// checkTrace verifies a traced run's spans load as Chrome trace JSON and
// that a training run's layer budget sums to its train span.
func checkTrace(t *testing.T, rec *record, tr *tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("Chrome trace does not load (%v) or is empty (%d events)", err, len(doc.TraceEvents))
	}
	if len(rec.Budget) == 0 {
		return // serve workloads have no train span
	}
	span := rec.Budget[len(rec.Budget)-1]
	sum := 0.0
	for _, b := range rec.Budget[:len(rec.Budget)-1] {
		sum += b.Seconds
	}
	if span.Layer != "train span" || math.Abs(sum-span.Seconds) > 1e-9 {
		t.Errorf("layer estimates plus scalparc.self_s sum to %v, the train span is %v", sum, span.Seconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rows_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within bound", lower, steady, scale(steady, 1.05), "ok"},
		{"slower", lower, steady, scale(steady, 1.2), "worse"},
		{"faster", lower, steady, scale(steady, 0.5), "ok"},
		{"fewer rows", higher, steady, scale(steady, 0.8), "worse"},
		{"more rows", higher, steady, scale(steady, 1.3), "ok"},
		{"too noisy to tell", lower, steady, noisy, "unresolved"},
		{"noisy but every run better", lower, scale(noisy, 10), noisy, "ok"},
		{"missing", lower, steady, nil, "missing"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "serve", Thread: 1, Start: 10, End: 60},
		{ID: 2, Parent: 0, Layer: "serve", Thread: 2, Start: 40, End: 90}, // overlaps span 1
		{ID: 3, Parent: 1, Layer: "infer", Thread: 1, Start: 20, End: 30},
	}
	self := tr.selfTimes()
	if self["bench"] != 20 || self["serve"] != 90 || self["infer"] != 10 {
		t.Errorf("self times %v, want bench 20 (100 minus the union 10..90), serve 90, infer 10", self)
	}
}
