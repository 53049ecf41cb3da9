package main

// `compare A.json B.json`: for every workload and end-to-end metric, both
// sets' medians and quartiles over their untraced runs, the ratio with its
// base, and a verdict by the bound spec.go fixes for the metric. It serves
// the two-set agreement check of one commit and, later, parent-versus-change
// comparisons (A is the base).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's value from every untraced run of a workload.
func (s *set) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Records {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// failedShare is operations failed over operations attempted, over every
// run of the workload.
func (s *set) failedShare(workload string) float64 {
	var failed, attempted int
	for _, r := range s.Records {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// summary is one side of a comparison row.
type summary struct {
	n          int
	q1, q2, q3 float64
}

func summarise(v []float64) summary {
	s := summary{n: len(v)}
	switch {
	case len(v) >= 2:
		s.q1, s.q2, s.q3 = quartiles(v)
	case len(v) == 1:
		s.q1, s.q2, s.q3 = v[0], v[0], v[0]
	}
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.q2
}

// verdict applies the benchmark's rule (choosing-metrics, sections 6 and
// 8): B is "worse" when its median is worse than A's by more than the
// bound; where either side's spread is wider than the bound the pairing is
// "unresolved", not unchanged — unless every run of B reads better than
// every run of A. setup_s is exempt from the spread rule, as it is in the
// driver's acceptance check: a run sets up one to three times, and a set-up
// of 20 ms (forest-bagged) spreads by a third on its own.
func verdict(m metricSpec, a, b []float64) (worseBy float64, v string) {
	sa, sb := summarise(a), summarise(b)
	if sa.n == 0 || sb.n == 0 || sa.q2 == 0 {
		return 0, "missing"
	}
	worseBy = (sb.q2 - sa.q2) / sa.q2
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if m.Name != "setup_s" && max(sa.spread(), sb.spread()) > m.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (m.Better == "lower" && x >= y) || (m.Better == "higher" && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return worseBy, "unresolved"
		}
	}
	if worseBy > m.Bound {
		return worseBy, "worse"
	}
	return worseBy, "ok"
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	bad := compareSets(w, a, b)
	if bad > 0 {
		return fmt.Errorf("%d row(s) are worse, unresolved or missing", bad)
	}
	return nil
}

// compareSets prints the table and returns how many rows are not "ok".
func compareSets(w io.Writer, a, b *set) int {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB/A\tworse by\tbound\tverdict")
	bad := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			sa, sb := summarise(va), summarise(vb)
			worseBy, v := verdict(m, va, vb)
			if v != "ok" {
				bad++
			}
			ratio := 0.0
			if sa.q2 != 0 {
				ratio = sb.q2 / sa.q2
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%.4f of %.5g\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, sa.q2, sa.q1, sa.q3, sa.n, sb.q2, sb.q1, sb.q3, sb.n,
				ratio, sa.q2, worseBy*100, m.Bound*100, v)
		}
		// Failures have an absolute bound of zero: any failed operation on
		// the B side is a regression, whatever A did.
		fa, fb := a.failedShare(wl.Name), b.failedShare(wl.Name)
		v := "ok"
		if fb > 0 {
			v = "worse"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.6g\t%.6g\t\t\t0 (absolute)\t%s\n", wl.Name, fa, fb, v)
	}
	tw.Flush()
	return bad
}
