package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestBucketsAccumulateByKey(t *testing.T) {
	rt := NewRank()
	rt.AddPicos(5) // lands in the default (Other, 0)
	rt.SetPhase(FindSplitI, 0, 5)
	rt.AddPicos(10)
	rt.AddComm(100, 200)
	rt.SetPhase(FindSplitI, 1, 15)
	rt.AddPicos(3)
	rt.SetPhase(FindSplitI, 0, 18) // back to an existing bucket
	rt.AddPicos(2)

	bs := rt.Buckets()
	if len(bs) != 3 {
		t.Fatalf("want 3 buckets, got %d: %+v", len(bs), bs)
	}
	if bs[0].Key != (Key{Other, 0}) || bs[0].Picos != 5 {
		t.Fatalf("bucket 0: %+v", bs[0])
	}
	if bs[1].Key != (Key{FindSplitI, 0}) || bs[1].Picos != 12 || bs[1].BytesSent != 100 || bs[1].BytesRecv != 200 || bs[1].Ops != 1 {
		t.Fatalf("bucket 1: %+v", bs[1])
	}
	if bs[2].Key != (Key{FindSplitI, 1}) || bs[2].Picos != 3 {
		t.Fatalf("bucket 2: %+v", bs[2])
	}
	if got := rt.TotalPicos(); got != 20 {
		t.Fatalf("TotalPicos = %d, want 20", got)
	}
	ph := rt.PhasePicos()
	if ph[Other] != 5 || ph[FindSplitI] != 15 {
		t.Fatalf("PhasePicos: %v", ph)
	}
}

func TestNegativeAndZeroPicosIgnored(t *testing.T) {
	rt := NewRank()
	rt.AddPicos(0)
	rt.AddPicos(-7)
	if rt.TotalPicos() != 0 {
		t.Fatalf("zero/negative advances must not be attributed: %d", rt.TotalPicos())
	}
	if len(rt.Buckets()) != 0 {
		// AddPicos(0) must not even materialise a bucket.
		t.Fatalf("empty advances materialised buckets: %+v", rt.Buckets())
	}
}

func TestSpansCoverTimeline(t *testing.T) {
	rt := NewRank()
	rt.AddPicos(4)
	rt.SetPhase(Sort, 0, 4)
	rt.AddPicos(6)
	rt.SetPhase(FindSplitI, 0, 10)
	rt.SetPhase(FindSplitII, 0, 10) // zero-length: no span
	rt.AddPicos(1)
	rt.Finish(11)

	spans := rt.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %+v", spans)
	}
	want := []Span{
		{Key{Other, 0}, 0, 4},
		{Key{Sort, 0}, 4, 10},
		{Key{FindSplitII, 0}, 10, 11},
	}
	for i, s := range spans {
		if s != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
	// Spans must tile the timeline with no gaps.
	for i := 1; i < len(spans); i++ {
		if spans[i].StartPicos != spans[i-1].EndPicos {
			t.Fatalf("gap between spans %d and %d: %+v", i-1, i, spans)
		}
	}
}

// TestRankTraceJSONRoundTrip pins the form a rank's trace crosses a wire
// in: the decoded trace keeps its buckets, spans and events, closes its
// open span as the original would, and stays writable.
func TestRankTraceJSONRoundTrip(t *testing.T) {
	rt := NewRank()
	rt.SetPhase(Sort, 0, 0)
	rt.AddPicos(7)
	rt.AddComm(30, 40)
	rt.AddEvent("fault:detected", 7)
	rt.SetPhase(FindSplitI, 1, 7)
	rt.AddPicos(5)
	data, err := json.Marshal(rt)
	if err != nil {
		t.Fatal(err)
	}
	var got RankTrace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	rt.Finish(12)
	got.Finish(12)
	if !slices.Equal(got.Buckets(), rt.Buckets()) || !slices.Equal(got.Spans(), rt.Spans()) ||
		!slices.Equal(got.Events(), rt.Events()) || len(got.Buckets()) != 2 || len(got.Spans()) != 2 {
		t.Fatalf("round trip through %s lost state:\ngot  %+v %+v %+v\nwant %+v %+v %+v", data,
			got.Buckets(), got.Spans(), got.Events(), rt.Buckets(), rt.Spans(), rt.Events())
	}
	got.AddPicos(3)
	got.SetPhase(Sort, 0, 15)
	got.AddPicos(1)
	if b := got.Buckets(); b[1].Picos != 8 || b[0].Picos != 8 {
		t.Fatalf("attributions after decoding landed wrong: %+v", b)
	}
}

func TestTraceTotalsAndCriticalRank(t *testing.T) {
	a, b := NewRank(), NewRank()
	a.AddPicos(5)
	b.AddPicos(9)
	tr := &Trace{Ranks: []*RankTrace{a, b}, FinalPicos: []int64{5, 9}}
	if tr.CriticalRank() != 1 {
		t.Fatalf("critical rank = %d", tr.CriticalRank())
	}
	if tr.TotalPicos() != 9 {
		t.Fatalf("total picos = %d", tr.TotalPicos())
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	rt := NewRank()
	rt.SetPhase(Sort, 0, 0)
	rt.AddPicos(2_000_000) // 2 microseconds
	rt.SetPhase(FindSplitI, 1, 2_000_000)
	rt.AddPicos(1_000_000)
	rt.Finish(3_000_000)
	tr := &Trace{Ranks: []*RankTrace{rt}, FinalPicos: []int64{3_000_000}}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v\n%s", err, buf.String())
	}
	var complete int
	for _, e := range decoded.TraceEvents {
		if e["ph"] == "X" {
			complete++
			if e["ts"] == nil || e["dur"] == nil || e["name"] == "" {
				t.Fatalf("malformed complete event: %v", e)
			}
		}
	}
	if complete != 2 {
		t.Fatalf("want 2 complete events, got %d", complete)
	}
}

func TestWriteTextSumsToTotal(t *testing.T) {
	rt := NewRank()
	rt.SetPhase(Sort, 0, 0)
	rt.AddPicos(1e12) // 1s
	rt.SetPhase(FindSplitI, 0, 1e12)
	rt.AddPicos(5e11) // 0.5s
	rt.Finish(15e11)
	tr := &Trace{Ranks: []*RankTrace{rt}, FinalPicos: []int64{15e11}}

	var buf bytes.Buffer
	tr.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "phase total") {
		t.Fatalf("missing totals row:\n%s", out)
	}
	if !strings.Contains(out, "1.500000s") {
		t.Fatalf("grand total 1.5s not printed:\n%s", out)
	}
}
