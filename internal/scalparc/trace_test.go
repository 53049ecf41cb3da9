package scalparc

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// assertTraceConserves checks the tracing layer's books against the
// untraced totals: per-rank bucket times must sum to the rank's final
// clock integer-exactly, the trace's critical time must be the reported
// modeled runtime, and per-phase byte counts must sum to the Stats
// counters.
func assertTraceConserves(t *testing.T, res *Result, w *comm.World, p int) {
	t.Helper()
	tr := res.Trace
	if tr == nil {
		t.Fatalf("p=%d: Train returned no trace", p)
	}
	if len(tr.Ranks) != p {
		t.Fatalf("p=%d: trace has %d ranks", p, len(tr.Ranks))
	}
	for r := 0; r < p; r++ {
		if got, want := tr.Ranks[r].TotalPicos(), tr.FinalPicos[r]; got != want {
			t.Errorf("p=%d rank %d: per-phase times sum to %d picos, final clock is %d (off by %d)",
				p, r, got, want, got-want)
		}
		var sent, recv int64
		for _, b := range tr.Ranks[r].Buckets() {
			sent += b.BytesSent
			recv += b.BytesRecv
		}
		if sent != res.Stats[r].BytesSent {
			t.Errorf("p=%d rank %d: per-phase BytesSent sums to %d, stats say %d", p, r, sent, res.Stats[r].BytesSent)
		}
		if recv != res.Stats[r].BytesRecv {
			t.Errorf("p=%d rank %d: per-phase BytesRecv sums to %d, stats say %d", p, r, recv, res.Stats[r].BytesRecv)
		}
	}
	// The critical rank's total is T_p — the same number ModeledSeconds
	// reports, through the same picos-to-seconds conversion, so the
	// float comparison is exact.
	if got := tr.TotalSeconds(); got != res.ModeledSeconds {
		t.Errorf("p=%d: trace total %.12g s, ModeledSeconds %.12g s", p, got, res.ModeledSeconds)
	}
	if got, want := tr.TotalPicos(), w.MaxClockPicos(); got != want {
		t.Errorf("p=%d: trace total %d picos, world max clock %d", p, got, want)
	}
}

// TestTraceConservation holds every split mode's books at p in {1, 2, 4}.
// The presort — exact mode's sample sort and shift, the histogram modes'
// local key sorts and cut selection — is charged to the Sort phase at
// level 0 on every rank, and at p > 1 its exchanges are booked there as
// bytes and ops.
func TestTraceConservation(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 12}, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Split: SplitBinned, Bins: 16}, {Split: SplitVote, Bins: 16, VoteK: 2}} {
		for _, p := range []int{1, 2, 4} {
			w := comm.NewWorld(p, timing.T3D())
			res, err := TrainOpts(w, tab, splitter.Config{}, opts)
			if err != nil {
				t.Fatalf("%v p=%d: %v", opts.Split, p, err)
			}
			assertTraceConserves(t, res, w, p)

			for r, rt := range res.Trace.Ranks {
				var sort trace.Bucket
				for _, b := range rt.Buckets() {
					if b.Phase == trace.Sort && b.Level == 0 {
						sort.Picos += b.Picos
						sort.BytesSent += b.BytesSent
						sort.Ops += b.Ops
					}
				}
				if sort.Picos == 0 || rt.PhasePicos()[trace.Sort] != sort.Picos {
					t.Errorf("%v p=%d rank %d: %d picos in the Sort phase, %d of them at level 0", opts.Split, p, r, rt.PhasePicos()[trace.Sort], sort.Picos)
				}
				if p > 1 && (sort.BytesSent == 0 || sort.Ops == 0) {
					t.Errorf("%v p=%d rank %d: the Sort phase booked %d bytes in %d ops", opts.Split, p, r, sort.BytesSent, sort.Ops)
				}
			}
			// Every induction phase must have seen some time somewhere.
			for _, ph := range []trace.Phase{trace.FindSplitI, trace.FindSplitII, trace.PerformSplitI, trace.PerformSplitII} {
				var total int64
				for _, rt := range res.Trace.Ranks {
					total += rt.PhasePicos()[ph]
				}
				if total == 0 {
					t.Errorf("%v p=%d: no time attributed to phase %s on any rank", opts.Split, p, ph)
				}
			}
		}
	}
}

func TestTraceConservationAblations(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 5, LabelNoise: 0.1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"pernode", Options{PerNodeComms: true}},
		{"batched", Options{BatchedEnquiry: true}},
		{"rebalance", Options{RebalanceLevels: true}},
	} {
		for _, p := range []int{1, 2, 4} {
			w := comm.NewWorld(p, timing.T3D())
			res, err := TrainOpts(w, tab, splitter.Config{}, tc.opts)
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			assertTraceConserves(t, res, w, p)
		}
	}
}

func TestTraceLevelsMatchPerLevelStats(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 3}, 300)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(4, timing.T3D())
	res, err := TrainOpts(w, tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Levels() counts distinct level tags; the induction loop's level
	// tags run 0..Levels-1, so the trace can't know more levels than the
	// loop processed.
	if got := res.Trace.Levels(); got > res.Levels {
		t.Fatalf("trace knows %d levels, run processed %d", got, res.Levels)
	}
}
