package faults

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/comm"
	"repro/internal/trace"
)

func TestScheduleFiresOncePerSite(t *testing.T) {
	s := NewSchedule(4,
		Event{Rank: 1, Phase: trace.FindSplitI, Level: 2, Kind: Crash},
		Event{Rank: 1, Phase: trace.FindSplitI, Level: 2, Nth: 1, Kind: Drop},
	)
	site := comm.Site{Rank: 1, Phase: trace.FindSplitI, Level: 2, Op: comm.OpCollective}
	if act := s.Act(site); !act.Crash || act.Drop {
		t.Fatalf("first op: got %+v, want crash only", act)
	}
	if act := s.Act(site); act.Crash || !act.Drop {
		t.Fatalf("second op: got %+v, want drop only", act)
	}
	if act := s.Act(site); act.Crash || act.Drop || act.Corrupt || act.SkewPicos != 0 {
		t.Fatalf("third op: got %+v, want nothing", act)
	}
	if got := s.Fired(); got != 2 {
		t.Fatalf("Fired() = %d, want 2", got)
	}
}

func TestScheduleIgnoresOtherSites(t *testing.T) {
	s := NewSchedule(4, Event{Rank: 1, Phase: trace.Sort, Level: 0, Kind: Crash})
	for _, site := range []comm.Site{
		{Rank: 0, Phase: trace.Sort, Level: 0},
		{Rank: 1, Phase: trace.FindSplitI, Level: 0},
		{Rank: 1, Phase: trace.Sort, Level: 1},
		{Rank: -1, Phase: trace.Sort, Level: 0},
		{Rank: 9, Phase: trace.Sort, Level: 0},
	} {
		if act := s.Act(site); act.Crash {
			t.Fatalf("site %+v fired a crash scheduled elsewhere", site)
		}
	}
	if s.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", s.Fired())
	}
}

func TestScheduleSkewAccumulates(t *testing.T) {
	s := NewSchedule(2,
		Event{Rank: 0, Phase: trace.Other, Level: 0, Kind: Straggle, Picos: 5},
		Event{Rank: 0, Phase: trace.Other, Level: 0, Kind: Straggle, Picos: 7},
	)
	act := s.Act(comm.Site{Rank: 0, Phase: trace.Other, Level: 0})
	if act.SkewPicos != 12 {
		t.Fatalf("SkewPicos = %d, want 12", act.SkewPicos)
	}
}

func TestParseEvents(t *testing.T) {
	s, err := Parse("crash@FindSplitI:1:2, straggle@PerformSplitII:0:1:5ms, drop@Sort:0:0#3", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Events()
	if len(ev) != 3 {
		t.Fatalf("parsed %d events, want 3", len(ev))
	}
	if ev[0] != (Event{Rank: 2, Phase: trace.FindSplitI, Level: 1, Kind: Crash}) {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Kind != Straggle || ev[1].Picos != 5_000_000_000 {
		t.Fatalf("event 1 = %+v, want 5ms = 5e9 picos", ev[1])
	}
	if ev[2].Nth != 3 || ev[2].Kind != Drop {
		t.Fatalf("event 2 = %+v", ev[2])
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"crash",
		"crash@FindSplitI:1",
		"crash@FindSplitI:1:9", // rank out of range for p=4
		"crash@NoSuchPhase:1:0",
		"melt@FindSplitI:1:0",
		"crash@FindSplitI:-1:0",
		"straggle@FindSplitI:1:0", // missing duration
		"straggle@FindSplitI:1:0:0s",
		"crash@FindSplitI:1:0#x",
		"random:0",
		"random:abc",
		"random:3:melt",
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 7, 4); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseRandomRequiresSeed(t *testing.T) {
	if _, err := Parse("random:3", 0, 4); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("random spec without seed: err = %v, want seed complaint", err)
	}
	s, err := Parse("random:3:crash,drop", 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events()) != 3 {
		t.Fatalf("random drew %d events, want 3", len(s.Events()))
	}
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	a, b := Random(99, 5, 8, 4), Random(99, 5, 8, 4)
	ea, eb := a.Events(), b.Events()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed, different event %d: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	crashes := make(map[int]int)
	for _, e := range ea {
		if e.Rank < 0 || e.Rank >= 5 || e.Level < 0 || e.Level > 4 {
			t.Fatalf("event out of bounds: %+v", e)
		}
		if e.Kind == Crash {
			crashes[e.Rank]++
		}
	}
	for r, n := range crashes {
		if n > 1 {
			t.Fatalf("rank %d drawn %d crashes, want at most 1", r, n)
		}
	}
	if len(crashes) >= 5 {
		t.Fatal("random schedule would crash every rank")
	}
}

func TestRecoverable(t *testing.T) {
	if !NewSchedule(2, Event{Kind: Crash}, Event{Kind: Drop}, Event{Kind: Straggle}).Recoverable() {
		t.Fatal("crash/drop/straggle schedule reported unrecoverable")
	}
	if NewSchedule(2, Event{Kind: Corrupt}).Recoverable() {
		t.Fatal("corrupt schedule reported recoverable")
	}
}

// FuzzParse: no spec may panic the parser, and an accepted spec must
// round-trip through the injector without out-of-range behavior.
func FuzzParse(f *testing.F) {
	f.Add("crash@FindSplitI:1:2", int64(1), 4)
	f.Add("straggle@PerformSplitII:0:1:5ms,drop@Sort:0:0", int64(2), 3)
	f.Add("random:4:crash,straggle", int64(9), 8)
	f.Add("corrupt@Other:0:0#2", int64(0), 2)
	f.Add("reset@FindSplitI:1:2:0,delay@Other:0:0:*:50ms#1", int64(0), 4)
	f.Add("random:6:reset,truncate,delay,hang", int64(3), 3)
	f.Add("random:5:crash", int64(1), 2)
	f.Add("random:99999999999999", int64(1), 4)
	f.Fuzz(func(t *testing.T, spec string, seed int64, p int) {
		if p < 1 || p > 64 {
			return
		}
		s, err := Parse(spec, seed, p)
		if err != nil {
			return
		}
		for _, e := range s.Events() {
			if e.Rank < 0 || e.Rank >= p {
				t.Fatalf("accepted event with rank %d out of [0,%d): %+v", e.Rank, p, e)
			}
			if e.Level < 0 || e.Nth < 0 {
				t.Fatalf("accepted negative level/nth: %+v", e)
			}
			if e.Kind.timed() && e.Picos <= 0 {
				t.Fatalf("accepted %s without a positive duration: %+v", e.Kind, e)
			}
			if e.Kind.socket() && (e.Peer < -1 || e.Peer >= p || e.Peer == e.Rank) {
				t.Fatalf("accepted socket event with peer %d, want * or a rank in [0,%d) other than %d: %+v", e.Peer, p, e.Rank, e)
			}
		}
		// Drive the schedule; must never panic whatever the site stream.
		for r := -1; r <= p; r++ {
			for lvl := 0; lvl < 3; lvl++ {
				s.Act(comm.Site{Rank: r, Phase: trace.FindSplitI, Level: lvl})
			}
		}
	})
}

// TestEventStringParseRoundTrip pins the String/Parse pair lossless over
// arbitrary events of every kind — in particular sub-nanosecond straggle
// skews, which the old duration-only rendering truncated to "0s"
// (silently dropping the fault on re-parse), socket peers including *,
// and delay durations.
func TestEventStringParseRoundTrip(t *testing.T) {
	const p = 16
	phases := []trace.Phase{trace.Other, trace.Sort, trace.FindSplitI,
		trace.FindSplitII, trace.PerformSplitI, trace.PerformSplitII}
	seen := make(map[Kind]bool)
	roundTrips := func(rank, phase, level, nth, kind, peer uint8, dur int64) bool {
		e := Event{
			Rank:  int(rank) % p,
			Phase: phases[int(phase)%len(phases)],
			Level: int(level) % 8,
			Nth:   int(nth) % 8,
			Kind:  Kind(kind) % Kind(len(kindNames)),
		}
		seen[e.Kind] = true
		if e.Kind.socket() {
			// -1 (*) or any rank but the struck one.
			if e.Peer = int(peer)%(p+1) - 1; e.Peer == e.Rank {
				e.Peer = -1
			}
		}
		if e.Kind.timed() {
			e.Picos = 1 + (dur&0x7fffffffffffffff)%5_000_000_000 // 1ps .. 5ms
		}
		s, err := Parse(e.String(), 0, p)
		if err != nil {
			t.Logf("Parse(%q): %v", e.String(), err)
			return false
		}
		ev := s.Events()
		return len(ev) == 1 && ev[0] == e
	}
	if err := quick.Check(roundTrips, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(kindNames) {
		t.Fatalf("round trip drew %d of the %d kinds", len(seen), len(kindNames))
	}
	// The regression case verbatim: a 5-picosecond skew.
	e := Event{Rank: 1, Phase: trace.FindSplitI, Level: 2, Kind: Straggle, Picos: 5}
	if got := e.String(); got != "straggle@FindSplitI:2:1:5ps" {
		t.Fatalf("String() = %q, want exact-picosecond form", got)
	}
	s, err := Parse(e.String(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev := s.Events(); len(ev) != 1 || ev[0] != e {
		t.Fatalf("round-trip of %+v came back as %+v", e, s.Events())
	}
}

// TestParseSocketKinds pins the socket grammar: a peer field after the
// rank (a rank or *), then delay's duration, then the op index.
func TestParseSocketKinds(t *testing.T) {
	s, err := Parse("reset@FindSplitI:1:2:0, truncate@Sort:0:1:*, delay@Other:0:0:1:50ms#1", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Rank: 2, Peer: 0, Phase: trace.FindSplitI, Level: 1, Kind: Reset},
		{Rank: 1, Peer: -1, Phase: trace.Sort, Kind: Truncate},
		{Rank: 0, Peer: 1, Phase: trace.Other, Nth: 1, Kind: Delay, Picos: 50_000_000_000},
	}
	if got := s.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if !s.NeedsWire() {
		t.Fatal("a socket schedule does not need a wire")
	}
	// The delay strikes rank 0's second op at (Other, 0), aimed at rank 1.
	at := comm.Site{Rank: 0, Phase: trace.Other}
	if act := s.Act(at); act.Sockets != nil {
		t.Fatalf("first op: got %+v, want nothing", act)
	}
	act := s.Act(at)
	if len(act.Sockets) != 1 || act.Sockets[0] != (comm.SocketFault{Peer: 1, Delay: 50 * time.Millisecond}) {
		t.Fatalf("second op: got %+v, want a 50ms delay towards rank 1", act)
	}
	for _, bad := range []string{
		"reset@FindSplitI:1:2",       // no peer
		"reset@FindSplitI:1:2:2",     // its own rank
		"reset@FindSplitI:1:2:4",     // out of range
		"truncate@FindSplitI:1:2:-1", // * is written *
		"delay@Other:0:0:1",          // no duration
		"delay@Other:0:0:1:0s",
		"delay@Other:0:0:*:10ms:3",
		"hang@FindSplitI:1:2:0", // hang strikes the rank, not a connection
	} {
		if _, err := Parse(bad, 0, 4); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseRandomLimits: a random: count the requested kinds cannot fill,
// one too large to allocate, or a world with no ranks, is an error naming
// the limit — not a hang (Random redraws a second crash on a rank forever)
// or a panic.
func TestParseRandomLimits(t *testing.T) {
	cases := []struct {
		spec string
		p    int
		want string
	}{
		{"random:5:crash", 2, "at most 2"},
		{"random:3:hang,crash", 2, "at most 2"},
		{"random:99999999999999", 4, "limit of 1000"},
		{"random:3", 0, "no fault sites"}, // -procs 0: Random would panic on rand.Intn(0)
	}
	for _, c := range cases {
		done := make(chan error, 1)
		go func() {
			_, err := Parse(c.spec, 1, c.p)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Parse(%q, p=%d) = %v, want an error naming %q", c.spec, c.p, err, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Parse(%q, p=%d) did not return", c.spec, c.p)
		}
	}
	// The caps are exact: a fillable count still draws.
	for _, spec := range []string{"random:2:crash", "random:1000", "random:9:crash,drop"} {
		if _, err := Parse(spec, 1, 2); err != nil {
			t.Errorf("Parse(%q, p=2): %v", spec, err)
		}
	}
}

// TestRandomSocketPeers: Random aims every socket event at * or another
// rank, and gives every delay a positive duration.
func TestRandomSocketPeers(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		for _, e := range Random(3, p, 200, 4, Reset, Truncate, Delay).Events() {
			if e.Peer < -1 || e.Peer >= p || e.Peer == e.Rank {
				t.Fatalf("p=%d: drew peer %d for %+v", p, e.Peer, e)
			}
			if e.Kind == Delay && e.Picos <= 0 {
				t.Fatalf("p=%d: drew a delay without a duration: %+v", p, e)
			}
		}
	}
}
