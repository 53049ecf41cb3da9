// Package faults is the deterministic, seed-driven fault injector: a
// Schedule of events, each striking one (rank, phase, level) site exactly
// once, implementing comm.FaultInjector. It is the only fault schedule of
// both machines: the rank kinds (crash, drop, corrupt, straggle) run on
// the simulated machine and on a wire alike, and the wire-only kinds
// (hang and the socket kinds reset, truncate, delay) are handed by the
// comm layer to the wire transport at the same sites.
//
// Determinism is the point: the same schedule against the same run injects
// the same faults at the same operations, so chaos tests can assert the
// recovered tree byte-identical to the fault-free oracle, and a failing
// schedule found by fuzzing replays exactly.
//
// Matching is counted per (rank, phase, level): an event with Nth = k
// fires at the k-th (0-based) communication operation the rank enters
// while tagged with that phase and level. Counters are confined per rank
// (only rank r's goroutine touches rank r's counters), so Act is safe to
// call from every rank concurrently without locks.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/trace"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// Crash is a fail-stop rank crash (recoverable via checkpoint replay).
	Crash Kind = iota
	// Drop is a dropped message, detected and retransmitted (transient).
	Drop
	// Corrupt is a corrupted message: retransmitted on p2p ops, a
	// deterministic *ProtocolError abort on collectives.
	Corrupt
	// Straggle slows the rank down by Picos of virtual time.
	Straggle
	// Hang silences the rank without killing it: the process keeps
	// running but never communicates again, so peers must suspect it by
	// timeout. Only a wire transport with bounded-time detection can
	// express (or survive) it — validation rejects hang events on the
	// simulated machine.
	Hang
	// Reset closes the rank's connection to Peer with a TCP RST instead
	// of writing the op's next frame to it. Reset, Truncate and Delay are
	// the socket kinds: wire-only, like Hang, and aimed at one peer.
	Reset
	// Truncate writes half of that frame and closes the connection — a
	// torn stream, the wire shape of a sender dying mid-write.
	Truncate
	// Delay freezes the connection to Peer, heartbeats included, for
	// Picos of wall time before that frame is written. Shorter than the
	// detection timeout it is benign; longer, the rank gets suspected.
	Delay
)

var kindNames = [...]string{"crash", "drop", "corrupt", "straggle", "hang", "reset", "truncate", "delay"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// wire reports whether only a wire transport can express the kind.
func (k Kind) wire() bool { return k >= Hang }

// socket reports whether the kind strikes a connection, so names a peer.
func (k Kind) socket() bool { return k >= Reset }

// timed reports whether the kind carries a duration.
func (k Kind) timed() bool { return k == Straggle || k == Delay }

// Event schedules one fault at a (rank, phase, level) site.
type Event struct {
	// Rank is the physical rank struck (stable across recovery shrinks).
	Rank int
	// Phase and Level select the induction site.
	Phase trace.Phase
	Level int
	// Nth selects the Nth (0-based) communication operation the rank
	// enters at that site.
	Nth int
	// Kind is the fault class.
	Kind Kind
	// Peer is the other end of a socket kind's connection: a physical
	// rank other than Rank, or -1 (written *) for whichever peer the op
	// writes to first.
	Peer int
	// Picos is the duration of a Straggle (virtual-clock skew) or a Delay
	// (wall-clock freeze), in picoseconds.
	Picos int64
}

func (e Event) String() string {
	s := fmt.Sprintf("%s@%s:%d:%d", e.Kind, e.Phase, e.Level, e.Rank)
	if e.Kind.socket() {
		if e.Peer < 0 {
			s += ":*"
		} else {
			s += fmt.Sprintf(":%d", e.Peer)
		}
	}
	if e.Kind.timed() {
		if e.Picos%1000 != 0 {
			// Not a whole number of nanoseconds: time.Duration cannot
			// carry it, so render picoseconds exactly. Parse accepts the
			// "<n>ps" form back, making String/Parse a lossless pair.
			s += fmt.Sprintf(":%dps", e.Picos)
		} else {
			s += fmt.Sprintf(":%v", time.Duration(e.Picos/1000)*time.Nanosecond)
		}
	}
	if e.Nth != 0 {
		s += fmt.Sprintf("#%d", e.Nth)
	}
	return s
}

// site keys the per-rank op counters.
type site struct {
	phase trace.Phase
	level int
}

// Schedule is a deterministic set of one-shot fault events implementing
// comm.FaultInjector.
type Schedule struct {
	events []Event
	fired  []atomic.Bool  // written by the event's rank, read by Fired from anywhere
	seen   []map[site]int // per physical rank; owner-goroutine access only
}

// NewSchedule builds a schedule for a p-rank world. Events with ranks
// outside [0, p) never fire.
func NewSchedule(p int, events ...Event) *Schedule {
	s := &Schedule{
		events: append([]Event(nil), events...),
		fired:  make([]atomic.Bool, len(events)),
		seen:   make([]map[site]int, p),
	}
	for r := range s.seen {
		s.seen[r] = make(map[site]int)
	}
	return s
}

// Act implements comm.FaultInjector.
func (s *Schedule) Act(at comm.Site) comm.FaultAction {
	var act comm.FaultAction
	if at.Rank < 0 || at.Rank >= len(s.seen) {
		return act
	}
	k := site{phase: at.Phase, level: at.Level}
	n := s.seen[at.Rank][k]
	s.seen[at.Rank][k] = n + 1
	for i := range s.events {
		e := &s.events[i]
		// The rank check must come first: each fired flag is then written
		// only by its event's own rank, keeping Act lock-free.
		if e.Rank != at.Rank || e.Phase != at.Phase || e.Level != at.Level || e.Nth != n || s.fired[i].Load() {
			continue
		}
		s.fired[i].Store(true)
		switch e.Kind {
		case Crash:
			act.Crash = true
		case Drop:
			act.Drop = true
		case Corrupt:
			act.Corrupt = true
		case Straggle:
			act.SkewPicos += e.Picos
		case Hang:
			act.Hang = true
		default:
			act.Sockets = append(act.Sockets, comm.SocketFault{Peer: e.Peer,
				Reset: e.Kind == Reset, Truncate: e.Kind == Truncate, Delay: time.Duration(e.Picos / 1000)})
		}
	}
	return act
}

// Events returns the schedule's events.
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// Fired returns how many events have fired so far. Safe to call from any
// goroutine, also while ranks run.
func (s *Schedule) Fired() int {
	n := 0
	for i := range s.fired {
		if s.fired[i].Load() {
			n++
		}
	}
	return n
}

// Recoverable reports whether every event in the schedule is one the
// recovery path can heal (everything except Corrupt on a collective;
// conservatively, everything except Corrupt).
func (s *Schedule) Recoverable() bool {
	for _, e := range s.events {
		if e.Kind == Corrupt {
			return false
		}
	}
	return true
}

// NeedsWire reports whether the schedule contains events only a wire
// transport can express (hangs and the socket kinds): the simulated
// machine's ranks share one process, have no sockets, and may not block
// forever.
func (s *Schedule) NeedsWire() bool {
	for _, e := range s.events {
		if e.Kind.wire() {
			return true
		}
	}
	return false
}

// maxRandom bounds a random: spec's event count.
const maxRandom = 1000

// randomCap is the most events Random can draw for p ranks from kinds
// (empty: the default four): a rank crashes or hangs at most once, so
// those two kinds alone stop at p.
func randomCap(p int, kinds []Kind) int {
	if len(kinds) == 0 || slices.ContainsFunc(kinds, func(k Kind) bool { return k != Crash && k != Hang }) {
		return maxRandom
	}
	return min(p, maxRandom)
}

// Random generates n events, reproducible from the seed: kinds drawn from
// kinds (the original four — crash, drop, corrupt, straggle — if empty;
// the wire-only kinds must be asked for explicitly), ranks in [0, p),
// phases across the induction phases, levels in [0, maxLevel], straggle
// skews up to 1ms of virtual time, delays up to 10ms of wall time, and
// socket peers over the other ranks and *. At most one Crash or Hang per
// rank is generated so a schedule can never ask to take down the whole
// machine; n must not exceed what that leaves (Parse checks it), or
// Random panics.
func Random(seed int64, p, n, maxLevel int, kinds ...Kind) *Schedule {
	if len(kinds) == 0 {
		kinds = []Kind{Crash, Drop, Corrupt, Straggle}
	}
	if n > randomCap(p, kinds) {
		panic(fmt.Sprintf("faults: %d random events of %v cannot be drawn on %d ranks", n, kinds, p))
	}
	rng := rand.New(rand.NewSource(seed))
	crashed := make([]bool, p)
	events := make([]Event, 0, n)
	phases := []trace.Phase{trace.Sort, trace.FindSplitI, trace.FindSplitII,
		trace.PerformSplitI, trace.PerformSplitII, trace.Other}
	for len(events) < n {
		e := Event{
			Rank:  rng.Intn(p),
			Phase: phases[rng.Intn(len(phases))],
			Level: rng.Intn(maxLevel + 1),
			Kind:  kinds[rng.Intn(len(kinds))],
		}
		if e.Kind == Crash || e.Kind == Hang {
			if crashed[e.Rank] {
				continue
			}
			crashed[e.Rank] = true
		}
		if e.Kind == Straggle {
			e.Picos = 1 + rng.Int63n(1_000_000_000) // up to 1ms
		}
		// Peers and delays are drawn only for the socket kinds, so the
		// draws of every other kind stay those of the seed alone.
		if e.Kind.socket() {
			if e.Peer = rng.Intn(p); e.Peer == e.Rank {
				e.Peer = -1
			}
		}
		if e.Kind == Delay {
			e.Picos = 1000 * (1 + rng.Int63n(10_000_000)) // up to 10ms
		}
		events = append(events, e)
	}
	return NewSchedule(p, events...)
}

// Parse builds a schedule for a p-rank world from a -faults flag spec:
// a comma-separated list of events
//
//	kind@phase:level:rank                 e.g. crash@FindSplitI:1:2
//	straggle@phase:level:rank:dur         e.g. straggle@PerformSplitII:0:1:5ms
//	reset@phase:level:rank:peer           e.g. reset@FindSplitI:1:2:0
//	delay@phase:level:rank:peer:dur       e.g. delay@Other:0:0:1:50ms
//
// (truncate takes reset's form; a peer is a rank or *), optionally
// suffixed #n to strike the n-th op at the site, or the form
//
//	random:n[:kinds]                      e.g. random:4:crash,straggle
//
// which draws n events from the seed (required to be non-zero, so random
// chaos runs are always reproducible on purpose).
func Parse(spec string, seed int64, p int) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("faults: empty spec")
	}
	if p < 1 {
		return nil, fmt.Errorf("faults: a world of %d ranks has no fault sites", p)
	}
	if rest, ok := strings.CutPrefix(spec, "random:"); ok {
		if seed == 0 {
			return nil, fmt.Errorf("faults: %q requires an explicit non-zero seed (-fault-seed)", spec)
		}
		parts := strings.SplitN(rest, ":", 2)
		n, err := strconv.Atoi(parts[0])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("faults: bad random event count %q", parts[0])
		}
		var kinds []Kind
		if len(parts) == 2 {
			for _, ks := range strings.Split(parts[1], ",") {
				k, err := parseKind(ks)
				if err != nil {
					return nil, err
				}
				kinds = append(kinds, k)
			}
		}
		if n > maxRandom {
			return nil, fmt.Errorf("faults: random event count %d exceeds the limit of %d", n, maxRandom)
		}
		if limit := randomCap(p, kinds); n > limit {
			return nil, fmt.Errorf("faults: %q cannot be filled: a rank crashes or hangs at most once, so at most %d such events on %d ranks", spec, limit, p)
		}
		return Random(seed, p, n, 6, kinds...), nil
	}
	var events []Event
	for _, es := range strings.Split(spec, ",") {
		e, err := parseEvent(strings.TrimSpace(es), p)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return NewSchedule(p, events...), nil
}

func parseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q (want one of %s)", s, strings.Join(kindNames[:], ", "))
}

func parsePhase(s string) (trace.Phase, error) {
	for p := trace.Other; int(p) < trace.NumPhases; p++ {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown phase %q (want Sort, FindSplitI, FindSplitII, PerformSplitI, PerformSplitII, or Other)", s)
}

// parsePicos reads a positive duration in picoseconds: the exact "<n>ps"
// form first (String's rendering of sub-nanosecond durations;
// time.ParseDuration has no "ps" unit and its own "µs"/"ns" suffixes never
// end in plain "ps", so the two grammars cannot collide), else anything
// time.ParseDuration takes.
func parsePicos(s string) (int64, bool) {
	if ps, ok := strings.CutSuffix(s, "ps"); ok {
		n, err := strconv.ParseInt(ps, 10, 64)
		return n, err == nil && n > 0
	}
	d, err := time.ParseDuration(s)
	return d.Nanoseconds() * 1000, err == nil && d > 0 && d <= math.MaxInt64/1000
}

func parseEvent(s string, p int) (Event, error) {
	var e Event
	body, nth, hasNth := strings.Cut(s, "#")
	if hasNth {
		n, err := strconv.Atoi(nth)
		if err != nil || n < 0 {
			return e, fmt.Errorf("faults: bad op index %q in %q", nth, s)
		}
		e.Nth = n
	}
	kindStr, rest, ok := strings.Cut(body, "@")
	if !ok {
		return e, fmt.Errorf("faults: event %q is not kind@phase:level:rank", s)
	}
	var err error
	if e.Kind, err = parseKind(kindStr); err != nil {
		return e, err
	}
	parts := strings.Split(rest, ":")
	want := 3
	if e.Kind.socket() {
		want++
	}
	if e.Kind.timed() {
		want++
	}
	if len(parts) != want {
		return e, fmt.Errorf("faults: event %q needs %d colon-separated fields after @", s, want)
	}
	if e.Phase, err = parsePhase(parts[0]); err != nil {
		return e, err
	}
	if e.Level, err = strconv.Atoi(parts[1]); err != nil || e.Level < 0 {
		return e, fmt.Errorf("faults: bad level %q in %q", parts[1], s)
	}
	if e.Rank, err = strconv.Atoi(parts[2]); err != nil || e.Rank < 0 || e.Rank >= p {
		return e, fmt.Errorf("faults: rank %q in %q out of range [0,%d)", parts[2], s, p)
	}
	if e.Kind.socket() {
		if parts[3] == "*" {
			e.Peer = -1
		} else if e.Peer, err = strconv.Atoi(parts[3]); err != nil || e.Peer < 0 || e.Peer >= p || e.Peer == e.Rank {
			return e, fmt.Errorf("faults: peer %q in %q is not * or a rank in [0,%d) other than the struck one", parts[3], s, p)
		}
	}
	if e.Kind.timed() {
		var ok bool
		if e.Picos, ok = parsePicos(parts[want-1]); !ok {
			return e, fmt.Errorf("faults: bad %s duration %q in %q", e.Kind, parts[want-1], s)
		}
	}
	return e, nil
}
