// Package trace is the per-phase accounting layer of the simulated
// machine: it attributes every advance of a rank's virtual clock, every
// byte sent or received, and every communication operation to the phase of
// the ScalParC induction that caused it.
//
// The paper's entire evaluation (section 4, Figure 3) is a per-phase
// story — Sort vs FindSplitI/II vs PerformSplitI/II, runtime vs memory —
// so whole-run totals are not enough to attribute or verify an
// optimisation of any one phase. Each rank carries a current (phase,
// level) tag; package comm deposits every clock advance and every
// operation's bytes into the tagged bucket, alongside (never instead of)
// the existing whole-run totals.
//
// Virtual time here is integer picoseconds (see comm's clock
// representation): integer addition is associative, so regrouping the
// same advances by phase, by level, or chronologically always yields
// bit-identical sums. That is what makes the layer's central invariant —
// per-phase times sum *exactly* to the modeled runtime T_p — checkable
// with == rather than a tolerance.
//
// Package comm is the only writer; the serial SLIQ baseline runs as the
// one rank of a comm world, so its breakdown is booked the same way.
package trace

// Phase identifies one phase of the paper's induction loop. Other is the
// catch-all for work outside the four phases and the presort (initial
// list construction, the root histogram reduction, the rebalancing
// ablation); it exists so that the sum over all phases accounts for every
// picosecond of the run.
type Phase uint8

const (
	// Other is everything not belonging to a named phase.
	Other Phase = iota
	// Sort is the one-time parallel sample sort of the continuous
	// attribute lists (the presort).
	Sort
	// FindSplitI builds the global class-count matrices: local counting
	// plus the parallel prefix scan (continuous) and the reductions onto
	// coordinator processors (categorical).
	FindSplitI
	// FindSplitII evaluates candidate splits: the gini scans over every
	// local segment and the global reduction that picks the winner.
	FindSplitII
	// PerformSplitI assigns records of the splitting attributes to
	// children and writes the assignments into the record map.
	PerformSplitI
	// PerformSplitII splits every other attribute list consistently by
	// enquiring the record map.
	PerformSplitII

	// NumPhases is the number of distinct phases.
	NumPhases = int(PerformSplitII) + 1
)

var phaseNames = [NumPhases]string{
	"Other", "Sort", "FindSplitI", "FindSplitII", "PerformSplitI", "PerformSplitII",
}

func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "Phase(?)"
}

// Key identifies one accounting bucket: a phase at a tree level. The
// presort and other pre-induction work use level 0.
type Key struct {
	Phase Phase
	Level int
}

// Bucket accumulates one (phase, level)'s share of a rank's activity.
type Bucket struct {
	Key
	// Picos is the virtual time attributed to the bucket, in picoseconds.
	Picos int64
	// BytesSent and BytesRecv are the communication volume attributed to
	// the bucket.
	BytesSent, BytesRecv int64
	// Ops counts communication operations (collectives, barriers, and
	// point-to-point messages) attributed to the bucket.
	Ops int64
}

// Seconds converts the bucket's virtual time to seconds.
func (b Bucket) Seconds() float64 { return float64(b.Picos) / 1e12 }

// Span is one contiguous stretch of a rank's virtual timeline spent in a
// single (phase, level) — the unit of the Chrome trace-event output.
type Span struct {
	Key
	StartPicos, EndPicos int64
}

// Event is a named instant on a rank's virtual timeline — faults,
// retries, failure detections, recovery shrinks, checkpoints. Rendered as
// Chrome instant ("i") events.
type Event struct {
	Name  string
	Picos int64
}

// RankTrace is one rank's accounting. Methods are called only from the
// owning rank's goroutine; no locking.
type RankTrace struct {
	cur       Key
	curIdx    int // index of cur in buckets, or -1 if not yet materialised
	idx       map[Key]int
	buckets   []Bucket // first-touch (chronological) order
	spans     []Span
	spanStart int64
	events    []Event
}

// NewRank returns an empty trace positioned at (Other, 0).
func NewRank() *RankTrace {
	return &RankTrace{curIdx: -1, idx: make(map[Key]int)}
}

// Current returns the current (phase, level) tag.
func (t *RankTrace) Current() Key { return t.cur }

// SetPhase switches the current tag. now is the rank's virtual clock in
// picoseconds; it closes the running timeline span. Buckets are created
// lazily on first attribution, so tagging a phase that does no work
// leaves no empty rows behind.
func (t *RankTrace) SetPhase(p Phase, level int, now int64) {
	k := Key{Phase: p, Level: level}
	if k == t.cur {
		return
	}
	t.closeSpan(now)
	t.cur = k
	t.curIdx = -1
}

func (t *RankTrace) closeSpan(now int64) {
	if now > t.spanStart {
		t.spans = append(t.spans, Span{Key: t.cur, StartPicos: t.spanStart, EndPicos: now})
	}
	t.spanStart = now
}

// bucket returns the current bucket, materialising it on first use.
func (t *RankTrace) bucket() *Bucket {
	if t.curIdx < 0 {
		i, ok := t.idx[t.cur]
		if !ok {
			i = len(t.buckets)
			t.idx[t.cur] = i
			t.buckets = append(t.buckets, Bucket{Key: t.cur})
		}
		t.curIdx = i
	}
	return &t.buckets[t.curIdx]
}

// AddPicos attributes d picoseconds of virtual time to the current bucket.
func (t *RankTrace) AddPicos(d int64) {
	if d > 0 {
		t.bucket().Picos += d
	}
}

// AddComm attributes one communication operation with the given sent and
// received byte counts to the current bucket.
func (t *RankTrace) AddComm(sent, recv int64) {
	b := t.bucket()
	b.BytesSent += sent
	b.BytesRecv += recv
	b.Ops++
}

// AddEvent records a named instant event at the given clock.
func (t *RankTrace) AddEvent(name string, now int64) {
	t.events = append(t.events, Event{Name: name, Picos: now})
}

// Events returns the rank's instant events in chronological order.
func (t *RankTrace) Events() []Event {
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Finish closes the open timeline span at the rank's final clock. Call
// once, after the last operation.
func (t *RankTrace) Finish(now int64) { t.closeSpan(now) }

// ResetTimes zeroes the attributed virtual time and clears the timeline,
// keeping byte and operation counters. Paired with the world's clock
// reset so that "sum of bucket times == clock" survives a reset.
func (t *RankTrace) ResetTimes() {
	for i := range t.buckets {
		t.buckets[i].Picos = 0
	}
	t.spans = nil
	t.spanStart = 0
	t.events = nil
}

// ResetComm zeroes the byte and operation counters, keeping times.
// Paired with the world's stats reset.
func (t *RankTrace) ResetComm() {
	for i := range t.buckets {
		t.buckets[i].BytesSent = 0
		t.buckets[i].BytesRecv = 0
		t.buckets[i].Ops = 0
	}
}

// Buckets returns the rank's buckets in first-touch order.
func (t *RankTrace) Buckets() []Bucket {
	out := make([]Bucket, len(t.buckets))
	copy(out, t.buckets)
	return out
}

// Spans returns the rank's closed timeline spans in chronological order.
func (t *RankTrace) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// PhasePicos returns the virtual time per phase, summed over levels in
// bucket (chronological) order.
func (t *RankTrace) PhasePicos() [NumPhases]int64 {
	var out [NumPhases]int64
	for _, b := range t.buckets {
		out[b.Phase] += b.Picos
	}
	return out
}

// TotalPicos returns the total attributed virtual time: the sum of
// PhasePicos, which — integer addition being associative — equals the sum
// over buckets in any order.
func (t *RankTrace) TotalPicos() int64 {
	var total int64
	for _, p := range t.PhasePicos() {
		total += p
	}
	return total
}

// Clone returns a deep copy (used to snapshot a live trace).
func (t *RankTrace) Clone() *RankTrace {
	c := &RankTrace{
		cur:       t.cur,
		curIdx:    t.curIdx,
		idx:       make(map[Key]int, len(t.idx)),
		buckets:   append([]Bucket(nil), t.buckets...),
		spans:     append([]Span(nil), t.spans...),
		spanStart: t.spanStart,
		events:    append([]Event(nil), t.events...),
	}
	for k, v := range t.idx {
		c.idx[k] = v
	}
	return c
}

// Trace is a whole run's breakdown: one RankTrace per rank plus each
// rank's final virtual clock.
type Trace struct {
	// Ranks holds one trace per rank, indexed by rank.
	Ranks []*RankTrace
	// FinalPicos is each rank's final virtual clock in picoseconds.
	FinalPicos []int64
}

// CriticalRank returns the rank with the maximum final clock — the rank
// that defines the modeled parallel runtime T_p.
func (t *Trace) CriticalRank() int {
	best := 0
	for r, c := range t.FinalPicos {
		if c > t.FinalPicos[best] {
			best = r
		}
	}
	return best
}

// TotalPicos returns the modeled parallel runtime in picoseconds (the
// maximum final clock over ranks).
func (t *Trace) TotalPicos() int64 {
	var max int64
	for _, c := range t.FinalPicos {
		if c > max {
			max = c
		}
	}
	return max
}

// TotalSeconds returns the modeled parallel runtime in seconds.
func (t *Trace) TotalSeconds() float64 { return float64(t.TotalPicos()) / 1e12 }

// Levels returns 1 + the maximum level appearing in any bucket (0 for an
// empty trace).
func (t *Trace) Levels() int {
	n := 0
	for _, rt := range t.Ranks {
		for _, b := range rt.buckets {
			if b.Level+1 > n {
				n = b.Level + 1
			}
		}
	}
	return n
}
