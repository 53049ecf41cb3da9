package comm

// Stats accumulates one rank's communication counters. Self-copies inside
// collectives are free (as on real hardware) and are not counted.
type Stats struct {
	BytesSent int64
	BytesRecv int64

	MsgsSent int64
	MsgsRecv int64

	Barriers         int64
	AllToAlls        int64
	AllReduces       int64
	Scans            int64
	Allgathers       int64
	Reduces          int64
	ReduceScatters   int64
	CandidateGathers int64
	Bcasts           int64 // always 0: there is no broadcast
	Gathers          int64 // always 0: there is no rooted gather

	// Fault and recovery counters (see faults.go). Drops and Corruptions
	// count injected transport faults; Retries the modeled
	// retransmissions that healed them; Straggles injected slowdowns;
	// Crashes fail-stop faults on this rank; FailuresSeen peer failures
	// this rank detected; Shrinks recovery rendezvous this rank joined.
	Drops        int64
	Corruptions  int64
	Retries      int64
	Straggles    int64
	Crashes      int64
	FailuresSeen int64
	Shrinks      int64
	// Suspicions counts peer failures this rank detected by timeout
	// (a read deadline expiring on a silent connection) rather than by
	// an observed EOF — only a wire transport with bounded-time
	// detection enabled ever reports them.
	Suspicions int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BytesSent += other.BytesSent
	s.BytesRecv += other.BytesRecv
	s.MsgsSent += other.MsgsSent
	s.MsgsRecv += other.MsgsRecv
	s.Barriers += other.Barriers
	s.AllToAlls += other.AllToAlls
	s.AllReduces += other.AllReduces
	s.Scans += other.Scans
	s.Allgathers += other.Allgathers
	s.Reduces += other.Reduces
	s.ReduceScatters += other.ReduceScatters
	s.CandidateGathers += other.CandidateGathers
	s.Bcasts += other.Bcasts
	s.Gathers += other.Gathers
	s.Drops += other.Drops
	s.Corruptions += other.Corruptions
	s.Retries += other.Retries
	s.Straggles += other.Straggles
	s.Crashes += other.Crashes
	s.FailuresSeen += other.FailuresSeen
	s.Shrinks += other.Shrinks
	s.Suspicions += other.Suspicions
}

// MemMeter tracks one rank's current and peak tracked memory, in bytes.
// The algorithms register their long-lived structures (attribute lists,
// node table) and their transient communication buffers with it; the peak
// is what Figure 3(b) plots. Methods are called only from the owning rank's
// goroutine, so no locking is needed.
type MemMeter struct {
	cur  int64
	peak int64
}

// Alloc records an allocation of n bytes.
func (m *MemMeter) Alloc(n int64) {
	m.cur += n
	if m.cur > m.peak {
		m.peak = m.cur
	}
}

// Free records the release of n bytes.
func (m *MemMeter) Free(n int64) {
	m.cur -= n
	if m.cur < 0 {
		panic("comm: MemMeter freed more than allocated")
	}
}

// Adjust records a delta (positive allocates, negative frees).
func (m *MemMeter) Adjust(n int64) {
	if n >= 0 {
		m.Alloc(n)
	} else {
		m.Free(-n)
	}
}

// Current returns the currently tracked bytes.
func (m *MemMeter) Current() int64 { return m.cur }

// Peak returns the maximum of Current over the meter's lifetime.
func (m *MemMeter) Peak() int64 { return m.peak }
