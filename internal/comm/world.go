// Package comm is the message-passing substrate of the repository: a
// simulated distributed-memory parallel machine.
//
// The ScalParC paper runs on a Cray T3D under MPI. Go has no MPI ecosystem,
// so this package hand-rolls the message-passing layer the algorithm needs:
// a World of p ranks (one goroutine each, private state, no shared data
// structures above this layer) with MPI-style operations — barrier,
// point-to-point send/receive, all-to-all personalized exchange, all-reduce,
// reduce, exclusive prefix scan, allgather, and broadcast.
//
// Beyond moving data, the layer provides the two measurements the paper's
// evaluation is built on:
//
//   - Virtual clocks. Every rank carries a clock; Compute advances it by
//     modeled computation time, each communication operation advances it by
//     the timing.Model cost, and synchronizing operations set all
//     participating clocks to the maximum first (a rank cannot leave a
//     collective before the slowest participant arrives). The maximum final
//     clock is the modeled parallel runtime T_p, deterministic and
//     independent of the host's core count. Clocks are integer picoseconds
//     internally: integer addition is associative, so regrouping the same
//     advances by phase or level (see below) sums back to the total
//     exactly, with ==, not a tolerance — float accumulation would drift
//     by ulps depending on grouping order.
//
//   - Byte and memory accounting. Per-rank counters record bytes sent and
//     received by every operation, and a memory meter records the peak of
//     all tracked allocations (attribute lists, node table, communication
//     buffers). These expose the O(N) vs O(N/p) distinction between
//     parallel SPRINT and ScalParC directly.
//
//   - Phase attribution. Each rank carries a current (phase, level) tag
//     (Comm.SetPhase); every clock advance, byte, and operation is
//     deposited into the tagged trace bucket alongside the whole-run
//     totals, so a run decomposes into the paper's Sort, FindSplitI/II,
//     PerformSplitI/II phases (World.Trace). The per-phase times of any
//     rank sum exactly to that rank's final clock.
//
// Element types transferred through the generic collectives must be "flat"
// (no pointers, slices, or maps) so that unsafe.Sizeof gives their true
// wire size; all types used by this repository are flat structs of scalars.
//
// Buffer ownership: point-to-point Send copies its buffer (like an MPI
// eager send), so the caller may reuse it immediately. Collectives, for
// efficiency, may return slices that alias other ranks' contribution
// buffers — treat collective inputs as frozen for the duration of the call
// and collective results as read-only (copy before mutating).
package comm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/timing"
	"repro/internal/trace"
)

// picosPerSecond is the virtual clock's resolution. Modeled costs arrive
// from timing.Model as float seconds and are rounded to integer
// picoseconds once, at the charge boundary; all accumulation is integer.
const picosPerSecond = 1e12

// picos converts modeled seconds to clock ticks.
func picos(seconds float64) int64 {
	return int64(math.Round(seconds * picosPerSecond))
}

// World is a simulated parallel machine with a fixed number of ranks.
// Create one with NewWorld, then either call Run to execute an SPMD function
// on every rank, or obtain individual *Comm handles with Rank.
type World struct {
	p     int
	model timing.Model

	clocks []int64 // virtual time in picoseconds
	stats  []Stats
	mem    []MemMeter
	traces []*trace.RankTrace

	// exchBuf is each rank's pooled deposit-snapshot slice: exchange fills
	// the calling rank's slot instead of allocating a fresh slice per
	// collective. The snapshot is only read by its own rank, between the
	// call returning and that rank's next collective, so reuse is
	// race-free.
	exchBuf [][]deposit

	// Failure machinery (see faults.go). Collective state (deposit
	// vectors, Rank/Size) is indexed by *dense* rank id; per-rank history
	// (clocks, stats, mem, traces, mail) stays physical so a lost rank's
	// record survives for reporting. Before any failure the two coincide.
	fmu           sync.Mutex
	dirty         atomic.Bool   // a failure is pending: lock-free test at op entry
	live          []bool        // live[phys]
	denseOf       []int         // denseOf[phys] = dense id, -1 if dead
	physOf        []int         // physOf[dense] = phys
	sz            int           // current dense size; written only at NewWorld/Shrink
	failCh        chan struct{} // closed on first failure of the epoch
	failOpen      bool
	failCause     error // first failure's cause since the last Shrink
	lost          []int // physical ranks lost since the last Shrink
	detectCharged []bool
	inj           FaultInjector
	detectPicos   int64

	// The machine itself, operated only by backend.go. tr non-nil makes
	// this World a one-local-rank view of a distributed machine: rank self
	// runs in this process and every other rank is a peer process behind
	// tr (hygiene_test.go keeps every other file from reading it).
	// Otherwise the ranks are goroutines of this process sharing the rest:
	// the counting barrier; cells, the deposit slot array (each rank
	// writes cells[rank] between two barriers, then every rank reads all
	// slots between the next two — only ever accessed under that
	// protocol, so it needs no lock); the mailboxes; and the Shrink
	// rendezvous state, guarded by fmu.
	tr          Transport
	self        int
	bar         *barrier
	cells       []deposit
	mail        [][]chan pmessage // mail[src][dst], physical indices
	shrinkWait  int
	shrinkGen   uint64
	shrinkCond  *sync.Cond
	shrinkClock int64
	shrinkLost  []int
}

// defaultDetectSeconds is the modeled bounded-timeout cost each survivor
// pays to detect a peer failure (override with SetDetectTimeout).
const defaultDetectSeconds = 100e-6

type deposit struct {
	data  any
	clock int64
}

// NewWorld creates a simulated machine with p ranks and the given cost
// model. p must be at least 1.
func NewWorld(p int, model timing.Model) *World {
	if p < 1 {
		panic(fmt.Sprintf("comm: NewWorld with p=%d; need p >= 1", p))
	}
	w := &World{
		p:       p,
		model:   model,
		bar:     newBarrier(p),
		cells:   make([]deposit, p),
		clocks:  make([]int64, p),
		stats:   make([]Stats, p),
		mem:     make([]MemMeter, p),
		traces:  make([]*trace.RankTrace, p),
		exchBuf: make([][]deposit, p),
		mail:    make([][]chan pmessage, p),
	}
	for i := range w.exchBuf {
		w.exchBuf[i] = make([]deposit, p)
	}
	for i := range w.traces {
		w.traces[i] = trace.NewRank()
	}
	for i := range w.mail {
		w.mail[i] = make([]chan pmessage, p)
		for j := range w.mail[i] {
			w.mail[i][j] = make(chan pmessage, 4)
		}
	}
	w.live = make([]bool, p)
	w.denseOf = make([]int, p)
	w.physOf = make([]int, p)
	w.detectCharged = make([]bool, p)
	for i := range w.live {
		w.live[i] = true
	}
	w.renumber()
	w.openEpoch()
	w.shrinkCond = sync.NewCond(&w.fmu)
	w.detectPicos = picos(defaultDetectSeconds)
	return w
}

// Live reports whether the given physical rank is currently live. Call
// only while no SPMD section is running.
func (w *World) Live(phys int) bool { return w.live[phys] }

// SetFaultInjector installs a deterministic fault injector consulted at
// every communication-operation entry. Call only while no SPMD section is
// running; nil removes the injector.
func (w *World) SetFaultInjector(inj FaultInjector) { w.inj = inj }

// SetDetectTimeout sets the modeled failure-detection timeout each
// survivor's clock is charged when it first observes a peer failure.
func (w *World) SetDetectTimeout(seconds float64) { w.detectPicos = picos(seconds) }

// LiveRanks returns the current number of live ranks (the dense world
// size after any Shrink). Call only while no SPMD section is running.
func (w *World) LiveRanks() int { return w.sz }

// Lost returns the physical ids of all ranks lost so far, in ascending
// order. Call only while no SPMD section is running.
func (w *World) Lost() []int {
	var out []int
	for r, alive := range w.live {
		if !alive {
			out = append(out, r)
		}
	}
	return out
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.p }

// Model returns the world's cost model.
func (w *World) Model() timing.Model { return w.model }

// Rank returns the communicator handle for the given rank.
func (w *World) Rank(r int) *Comm {
	if r < 0 || r >= w.p {
		panic(fmt.Sprintf("comm: Rank(%d) out of range [0,%d)", r, w.p))
	}
	return &Comm{w: w, rank: r}
}

// Run executes f once per rank, each on its own goroutine, and returns when
// all ranks have finished. It is the standard way to run an SPMD section.
// A panic on any rank propagates and crashes the program, as an unrecovered
// invariant violation should — except the Crashed payload of an injected
// fail-stop fault, which is absorbed here (the rank is already marked dead
// and the survivors carry on; see faults.go).
//
// Run spawns goroutines only for currently live ranks that execute in this
// process, so an SPMD section started after a fault runs on the shrunk
// world.
func (w *World) Run(f func(c *Comm)) {
	// Snapshot the live set before spawning: a rank already started (or a
	// wire transport's reader) may record a death in w.live while this
	// loop is still scanning it.
	w.fmu.Lock()
	live := append([]bool(nil), w.live...)
	w.fmu.Unlock()
	var wg sync.WaitGroup
	for r := 0; r < w.p; r++ {
		if !live[r] || !w.runsHere(r) {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					if _, ok := e.(Crashed); ok {
						return
					}
					panic(e)
				}
			}()
			f(w.Rank(r))
		}(r)
	}
	wg.Wait()
}

// MaxClock returns the maximum virtual clock over all ranks, in seconds:
// the modeled parallel runtime of everything executed so far. Call only
// while no SPMD section is running.
func (w *World) MaxClock() float64 {
	return float64(w.MaxClockPicos()) / picosPerSecond
}

// MaxClockPicos is MaxClock in the clock's native integer picoseconds.
func (w *World) MaxClockPicos() int64 {
	var max int64
	for _, c := range w.clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// ResetClocks zeroes every rank's virtual clock and the attributed times
// of the phase traces (times and clocks must reset together, or the
// "per-phase times sum to the clock" invariant would break). Call only
// while no SPMD section is running.
func (w *World) ResetClocks() {
	for i := range w.clocks {
		w.clocks[i] = 0
		w.traces[i].ResetTimes()
	}
}

// Trace returns a snapshot of the per-rank phase breakdown: deep copies
// of every rank's trace with the timeline closed at the rank's current
// clock, plus the final clocks. Call only while no SPMD section is
// running.
func (w *World) Trace() *trace.Trace {
	t := &trace.Trace{
		Ranks:      make([]*trace.RankTrace, w.p),
		FinalPicos: make([]int64, w.p),
	}
	for r := 0; r < w.p; r++ {
		rt := w.traces[r].Clone()
		rt.Finish(w.clocks[r])
		t.Ranks[r] = rt
		t.FinalPicos[r] = w.clocks[r]
	}
	return t
}

// Stats returns a copy of the accumulated per-rank statistics. Call only
// while no SPMD section is running.
func (w *World) Stats() []Stats {
	out := make([]Stats, w.p)
	copy(out, w.stats)
	return out
}

// ResetStats zeroes the per-rank statistics and the byte/operation
// counters of the phase traces (they mirror the stats, so they reset
// together). Call only while no SPMD section is running.
func (w *World) ResetStats() {
	for i := range w.stats {
		w.stats[i] = Stats{}
		w.traces[i].ResetComm()
	}
}

// PeakMemory returns the per-rank peak tracked memory in bytes. Call only
// while no SPMD section is running.
func (w *World) PeakMemory() []int64 {
	out := make([]int64, w.p)
	for i := range w.mem {
		out[i] = w.mem[i].Peak()
	}
	return out
}

// ResetMemory resets the per-rank memory meters (both current and peak).
// Call only while no SPMD section is running.
func (w *World) ResetMemory() {
	for i := range w.mem {
		w.mem[i] = MemMeter{}
	}
}

// Comm is one rank's handle onto the world. All methods are called from
// that rank's goroutine only.
type Comm struct {
	w    *World
	rank int
}

// Rank returns this rank's dense index in [0, Size). Before any failure it
// equals the physical rank; after a Shrink the survivors are renumbered
// densely so all collectives (and block-distribution arithmetic built on
// Rank/Size) keep working on the smaller world.
func (c *Comm) Rank() int { return c.w.denseOf[c.rank] }

// Phys returns this rank's physical id, stable across Shrink renumbering.
// Per-rank world state (clocks, stats, traces) is indexed by it.
func (c *Comm) Phys() int { return c.rank }

// Size returns the number of live ranks in the world.
func (c *Comm) Size() int { return c.w.sz }

// Model returns the world's cost model.
func (c *Comm) Model() timing.Model { return c.w.model }

// Clock returns this rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return float64(c.w.clocks[c.rank]) / picosPerSecond }

// ClockPicos returns this rank's current virtual time in the clock's
// native integer picoseconds.
func (c *Comm) ClockPicos() int64 { return c.w.clocks[c.rank] }

// Compute advances this rank's virtual clock by the given number of modeled
// seconds of local computation. Negative durations are ignored.
func (c *Comm) Compute(seconds float64) {
	if seconds > 0 {
		c.advance(picos(seconds))
	}
}

// advance moves this rank's clock forward by d picoseconds, attributing
// the advance to the current (phase, level) bucket. Every clock mutation
// in the package funnels through here, which is what makes the phase
// breakdown exactly conservative.
func (c *Comm) advance(d int64) {
	if d <= 0 {
		return
	}
	c.w.clocks[c.rank] += d
	c.w.traces[c.rank].AddPicos(d)
}

// advanceTo moves this rank's clock forward to the given absolute tick
// (no-op if the clock is already past it).
func (c *Comm) advanceTo(target int64) {
	c.advance(target - c.w.clocks[c.rank])
}

// SetPhase tags this rank's subsequent clock advances, bytes, and
// operations with the given induction phase and tree level. The tag
// persists until the next call; ranks start at (trace.Other, 0).
func (c *Comm) SetPhase(p trace.Phase, level int) {
	c.w.traces[c.rank].SetPhase(p, level, c.w.clocks[c.rank])
}

// Event records a named instant event on this rank's trace timeline at
// the current virtual clock (rendered as an instant event in the Chrome
// export). The fault machinery uses it for faults, retries, detections,
// shrinks, checkpoints, and restores.
func (c *Comm) Event(name string) {
	c.w.traces[c.rank].AddEvent(name, c.w.clocks[c.rank])
}

// Mem returns this rank's memory meter.
func (c *Comm) Mem() *MemMeter { return &c.w.mem[c.rank] }

// Stats returns a pointer to this rank's statistics record.
func (c *Comm) Stats() *Stats { return &c.w.stats[c.rank] }

// Barrier blocks until every rank has entered it, synchronizes virtual
// clocks to the maximum, and charges the modeled barrier cost: an exchange
// of an empty deposit. A barrier is also a collective-epoch boundary: it
// drops this rank's references to the previous collective's deposit
// buffers (see clearDeposits).
func (c *Comm) Barrier() {
	all := c.exchange(OpBarrier, TagBarrier, nil, nil)
	c.charge(0, 0, &c.Stats().Barriers, c.Model().Barrier(len(all)))
	c.clearDeposits()
}

// charge books one completed communication operation: its bytes into the
// whole-run Stats and the current (phase, level) trace bucket (the two
// stay consistent because this is the only place either is written), one
// more op on the given Stats counter, and its modeled cost on the clock.
func (c *Comm) charge(sent, recv int64, ops *int64, seconds float64) {
	st := c.Stats()
	st.BytesSent += sent
	st.BytesRecv += recv
	*ops++
	c.w.traces[c.rank].AddComm(sent, recv)
	c.Compute(seconds)
}

// clearDeposits drops this rank's lingering references to the last
// collective's buffers: its deposit-snapshot slice (exchBuf). Without
// this, the snapshot pins the final collective's data for the life of
// the world — invisible at in-core sizes, but a real leak for
// out-of-core runs whose collective buffers are large. (A barrier's own
// deposit is empty, so it leaves nothing behind either; Shrink clears
// every rank's.) It touches only rank-private state, so it is race-free
// anywhere between two of this rank's collectives.
func (c *Comm) clearDeposits() {
	clear(c.w.exchBuf[c.rank])
}

// enterOp is the fault hook at the top of every communication operation:
// it unwinds the rank if a peer failure is pending, then consults the
// fault injector for this (rank, phase, level, op) site. It runs one
// atomic load plus a nil check when no fault machinery is in use.
func (c *Comm) enterOp(op Op) {
	w := c.w
	if w.dirty.Load() {
		c.failNow()
	}
	if w.inj == nil {
		return
	}
	k := w.traces[c.rank].Current()
	act := w.inj.Act(Site{Rank: c.rank, Phase: k.Phase, Level: k.Level, Op: op})
	if act.SkewPicos > 0 {
		c.advance(act.SkewPicos)
		w.stats[c.rank].Straggles++
		c.Event("fault:straggle")
	}
	for _, f := range act.Sockets {
		c.Event("fault:socket")
		w.strike(c.rank, f)
	}
	if act.Hang {
		c.Event("fault:hang")
		w.hang(c.rank) // never returns: the rank goes silent but keeps running
	}
	if act.Crash {
		if w.markDead(c.rank, ErrCrashed) {
			w.stats[c.rank].Crashes++
			c.Event("fault:crash")
			w.kill()
			panic(Crashed{Rank: c.rank})
		}
		// Refusing to kill the last live rank: a machine with no
		// survivors has no one left to recover.
	}
	if act.Drop || act.Corrupt {
		if act.Corrupt && op == OpCollective {
			// A corrupted collective deposit poisons data every rank
			// folds; no retransmission can fix it. Deterministic abort.
			err := &ProtocolError{Op: op.String(), Rank: c.rank,
				Detail: "corrupted collective deposit detected (injected)"}
			w.markDead(c.rank, err)
			w.stats[c.rank].Corruptions++
			c.Event("fault:corrupt-collective")
			panic(err)
		}
		// Transient transport fault: the checksum catches it and the
		// message is retransmitted. Charge the retransmission penalty.
		if act.Drop {
			w.stats[c.rank].Drops++
			c.Event("fault:drop")
		} else {
			w.stats[c.rank].Corruptions++
			c.Event("fault:corrupt")
		}
		w.stats[c.rank].Retries++
		c.advance(picos(2 * w.model.P2PLatency))
		c.Event("fault:retry")
	}
}

// failNow charges the modeled detection timeout (once per failure epoch)
// and unwinds the rank with a *RankFailure describing the lost peers.
func (c *Comm) failNow() {
	w := c.w
	w.fmu.Lock()
	lost := append([]int(nil), w.lost...)
	cause := w.failCause
	w.fmu.Unlock()
	if !w.detectCharged[c.rank] {
		w.detectCharged[c.rank] = true
		c.advance(w.detectPicos)
		w.stats[c.rank].FailuresSeen++
		c.Event("fault:detected")
		// Deaths the machine suspected by timeout (rather than observed)
		// fold into this rank's Stats, so suspicion shows up next to Shrinks.
		if n := w.suspicions(); n > w.stats[c.rank].Suspicions {
			w.stats[c.rank].Suspicions = n
			c.Event("fault:suspected")
		}
	}
	panic(&RankFailure{Lost: lost, Cause: cause})
}

// markDead is the one place a loss is recorded, whoever reports it — the
// rank itself at an injected fault, or a wire transport's failure callback
// (which also passes phys == -1 when a peer entered Shrink for the current
// epoch before any death was seen here: nobody new is lost, but this rank
// must unwind into recovery too). It takes phys out of the live set,
// records the epoch's first cause, and releases every blocked or future
// operation into a *RankFailure (closed failure channel, dirty flag,
// interrupt). Returns false, changing nothing, if phys is already dead
// or is the last live rank: a machine with no survivors has no one left
// to recover. Safe to call from any goroutine.
func (w *World) markDead(phys int, cause error) bool {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if phys >= 0 {
		if !w.live[phys] || w.nlive() <= 1 {
			return false
		}
		w.live[phys] = false
		w.lost = append(w.lost, phys)
	}
	if w.failCause == nil {
		w.failCause = cause
	}
	if w.failOpen {
		close(w.failCh)
		w.failOpen = false
	}
	w.dirty.Store(true)
	w.interrupt()
	return true
}

// nlive counts the live ranks. Called under fmu.
func (w *World) nlive() int {
	n := 0
	for _, alive := range w.live {
		if alive {
			n++
		}
	}
	return n
}

// renumber assigns the live ranks dense ids in physical order. Called
// under fmu.
func (w *World) renumber() {
	d := 0
	for r, alive := range w.live {
		if !alive {
			w.denseOf[r] = -1
			continue
		}
		w.denseOf[r] = d
		w.physOf[d] = r
		d++
	}
	w.sz = d
}

// openEpoch starts a clean failure epoch: nothing lost, no cause, no
// detection charged, a fresh failure channel, and no deposit snapshot of
// the abandoned epoch still referenced. Called under fmu while no rank is
// inside an operation (construction, or every survivor parked in Shrink).
func (w *World) openEpoch() {
	w.failCh = make(chan struct{})
	w.failOpen = true
	w.failCause = nil
	w.lost = nil
	clear(w.detectCharged)
	for _, snap := range w.exchBuf {
		clear(snap)
	}
	w.dirty.Store(false)
}

// Shrink is the survivors' recovery rendezvous (the MPI-ULFM shrink): all
// live ranks call it after unwinding with a recoverable *RankFailure. It
// renumbers the survivors densely, opens a fresh failure epoch,
// synchronizes the survivors' clocks, and returns the physical ids of the
// ranks lost since the previous Shrink. After it returns, Rank/Size and
// every collective work on the shrunk world.
func (c *Comm) Shrink() []int {
	lost, maxClock := c.rendezvous()
	c.advanceTo(maxClock)
	c.w.stats[c.rank].Shrinks++
	c.Event("recovery:shrink")
	return lost
}
