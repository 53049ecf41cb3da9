package comm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/trace"
)

// This file is the fault model of the simulated machine.
//
// Three failure classes are distinguished, mirroring what each would mean
// on real hardware:
//
//   - Transient message faults (drop, corruption detected by a checksum on
//     p2p traffic): the transport retransmits. The op still delivers the
//     correct data; the rank is charged a modeled retransmission penalty
//     and the retry is counted in Stats and recorded as a trace event.
//
//   - Data faults that no retransmission can fix (a corrupted collective
//     deposit, a type or length mismatch between ranks): these raise a
//     typed *ProtocolError. They are deterministic — replaying would fail
//     identically — so the run must abort with context, never retry.
//
//   - Fail-stop rank crashes: the rank marks itself dead and its goroutine
//     exits. Every surviving rank detects the failure at its next
//     communication operation (modeled as a bounded detection timeout),
//     unwinds with a *RankFailure panic, and may rendezvous at Shrink to
//     continue on a smaller, densely renumbered world.
//
// Recovery protocol: catch *RankFailure, check Recoverable(), call
// Comm.TryShrink() on every survivor, then resume (package scalparc replays
// from its last level checkpoint). Non-recoverable causes (a
// *ProtocolError) must be surfaced as errors instead.

// Op classifies a communication operation for fault-injection sites.
type Op uint8

const (
	// OpBarrier is Comm.Barrier.
	OpBarrier Op = iota
	// OpCollective is any collective built on the deposit exchange
	// (all-to-all, reductions, scans, allgathers).
	OpCollective
	// OpSend and OpRecv are p2p.go's send and recv (a test substrate).
	OpSend
	OpRecv
)

func (o Op) String() string {
	switch o {
	case OpBarrier:
		return "barrier"
	case OpCollective:
		return "collective"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Site identifies one fault-injection opportunity: a communication
// operation entered by a rank while tagged with a (phase, level).
// Rank is the physical rank id (stable across Shrink renumbering).
type Site struct {
	Rank  int
	Phase trace.Phase
	Level int
	Op    Op
}

// FaultAction is an injector's verdict for one Site. The zero value means
// "no fault". Crash wins over the others; Drop and Corrupt on p2p ops are
// modeled as detected-and-retransmitted; Corrupt on a collective raises a
// *ProtocolError. Hang — the rank goes silent without exiting, so peers
// must suspect it by timeout rather than observe a death — and Sockets
// are expressible only on a wire transport and are rejected at
// validation on the simulated machine.
type FaultAction struct {
	Crash     bool
	Hang      bool
	Drop      bool
	Corrupt   bool
	SkewPicos int64 // straggler slowdown as virtual-clock skew
	Sockets   []SocketFault
}

// SocketFault is a fault on one of the rank's connections rather than on
// the rank: the wire transport applies it to the next frame the rank
// writes to Peer (-1: to any peer), normally within the struck op. One of
// Reset, Truncate or Delay is set.
type SocketFault struct {
	Peer int
	// Reset closes the connection with a TCP RST instead of writing.
	Reset bool
	// Truncate writes half the frame, then closes: a torn stream.
	Truncate bool
	// Delay freezes the connection, heartbeats included, this long before
	// the frame is written.
	Delay time.Duration
}

// FaultInjector decides, deterministically, whether a fault strikes at a
// site. Act is called from every rank's goroutine concurrently; injectors
// must confine mutable per-rank state to the acting rank (see package
// faults for the deterministic schedule implementation).
type FaultInjector interface {
	Act(Site) FaultAction
}

// ErrCrashed is the failure cause of an injected fail-stop crash — the one
// recoverable cause: the data was fine, only a rank was lost.
var ErrCrashed = errors.New("comm: rank crashed (fail-stop)")

// Crashed is the panic payload a crashing rank unwinds with. World.Run
// absorbs it; it should never be observed by user code.
type Crashed struct{ Rank int }

// ProtocolError reports a data-level fault between ranks: a corrupted
// collective message, a p2p type mismatch, or a collective length
// mismatch. It is deterministic (replay would fail identically), so
// callers must surface it as an error, never retry it.
type ProtocolError struct {
	Op     string // operation name, e.g. "AllReduce"
	Rank   int    // physical rank that detected the fault
	Detail string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("comm: %s on rank %d: %s", e.Op, e.Rank, e.Detail)
}

// RankFailure is the panic payload surviving ranks unwind with after a
// peer failure is detected. Lost lists the physical ranks lost since the
// last Shrink; Cause is the first failure's cause (ErrCrashed for a
// fail-stop crash, a *ProtocolError for a data fault).
type RankFailure struct {
	Lost  []int
	Cause error
}

func (e *RankFailure) Error() string {
	return fmt.Sprintf("comm: rank failure (lost %v): %v", e.Lost, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RankFailure) Unwrap() error { return e.Cause }

// Recoverable reports whether survivors can continue after Shrink: true
// only for fail-stop crashes. Data faults are deterministic and must not
// be replayed.
func (e *RankFailure) Recoverable() bool { return errors.Is(e.Cause, ErrCrashed) }

// TryShrink is Shrink for a recovery loop: it runs the survivors'
// rendezvous and turns a failure of the rendezvous itself — this rank
// evicted by the vote, or orphaned with no surviving quorum — from the
// *RankFailure panic Shrink raises into an error. Anything else keeps
// unwinding.
func (c *Comm) TryShrink() (err error) {
	defer func() {
		switch e := recover().(type) {
		case nil:
		case *RankFailure:
			err = e
		default:
			panic(e)
		}
	}()
	c.Shrink()
	return nil
}
