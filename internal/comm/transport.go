package comm

// This file is the wire-transport contract. A World is one of two
// machines, and every operation of the package is written once over the
// handful of primitives in backend.go, which alone knows which:
//
//   - The goroutine-simulated machine: all ranks share one process,
//     deposits move by reference, and the virtual-clock model is the
//     source of truth for "runtime". This backend stays the
//     deterministic oracle.
//
//   - A wire Transport (this interface, implemented by package
//     tcptransport): each rank is a separate OS process, deposits are
//     encoded to flat bytes and framed onto real sockets, and wall
//     clocks are real. A World constructed with
//     NewTransportWorld drives exactly one local rank over it.
//
// Both backends present the same *World / *Comm API, so every algorithm
// in the repository (scalparc, sprint, psort, nodetable) runs unchanged on
// either, and a differential test can assert byte-identical trees between
// them. The wire carries collectives only: the package exports no
// point-to-point operation (p2p.go's send/recv are the substrate of its
// own tests and run on the simulated machine alone).
//
// Wire format contract. Element types crossing the transport are the
// same "flat" structs of scalars the simulated collectives require (no
// pointers, slices, or maps), so a []T is encoded as its raw in-memory
// bytes — len(x)·unsafe.Sizeof(T) of them — with no per-element walk.
// The encoding is host-native (localhost scope; both ends are the same
// machine and binary), and Frame.Elem carries unsafe.Sizeof(T) so the
// receiver can reject a type-shape mismatch as a *ProtocolError.
//
// Buffer ownership differs by backend, and callers must assume the
// weaker of the two rules: the simulated machine may alias contribution
// buffers in collective results (treat inputs as frozen during the call,
// results as read-only), while a wire transport always hands back
// private decoded copies.

// Tag classifies a transport frame — the typed message tags of the wire
// protocol, one per class of operation in the op set.
type Tag uint8

const (
	// TagDeposit is a collective deposit: the exchange step beneath
	// AllToAll, AllReduce, the scans, Allgather, CandidateGather, Reduce
	// and ReduceScatter.
	TagDeposit Tag = iota
	// TagBarrier is a barrier token (clock only, empty payload).
	TagBarrier
	// TagShrink is a recovery-rendezvous frame (dead-set bitmask).
	TagShrink
	// TagHeartbeat is a liveness beacon for bounded-time failure
	// detection: an empty frame sent on an otherwise idle connection so
	// the receiver's read deadline never fires against a healthy peer.
	// Heartbeats are consumed by the receiving transport's reader and
	// never enter the per-tag queues.
	TagHeartbeat

	// NumTags is the number of frame tags (a wire transport demultiplexes
	// inbound frames into one queue per peer per tag).
	NumTags = 4
)

func (t Tag) String() string {
	switch t {
	case TagDeposit:
		return "deposit"
	case TagBarrier:
		return "barrier"
	case TagShrink:
		return "shrink"
	case TagHeartbeat:
		return "heartbeat"
	default:
		return "Tag(?)"
	}
}

// Frame is one transport message. On the wire it is length-prefixed; the
// fields here are the decoded header plus the payload.
type Frame struct {
	// Elem is the element size of the encoded []T, so the receiver can
	// reject a type-shape mismatch; zero when the payload is untyped.
	Elem uint32
	// Clock is the sender's virtual clock in picoseconds at send time.
	// Virtual clocks keep their meaning on a wire transport — modeled
	// time rides along with the real bytes — so modeled metrics stay
	// comparable across backends.
	Clock int64
	// Sent is the sender's own-sent byte total on an all-to-all's frames,
	// whose maximum prices the op; zero on every other frame.
	Sent int64
	// Data is the flat-encoded payload. A transport implementation must
	// not retain or mutate it after the call that produced it returns.
	Data []byte
}

// Transport is a wire backend beneath a World: it moves frames between
// the local rank's process and its peers. The ranks it reports (Dead,
// the failure callback, Shrink's lost set) are physical ids, stable
// across Shrink renumbering; the frames of ExchangeEach are indexed by
// dense rank, ascending physical order over the epoch's
// members, exactly as the World layer renumbers.
//
// Methods are called only from the local rank's SPMD goroutine, except
// Close (and the failure callback, which the transport itself invokes
// from its reader). An operation that cannot complete because a peer
// failed returns a non-nil error after the failure callback has run, so
// the World's failure bookkeeping is always populated before the caller
// observes the error.
type Transport interface {
	// Rank is the local rank's physical id; Size the initial world size.
	Rank() int
	Size() int

	// ExchangeEach is the collective primitive: fs holds one frame per
	// dense rank (ascending physical order over the live set, own slot
	// included), fs[d] goes to rank d alone, and the result holds, per
	// dense rank, the frame that rank addressed to the caller (fs[own]
	// itself in the caller's slot). It blocks until every live rank has
	// deposited and returns an error if any rank fails first. A plain
	// collective passes the same frame in every slot.
	ExchangeEach(tag Tag, fs []Frame) ([]Frame, error)

	// OnFailure registers the failure callback, invoked at most once per
	// dead peer with its physical id, or with rank -1 when a peer
	// requests recovery (it entered Shrink for the current epoch) without
	// a locally observed death. Must be set before any operation runs.
	OnFailure(func(phys int))

	// Dead returns the physical ids of all peers known dead, in
	// ascending order.
	Dead() []int

	// Shrink is the recovery rendezvous: survivors exchange dead-set
	// masks and agree on the epoch's lost set. It returns the physical
	// ids lost since the previous Shrink and the maximum survivor clock.
	// After it returns, ExchangeEach indexes frames by the shrunken dense
	// ids.
	Shrink(clock int64) (lost []int, maxClock int64, err error)

	// Kill marks the local rank dead and announces the fail-stop to
	// every peer (the injected-crash path). The transport is unusable
	// afterwards.
	Kill()

	// Close releases the transport's connections. Peers observe EOF.
	Close() error
}
