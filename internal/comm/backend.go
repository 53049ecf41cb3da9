package comm

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/timing"
)

// This file is the backend seam: the only place that knows a World is one
// of two machines (transport.go describes both). Everything that
// physically differs between them is here and nothing above names a
// backend — every operation in world.go, collectives.go and p2p.go has
// one body over these primitives:
//
//	exchange        one deposit from every rank, to every rank
//	exchangeColumn  column me of every rank's send matrix (all-to-all)
//	post / take     the point-to-point hand-off
//	runsHere        which ranks Run starts in this process
//	kill / hang     what an injected crash or hang does to the machine
//	strike          handing an injected socket fault to the wire
//	suspicions      timeout verdicts the machine has reached
//	interrupt       releasing ranks the machine has blocked, after a loss
//	rendezvous      the survivors' meeting inside Shrink
//
// The simulated machine (tr == nil) moves everything by reference between
// goroutines, through the deposit cells, the counting barrier and the
// mailboxes at the bottom of this file; a wire Transport moves flat bytes
// between processes.

// NewTransportWorld creates a World driven by a wire transport: the
// local process runs exactly rank t.Rank() of a t.Size()-rank machine
// whose other ranks are peer processes. The full per-rank bookkeeping
// arrays exist (results are indexed by physical rank as usual) but only
// the local rank's entries are ever written; peers report their own.
func NewTransportWorld(t Transport, model timing.Model) *World {
	w := NewWorld(t.Size(), model)
	w.tr = t
	w.self = t.Rank()
	// The wire can only observe fail-stop (a closed connection), so every
	// transport-detected failure is the recoverable kind.
	t.OnFailure(func(phys int) { w.markDead(phys, ErrCrashed) })
	// Deaths the transport observed before this World attached (e.g. a
	// peer lost during connection setup) still need local bookkeeping.
	for _, phys := range t.Dead() {
		w.markDead(phys, ErrCrashed)
	}
	return w
}

// Distributed reports whether this World runs over a wire transport
// (one local rank per process) rather than the simulated machine.
func (w *World) Distributed() bool { return w.tr != nil }

// runsHere reports whether physical rank phys executes in this process:
// every rank of the simulated machine, the local rank alone of a wire one.
func (w *World) runsHere(phys int) bool { return w.tr == nil || phys == w.self }

// exchange is the collective building block: every rank deposits one
// value and receives the full vector of deposits in dense rank order,
// and the caller's clock is synchronized to the maximum deposit clock
// (the caller then adds the operation's modeled cost). On the simulated
// machine local itself crosses, by reference, through the cell array —
// the two barriers make it race-free between consecutive exchanges. On
// a wire payload crosses instead: peers' slots hold their payload bytes
// and the caller's own slot holds local, so own-contribution aliasing
// behaves the same on both.
func (c *Comm) exchange(op Op, tag Tag, local any, payload []byte) []deposit {
	w := c.w
	c.enterOp(op)
	all := w.exchBuf[c.rank]
	if w.tr == nil {
		all = all[:w.sz]
		w.cells[c.Rank()] = deposit{data: local, clock: w.clocks[c.rank]}
		c.await()
		copy(all, w.cells[:w.sz])
		c.await()
	} else {
		frames, err := w.tr.Exchange(tag, Frame{Clock: w.clocks[c.rank], Data: payload})
		if err != nil {
			c.failNow()
		}
		all = all[:len(frames)]
		for r, f := range frames {
			all[r] = deposit{data: f.Data, clock: f.Clock}
		}
		all[c.Rank()].data = local
	}
	var latest int64
	for r := range all {
		latest = max(latest, all[r].clock)
	}
	c.advanceTo(latest)
	return all
}

// encodeSlice views a flat []T as its raw bytes — the wire encoding of
// every payload that crosses a Transport. Zero-copy: the caller must not
// mutate x until the transport call consuming the view returns (both
// Transport.Send and Transport.Exchange hand the bytes off before
// returning, so the collectives' existing buffer rules already cover
// this).
func encodeSlice[T any](x []T) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), len(x)*sizeOf[T]())
}

// decodeSlice copies wire bytes back into a freshly allocated []T. A
// payload that is not a whole number of elements is a data-boundary
// fault between ranks, reported as a typed *ProtocolError like the
// simulated machine's type-assertion failures.
func decodeSlice[T any](b []byte, op string, phys int) []T {
	es := sizeOf[T]()
	if es == 0 {
		panic(&ProtocolError{Op: op, Rank: phys, Detail: "zero-size element type on the wire"})
	}
	if len(b)%es != 0 {
		panic(&ProtocolError{Op: op, Rank: phys,
			Detail: fmt.Sprintf("payload of %d bytes is not a whole number of %d-byte elements", len(b), es)})
	}
	if len(b) == 0 {
		return nil
	}
	out := make([]T, len(b)/es)
	copy(encodeSlice(out), b)
	return out
}

// exchangeSlices is exchange for a flat []T, the deposit of every
// collective but the all-to-all: by reference on the simulated machine,
// flat-encoded into a deposit frame on a wire.
func exchangeSlices[T any](c *Comm, x []T) []deposit {
	return c.exchange(OpCollective, TagDeposit, x, encodeSlice(x))
}

// depositSlice reads rank r's deposit as a []T: the depositor's own slice
// if it crossed by reference (collective results may alias contribution
// buffers), a private decoded copy if it crossed as bytes. Anything else
// is a cross-rank type mismatch.
func depositSlice[T any](c *Comm, all []deposit, r int, op string) []T {
	switch v := all[r].data.(type) {
	case []T:
		return v
	case []byte:
		return decodeSlice[T](v, op, c.Phys())
	case nil:
		return nil
	default:
		panic(&ProtocolError{Op: op, Rank: c.Phys(),
			Detail: fmt.Sprintf("type mismatch in deposit from rank %d: got %T", r, all[r].data)})
	}
}

// a2aPayload carries a rank's send matrix through the deposit together
// with its own-sent byte total, so no receiver has to re-walk every other
// rank's p buffer headers just to recover a number the sender already
// knew — that re-walk made the accounting pass O(p²) per rank per call.
type a2aPayload[T any] struct {
	mat  [][]T
	sent int // bytes destined for other ranks
}

// exchangeColumn is the personalized primitive under AllToAll: it fills
// recv[r] with rank r's send[me] and returns the largest own-sent byte
// total any rank reported (own is the caller's). The simulated machine
// deposits the whole matrix by reference, so self and cross traffic are
// equally free in real bytes.
func exchangeColumn[T any](c *Comm, send, recv [][]T, own int) (maxSent int) {
	if c.w.tr != nil {
		// Its own function so that its larger frame stays off the simulated
		// machine's path: ranks are often short-lived goroutines there, and
		// growing a fresh stack costs more than the exchange.
		return wireColumn(c, send, recv, own)
	}
	me := c.Rank()
	for r, d := range c.exchange(OpCollective, TagDeposit, a2aPayload[T]{mat: send, sent: own}, nil) {
		pl := d.data.(a2aPayload[T])
		recv[r] = pl.mat[me]
		maxSent = max(maxSent, pl.sent)
	}
	return maxSent
}

// wireColumn is exchangeColumn over a wire: each pair exchanges only its
// mutual buffers, as TagA2A frames in shifted-pairwise order, so bytes on
// the wire are exactly the bytes the op owes; a deposit of the sent totals
// alone supplies maxSent, the clock synchronization and the op's single
// fault site.
func wireColumn[T any](c *Comm, send, recv [][]T, own int) (maxSent int) {
	w, p, me := c.w, len(send), c.Rank()
	all := exchangeSlices(c, []int64{int64(own)})
	// Sends are eager (the peer's reader drains its socket), so pushing
	// all p-1 frames before receiving any cannot deadlock. Empty buffers
	// still send an empty frame: receivers always expect exactly one
	// TagA2A frame per peer per call.
	es := uint32(sizeOf[T]())
	for k := 1; k < p; k++ {
		dst := (me + k) % p
		f := Frame{Elem: es, Clock: w.clocks[c.rank], Data: encodeSlice(send[dst])}
		if w.tr.Send(w.physOf[dst], TagA2A, f) != nil {
			c.failNow()
		}
	}
	recv[me] = send[me]
	for k := 1; k < p; k++ {
		src := (me - k + p) % p
		f, err := w.tr.Recv(w.physOf[src], TagA2A)
		if err != nil {
			c.failNow()
		}
		if f.Elem != es {
			panic(&ProtocolError{Op: "AllToAll", Rank: c.Phys(),
				Detail: fmt.Sprintf("element size mismatch: rank %d sent %d-byte elements, expected %d", src, f.Elem, es)})
		}
		recv[src] = decodeSlice[T](f.Data, "AllToAll", c.Phys())
	}
	for r := range all {
		v := depositSlice[int64](c, all, r, "AllToAll")
		if len(v) != 1 {
			panic(&ProtocolError{Op: "AllToAll", Rank: c.Phys(),
				Detail: fmt.Sprintf("malformed sent-total header from rank %d", r)})
		}
		maxSent = max(maxSent, int(v[0]))
	}
	return maxSent
}

// pmessage is one point-to-point message in a simulated mailbox.
type pmessage struct {
	data  any
	clock int64
}

// post hands x to dense rank dst as one eager message stamped with the
// sender's clock: the caller may mutate x the moment it returns. The
// simulated machine copies x into dst's mailbox, blocking only while
// that is full; a wire transport has written the bytes out before
// returning. Either unwinds with a *RankFailure if a peer fails first.
func post[T any](c *Comm, dst int, x []T) {
	w := c.w
	if w.tr != nil {
		f := Frame{Elem: uint32(sizeOf[T]()), Clock: c.ClockPicos(), Data: encodeSlice(x)}
		if w.tr.Send(w.physOf[dst], TagP2P, f) != nil {
			c.failNow()
		}
		return
	}
	buf := make([]T, len(x))
	copy(buf, x)
	select {
	case w.mail[c.rank][w.physOf[dst]] <- pmessage{data: buf, clock: c.ClockPicos()}:
	case <-c.failChan():
		c.failNow()
	}
}

// take blocks for the next message dense rank src posted to this rank and
// returns it with the sender's clock. A message of the wrong element type
// (its Go type on the simulated machine, its element size on a wire) is
// a *ProtocolError: the boundary between ranks is a data boundary, not a
// programmer invariant local to one rank.
func take[T any](c *Comm, src int) ([]T, int64) {
	w := c.w
	if w.tr != nil {
		f, err := w.tr.Recv(w.physOf[src], TagP2P)
		if err != nil {
			c.failNow()
		}
		if f.Elem != uint32(sizeOf[T]()) {
			panic(&ProtocolError{Op: "Recv", Rank: c.Phys(),
				Detail: fmt.Sprintf("type mismatch from rank %d: got %d-byte elements, expected %d", src, f.Elem, sizeOf[T]())})
		}
		return decodeSlice[T](f.Data, "Recv", c.Phys()), f.Clock
	}
	var m pmessage
	select {
	case m = <-w.mail[w.physOf[src]][c.rank]:
	case <-c.failChan():
		c.failNow()
	}
	x, ok := m.data.([]T)
	if !ok {
		panic(&ProtocolError{Op: "Recv", Rank: c.Phys(),
			Detail: fmt.Sprintf("type mismatch from rank %d: got %T", src, m.data)})
	}
	return x, m.clock
}

// kill makes the local rank's injected fail-stop physical. A wire
// transport closes its connections, which is how peers observe the
// death; the simulated machine has nothing to tear down (markDead has
// already released everyone).
func (w *World) kill() {
	if w.tr != nil {
		w.tr.Kill()
	}
}

// hang silences the calling rank for good — it keeps running but looks
// dead to every peer — and never returns. Only a wire transport can do
// that; fault-spec validation keeps hang faults off the simulated
// machine, whose ranks share one process and may not block forever.
func (w *World) hang(rank int) {
	h, ok := w.tr.(interface{ Hang() })
	if !ok {
		panic(fmt.Sprintf("comm: hang fault injected on rank %d but the backend cannot hang a rank (wire transports only)", rank))
	}
	h.Hang()
}

// strike hands a socket fault to the wire transport, which applies it to
// the calling rank's next frame to the fault's peer. Like hang, only a
// wire can: the simulated machine has no connections to tear.
func (w *World) strike(rank int, f SocketFault) {
	s, ok := w.tr.(interface{ Strike(SocketFault) })
	if !ok {
		panic(fmt.Sprintf("comm: socket fault injected on rank %d but the backend has no sockets (wire transports only)", rank))
	}
	s.Strike(f)
}

// suspicions is the number of peers the machine has declared dead by
// timeout rather than by an observed EOF: zero unless a wire transport
// with bounded-time detection reports them.
func (w *World) suspicions() int64 {
	if sc, ok := w.tr.(interface{ Suspicions() int64 }); ok {
		return sc.Suspicions()
	}
	return 0
}

// interrupt, called under fmu once a loss is recorded, releases whatever
// the simulated machine has blocked on the lost rank: ranks parked in the
// counting barrier unwind (mailbox waits watch failCh instead), and a
// rendezvous already waiting for the lost rank completes without it. A
// wire transport fails its own blocked calls, and none of its ranks ever
// waits here.
func (w *World) interrupt() {
	b := w.bar
	b.mu.Lock()
	b.dirty = true
	b.cond.Broadcast()
	b.mu.Unlock()
	w.maybeFinishShrink()
}

// rendezvous is the meeting inside Shrink: it returns once every survivor
// has arrived, with the world renumbered and a fresh failure epoch open,
// and reports the physical ranks lost since the previous one and the
// maximum survivor clock. A wire transport runs the dead-set agreement
// among the survivor processes; on the simulated machine survivors wait
// on a condition until the last arrival (or a further crash lowering the
// quorum) finishes the shrink for everyone.
func (c *Comm) rendezvous() (lost []int, maxClock int64) {
	w := c.w
	if w.tr == nil {
		w.fmu.Lock()
		w.shrinkWait++
		gen := w.shrinkGen
		w.maybeFinishShrink()
		for w.shrinkGen == gen {
			w.shrinkCond.Wait()
		}
		lost, maxClock = w.shrinkLost, w.shrinkClock
		w.fmu.Unlock()
		return lost, maxClock
	}
	lost, maxClock, err := w.tr.Shrink(w.clocks[c.rank])
	if err != nil {
		// No survivors to rendezvous with: unrecoverable.
		panic(&RankFailure{Lost: w.Lost(), Cause: err})
	}
	w.fmu.Lock()
	for _, phys := range lost {
		w.live[phys] = false
	}
	w.renumber()
	w.openEpoch()
	w.fmu.Unlock()
	// A death that raced the agreement (observed on the wire but not in
	// the agreed set) opens the next epoch right away, so the very next
	// operation unwinds into another recovery round instead of
	// deadlocking on a dead peer.
	for _, phys := range w.tr.Dead() {
		w.markDead(phys, ErrCrashed)
	}
	return lost, maxClock
}

// maybeFinishShrink completes the simulated rendezvous once every live
// rank has arrived. Called under fmu.
func (w *World) maybeFinishShrink() {
	if w.shrinkWait == 0 || w.shrinkWait < w.nlive() {
		return
	}
	w.shrinkClock = 0
	for r, alive := range w.live {
		if alive {
			w.shrinkClock = max(w.shrinkClock, w.clocks[r])
		}
	}
	w.shrinkLost = w.lost
	w.renumber()
	w.openEpoch()
	// Fresh machine state for the new epoch: the barrier sized to the
	// survivors, mailboxes drained, and every stale deposit dropped so a
	// crashed collective's buffers don't stay pinned across recovery
	// (survivors are parked in Shrink and the dead never return, so this
	// is race-free here).
	b := w.bar
	b.mu.Lock()
	b.p, b.count, b.dirty = w.sz, 0, false
	b.mu.Unlock()
	for _, row := range w.mail {
		for _, box := range row {
			for len(box) > 0 {
				<-box
			}
		}
	}
	clear(w.cells)
	w.shrinkWait = 0
	w.shrinkGen++
	w.shrinkCond.Broadcast()
}

// failChan returns the channel closed on the current epoch's first
// failure, for the selects of blocking mailbox operations.
func (c *Comm) failChan() <-chan struct{} {
	w := c.w
	w.fmu.Lock()
	ch := w.failCh
	w.fmu.Unlock()
	return ch
}

// await enters the counting barrier, unwinding with a rank failure if the
// barrier is (or goes) dirty while this rank is inside it.
func (c *Comm) await() {
	if !c.w.bar.await() {
		c.failNow()
	}
}

// barrier is a reusable counting barrier. A rank failure marks it dirty:
// every waiter (and every later arrival) returns false until Shrink
// resets it.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	p     int
	count int
	gen   uint64
	dirty bool
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await returns true once every rank has arrived, false if the barrier
// was aborted by a rank failure.
func (b *barrier) await() bool {
	b.mu.Lock()
	if b.dirty {
		b.mu.Unlock()
		return false
	}
	gen := b.gen
	b.count++
	if b.count == b.p {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	for b.gen == gen && !b.dirty {
		b.cond.Wait()
	}
	ok := !b.dirty || b.gen != gen
	b.mu.Unlock()
	return ok
}
