package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// ErrPeerFailed unwinds an operation that cannot complete because a
// peer died (or requested recovery). The comm layer maps it to a
// recoverable *RankFailure; the value itself is never inspected.
var ErrPeerFailed = errors.New("tcptransport: peer failed")

// ErrKilled unwinds operations on a transport whose local rank is dead.
var ErrKilled = errors.New("tcptransport: local rank killed")

// T implements comm.Transport over a localhost TCP mesh. All methods
// except Close are called from the local rank's SPMD goroutine; one
// reader goroutine per peer demultiplexes inbound frames into per-peer
// per-tag queues under the transport-wide lock.
type T struct {
	rank int
	p    int
	ln   net.Listener

	conns []net.Conn
	wmu   []sync.Mutex // per-connection write locks (ops vs Kill/Close)

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [][comm.NumTags][]wireFrame
	live     []bool // peers and self; false once dead
	reported []bool // failure callback delivered for this peer
	prevLive []bool // live set agreed at the last Shrink (epoch start)
	epoch    uint64
	inShrink bool
	recovery bool // a peer entered Shrink for the current epoch
	recRep   bool // recovery callback delivered for this epoch
	killed   bool
	closed   bool
	onFail   func(phys int)

	// Bounded-time detection (see detect.go). All zero/nil when the
	// transport is built without a detection timeout.
	detect      time.Duration
	suspected   []bool      // peer declared dead by deadline, not EOF
	nSuspect    int64       // count of suspicions (under mu)
	frozenUntil []time.Time // delay-fault freeze per connection (under mu)
	hbStop      chan struct{}
	hbOnce      sync.Once
	hung        atomic.Bool // hang latched: all writes vanish

	// Socket faults struck at this rank's fault sites, each waiting for
	// its next frame to its peer (see detect.go). SPMD goroutine only.
	armed []comm.SocketFault
}

// Listen binds one localhost listener per rank and returns them with
// their addresses. Binding everything before any rank connects is what
// makes the mesh build race-free.
func Listen(p int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, nil, fmt.Errorf("tcptransport: bind rank %d: %w", i, err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs, nil
}

// ConnectTimeout builds rank's leg of the full mesh: dial every lower
// rank, accept from every higher rank, then start the per-peer readers.
// It takes ownership of ln. With a positive detect, the transport
// heartbeats every peer at detect/3 and suspects (then treats as failed)
// any connection silent for detect; zero detect keeps the EOF-only
// fail-stop behavior.
func ConnectTimeout(rank int, ln net.Listener, addrs []string, detect time.Duration) (*T, error) {
	p := len(addrs)
	if p < 1 || p > 64 {
		ln.Close()
		return nil, fmt.Errorf("tcptransport: world size %d outside [1,64] (Shrink masks are 64-bit)", p)
	}
	if rank < 0 || rank >= p {
		ln.Close()
		return nil, fmt.Errorf("tcptransport: rank %d out of range [0,%d)", rank, p)
	}
	t := &T{
		rank:        rank,
		p:           p,
		ln:          ln,
		conns:       make([]net.Conn, p),
		wmu:         make([]sync.Mutex, p),
		queues:      make([][comm.NumTags][]wireFrame, p),
		live:        make([]bool, p),
		reported:    make([]bool, p),
		prevLive:    make([]bool, p),
		detect:      detect,
		suspected:   make([]bool, p),
		frozenUntil: make([]time.Time, p),
	}
	t.cond = sync.NewCond(&t.mu)
	for i := range t.live {
		t.live[i] = true
		t.prevLive[i] = true
	}
	for j := 0; j < rank; j++ {
		c, err := net.Dial("tcp", addrs[j])
		if err == nil {
			err = writeHello(c, rank)
		}
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("tcptransport: rank %d dial rank %d: %w", rank, j, err)
		}
		t.conns[j] = c
	}
	for n := 0; n < p-1-rank; n++ {
		c, err := ln.Accept()
		var peer int
		if err == nil {
			peer, err = readHello(c)
		}
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("tcptransport: rank %d accept: %w", rank, err)
		}
		if peer <= rank || peer >= p || t.conns[peer] != nil {
			c.Close()
			t.Close()
			return nil, fmt.Errorf("tcptransport: rank %d got bad hello from %d", rank, peer)
		}
		t.conns[peer] = c
	}
	for peer, c := range t.conns {
		if c != nil {
			go t.reader(peer, c)
		}
	}
	if t.detect > 0 && p > 1 {
		t.hbStop = make(chan struct{})
		go t.heartbeater()
	}
	return t, nil
}

func (t *T) Rank() int { return t.rank }
func (t *T) Size() int { return t.p }

func (t *T) OnFailure(fn func(phys int)) {
	t.mu.Lock()
	t.onFail = fn
	t.mu.Unlock()
}

// Dead returns every peer known dead, ascending.
func (t *T) Dead() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dead []int
	for r, alive := range t.live {
		if !alive && r != t.rank {
			dead = append(dead, r)
		}
	}
	return dead
}

// reader drains one peer's connection into the tag queues. EOF (or any
// read error) is that peer's fail-stop death; with detection enabled, a
// read-deadline expiry is a suspicion, converted to a fail-stop by
// closing the connection so the suspect (if alive) sees EOF in turn.
func (t *T) reader(peer int, c net.Conn) {
	r := io.Reader(c)
	if t.detect > 0 {
		r = &deadlineReader{c: c, d: t.detect}
	}
	for {
		f, err := readFrameFrom(r)
		if err != nil {
			timedOut := t.detect > 0 && isTimeout(err)
			if timedOut {
				c.Close()
			}
			t.mu.Lock()
			t.live[peer] = false
			if timedOut && !t.suspected[peer] {
				t.suspected[peer] = true
				t.nSuspect++
			}
			t.cond.Broadcast()
			t.mu.Unlock()
			return
		}
		if f.tag == comm.TagHeartbeat {
			continue
		}
		t.mu.Lock()
		if f.epoch >= t.epoch {
			t.queues[peer][f.tag] = append(t.queues[peer][f.tag], f)
			t.cond.Broadcast()
		}
		t.mu.Unlock()
	}
}

// popLocked removes and returns the next frame of the tag from the peer
// at exactly the given epoch, dropping older frames on the way.
func (t *T) popLocked(peer int, tag comm.Tag, epoch uint64) (wireFrame, bool) {
	q := t.queues[peer][tag]
	for len(q) > 0 && q[0].epoch < epoch {
		q = q[1:]
	}
	t.queues[peer][tag] = q
	if len(q) > 0 && q[0].epoch == epoch {
		t.queues[peer][tag] = q[1:]
		return q[0], true
	}
	return wireFrame{}, false
}

// failedLocked reports whether an operation over the given peers must
// unwind: the local rank is dead, a peer died, or a peer has entered the
// recovery rendezvous for the current epoch (its TagShrink frame is the
// recovery request).
func (t *T) failedLocked(peers []int) bool {
	if t.killed || t.closed || t.recoveryLocked() {
		return true
	}
	for _, peer := range peers {
		if !t.live[peer] {
			return true
		}
	}
	return false
}

// recoveryLocked reports (and latches) whether a peer has entered the
// recovery rendezvous for the current epoch — its TagShrink frame is
// the recovery request that unwinds whatever op this rank is in.
func (t *T) recoveryLocked() bool {
	if !t.inShrink && !t.recovery {
		for peer := range t.queues {
			q := t.queues[peer][comm.TagShrink]
			if len(q) > 0 && q[len(q)-1].epoch >= t.epoch {
				t.recovery = true
				break
			}
		}
	}
	return t.recovery
}

// failLocked gathers the callback calls owed for newly observed
// failures; the caller fires them after releasing the lock, so the
// callback has always run by the time an operation returns its error.
func (t *T) failLocked() []int {
	var calls []int
	for r, alive := range t.live {
		if !alive && !t.reported[r] && r != t.rank {
			t.reported[r] = true
			calls = append(calls, r)
		}
	}
	if t.recovery && !t.recRep {
		t.recRep = true
		calls = append(calls, -1)
	}
	return calls
}

func (t *T) fail(calls []int) error {
	if t.killed || t.closed {
		return ErrKilled
	}
	for _, c := range calls {
		if t.onFail != nil {
			t.onFail(c)
		}
	}
	return ErrPeerFailed
}

// livePeersLocked returns the live peers (self excluded), ascending.
func (t *T) livePeersLocked() []int {
	peers := make([]int, 0, t.p-1)
	for r, alive := range t.live {
		if alive && r != t.rank {
			peers = append(peers, r)
		}
	}
	return peers
}

// epochPeersLocked returns the peers belonging to the current epoch —
// the membership agreed at the last Shrink, dead or not. Collectives
// must address exactly this set: a member death makes the op fail (and
// the group recover), never silently shrink mid-epoch.
func (t *T) epochPeersLocked() []int {
	peers := make([]int, 0, t.p-1)
	for r, in := range t.prevLive {
		if in && r != t.rank {
			peers = append(peers, r)
		}
	}
	return peers
}

func (t *T) write(peer int, f wireFrame) error {
	t.wmu[peer].Lock()
	defer t.wmu[peer].Unlock()
	if t.hung.Load() {
		return nil // silent NIC: the frame vanishes without error
	}
	c := t.conns[peer]
	if c == nil {
		return ErrPeerFailed
	}
	if len(t.armed) > 0 && t.applySocketFault(peer, f) {
		return ErrPeerFailed
	}
	return writeFrame(c, f)
}

// Exchange implements the collective deposit primitive: push the frame
// to every live peer, then block until every live peer's deposit for
// this tag and epoch has arrived. Results are indexed by dense rank id.
func (t *T) Exchange(tag comm.Tag, f comm.Frame) ([]comm.Frame, error) {
	t.mu.Lock()
	epoch := t.epoch
	peers := t.epochPeersLocked()
	if t.failedLocked(peers) {
		calls := t.failLocked()
		t.mu.Unlock()
		return nil, t.fail(calls)
	}
	t.mu.Unlock()

	wf := wireFrame{tag: tag, elem: f.Elem, epoch: epoch, clock: f.Clock, data: f.Data}
	for _, peer := range peers {
		// A failed write is the peer's death; the reader will observe the
		// EOF and the collect loop below unwinds the op.
		_ = t.write(peer, wf)
	}

	t.mu.Lock()
	for {
		// A death only fails the op if the dead peer's own frame is the
		// one that can never arrive: frames precede the EOF on a peer's
		// connection, so a peer that completed this collective and then
		// exited (the machine's last op) has already delivered its frame,
		// and the op must succeed exactly as it does on the simulated
		// machine. A missing frame from a LIVE peer is never grounds to
		// fail — either that peer will still send (it entered the op), or
		// it unwound before sending, in which case its recovery request
		// (TagShrink) breaks this wait.
		ready := true
		orphaned := false // a missing frame's sender is dead
		for _, peer := range peers {
			q := t.queues[peer][tag]
			for len(q) > 0 && q[0].epoch < epoch {
				q = q[1:]
			}
			t.queues[peer][tag] = q
			if len(q) == 0 {
				ready = false
				if !t.live[peer] {
					orphaned = true
				}
			}
		}
		if ready {
			break
		}
		if orphaned || t.killed || t.closed || t.recoveryLocked() {
			calls := t.failLocked()
			t.mu.Unlock()
			return nil, t.fail(calls)
		}
		t.cond.Wait()
	}
	ranks := append(append([]int(nil), peers...), t.rank)
	sort.Ints(ranks)
	out := make([]comm.Frame, len(ranks))
	for d, r := range ranks {
		if r == t.rank {
			out[d] = comm.Frame{Elem: f.Elem, Clock: f.Clock, Data: f.Data}
			continue
		}
		pf, ok := t.popLocked(r, tag, epoch)
		if !ok {
			t.mu.Unlock()
			return nil, fmt.Errorf("tcptransport: exchange lost rank %d's frame", r)
		}
		out[d] = comm.Frame{Elem: pf.elem, Clock: pf.clock, Data: pf.data}
	}
	t.mu.Unlock()
	return out, nil
}

// Send pushes an eager frame to a live peer.
func (t *T) Send(dst int, tag comm.Tag, f comm.Frame) error {
	t.mu.Lock()
	epoch := t.epoch
	if t.failedLocked([]int{dst}) {
		calls := t.failLocked()
		t.mu.Unlock()
		return t.fail(calls)
	}
	t.mu.Unlock()
	// Write errors surface as the peer's EOF on the reader side; the
	// sender itself may proceed (eager send semantics) until an op that
	// needs the peer observes the death.
	_ = t.write(dst, wireFrame{tag: tag, elem: f.Elem, epoch: epoch, clock: f.Clock, data: f.Data})
	return nil
}

// Recv blocks for the next frame of the tag from the peer.
func (t *T) Recv(src int, tag comm.Tag) (comm.Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	epoch := t.epoch
	for {
		if f, ok := t.popLocked(src, tag, epoch); ok {
			return comm.Frame{Elem: f.elem, Clock: f.clock, Data: f.data}, nil
		}
		if t.failedLocked([]int{src}) {
			calls := t.failLocked()
			t.mu.Unlock()
			err := t.fail(calls)
			t.mu.Lock()
			return comm.Frame{}, err
		}
		t.cond.Wait()
	}
}

// Shrink is the recovery rendezvous. Survivors exchange 64-bit dead-set
// masks for the current epoch, union them (skipping peers that die
// mid-rendezvous — their deaths are agreed here too, or converge next
// epoch), agree on the lost set, and step the epoch.
func (t *T) Shrink(clock int64) ([]int, int64, error) {
	t.mu.Lock()
	if t.killed || t.closed {
		t.mu.Unlock()
		return nil, 0, ErrKilled
	}
	t.inShrink = true
	epoch := t.epoch
	var mask uint64
	for r := range t.live {
		if t.prevLive[r] && !t.live[r] {
			mask |= 1 << r
		}
	}
	peers := t.livePeersLocked()
	t.mu.Unlock()

	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], mask)
	wf := wireFrame{tag: comm.TagShrink, epoch: epoch, clock: clock, data: payload[:]}
	for _, peer := range peers {
		_ = t.write(peer, wf)
	}

	t.mu.Lock()
	union := mask
	maxClock := clock
	pending := append([]int(nil), peers...)
	for len(pending) > 0 {
		next := pending[:0]
		progressed := false
		for _, peer := range pending {
			if union&(1<<peer) != 0 {
				// Another survivor reported this peer dead. Without
				// detection such reports are never false; with it the peer
				// may merely be suspected-but-alive — either way the group
				// has committed to excluding it, so stop waiting for its
				// mask (its connection is closed below, which turns the
				// verdict into an EOF on its side and keeps views
				// symmetric).
				t.live[peer] = false
				progressed = true
				continue
			}
			if !t.live[peer] {
				union |= 1 << peer
				progressed = true
				continue
			}
			if f, ok := t.popLocked(peer, comm.TagShrink, epoch); ok {
				union |= binary.LittleEndian.Uint64(f.data)
				if f.clock > maxClock {
					maxClock = f.clock
				}
				progressed = true
				continue
			}
			next = append(next, peer)
		}
		pending = next
		if len(pending) > 0 && !progressed {
			t.cond.Wait()
		}
		if t.killed || t.closed {
			t.inShrink = false
			t.mu.Unlock()
			return nil, 0, ErrKilled
		}
	}

	var lost []int
	for r := range t.live {
		if t.prevLive[r] && union&(1<<r) != 0 {
			lost = append(lost, r)
			t.live[r] = false
			t.reported[r] = true
		}
	}
	if t.detect > 0 {
		// Under bounded-time detection a shrink verdict can name a rank
		// that is still running (a suspicion). Two refinements keep that
		// safe. Eviction: if the union names this rank, the surviving
		// partition has already agreed to go on without it — abort rather
		// than fork the world. Orphan rule: a rank that just lost every
		// peer of a multi-rank epoch at once is overwhelmingly the hung/
		// partitioned party, not the last survivor; abort and let the
		// coordinator respawn the true survivors from the checkpoint.
		evicted := union&(1<<t.rank) != 0
		if evicted || (len(t.livePeersLocked()) == 0 && len(t.epochPeersLocked()) > 0) {
			t.inShrink = false
			t.mu.Unlock()
			return nil, 0, ErrOrphaned
		}
	}
	// Connections to ranks the union declared dead but whose sockets are
	// still open (reported by another survivor's deadline, not observed
	// here) are closed after the lock drops: the close delivers the
	// verdict to a suspected-but-alive rank as an EOF, so it exits via
	// its own orphan rule instead of waiting forever on the old epoch.
	var toClose []int
	for _, r := range lost {
		if t.conns[r] != nil {
			toClose = append(toClose, r)
		}
	}
	copy(t.prevLive, t.live)
	t.epoch++
	t.inShrink = false
	t.recovery = false
	t.recRep = false
	// Drop everything from dead epochs now (popLocked would also skip
	// them lazily, but un-popped tags — a stale shrink mask, a deposit
	// for an op the survivors abandoned — would otherwise linger).
	for peer := range t.queues {
		for tag := range t.queues[peer] {
			q := t.queues[peer][tag]
			k := 0
			for _, f := range q {
				if f.epoch >= t.epoch {
					q[k] = f
					k++
				}
			}
			t.queues[peer][tag] = q[:k]
		}
	}
	t.mu.Unlock()
	for _, r := range toClose {
		t.wmu[r].Lock()
		if t.conns[r] != nil {
			t.conns[r].Close()
		}
		t.wmu[r].Unlock()
	}
	return lost, maxClock, nil
}

// Kill marks the local rank dead and closes every connection, so peers
// observe the fail-stop as EOFs — the wire announcement of an injected
// crash.
func (t *T) Kill() {
	t.mu.Lock()
	if t.killed {
		t.mu.Unlock()
		return
	}
	t.killed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.teardown()
}

// Close releases the transport. Peers observe EOF, exactly as on death;
// call only once the SPMD program is finished.
func (t *T) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.teardown()
	return nil
}

func (t *T) teardown() {
	t.stopHeartbeat()
	if t.ln != nil {
		t.ln.Close()
	}
	for peer := range t.conns {
		t.wmu[peer].Lock()
		if t.conns[peer] != nil {
			t.conns[peer].Close()
		}
		t.wmu[peer].Unlock()
	}
}
