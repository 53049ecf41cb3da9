package tcptransport

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"time"

	"repro/internal/comm"
)

// This file is the bounded-time failure detector and the wire's half of
// the hang and socket fault kinds. Both are inert unless used: with a
// zero detection timeout the transport behaves exactly as the original
// fail-stop (EOF-only) backend, and with no socket fault armed the write
// path costs one length check per frame.
//
// Detector shape: each rank heartbeats every peer at detect/3 and arms a
// read deadline of detect on every inbound connection, so a healthy peer
// has three heartbeat opportunities per deadline window — one lost
// scheduling quantum or GC pause does not trigger a false suspicion. The
// deadline is re-armed before every read, including the reads inside one
// large frame, so a slow multi-chunk payload that is still making
// progress never times out.
//
// A suspicion is converted to a fail-stop by closing the suspect's
// connection: if the suspect was actually alive it observes EOF and
// treats this rank as dead in turn, so the two verdicts are symmetric
// and the shrink masks converge. The cost of a false suspicion is
// therefore a lost rank (safe — recovery handles it), never divergence.

// ErrOrphaned reports that the local rank lost every peer within one
// epoch while bounded-time detection was active. Under detection, "the
// whole world died at once" is overwhelmingly more likely to mean this
// rank was the one partitioned, hung, or suspected — so it aborts
// instead of continuing alone and publishing a minority result. The
// coordinator respawns the true survivors from the last checkpoint.
var ErrOrphaned = errors.New("tcptransport: rank orphaned (lost every peer under bounded-time detection)")

// heartbeatDivisor is how many heartbeat intervals fit in one detection
// timeout.
const heartbeatDivisor = 3

// deadlineReader arms a fresh read deadline before every Read, so a
// connection only times out after a full window with no bytes at all. The
// first window opens with the peer's first bytes: a dial completes on the
// coordinator's listener before the listening worker may even run, and
// every rank heartbeats each peer before ConnectTimeout returns.
type deadlineReader struct {
	c     net.Conn
	d     time.Duration
	heard bool
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	if r.heard {
		if err := r.c.SetReadDeadline(time.Now().Add(r.d)); err != nil {
			return 0, err
		}
	}
	n, err := r.c.Read(p)
	r.heard = r.heard || n > 0
	return n, err
}

// heartbeater keeps every connection warm so peers' read deadlines only
// fire against ranks that are genuinely silent. It runs until teardown.
func (t *T) heartbeater() {
	interval := t.detect / heartbeatDivisor
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.hbStop:
			return
		case <-ticker.C:
		}
		t.beat(interval)
	}
}

// beat writes one heartbeat to every live peer. ConnectTimeout sends the
// first one itself, before it returns: a peer's deadlines start with this
// rank's first bytes, which must arrive before this rank can hang.
func (t *T) beat(interval time.Duration) {
	if t.hung.Load() {
		// A hang silences the whole NIC, heartbeats included — that is
		// the point of the fault.
		return
	}
	hb := wireFrame{tag: comm.TagHeartbeat}
	for peer := range t.conns {
		if t.conns[peer] == nil {
			continue
		}
		t.mu.Lock()
		skip := !t.live[peer] || t.killed || t.closed
		if !skip && time.Now().Before(t.frozenUntil[peer]) {
			skip = true // a delay fault freezes this pair's heartbeats too
		}
		t.mu.Unlock()
		if skip {
			continue
		}
		t.wmu[peer].Lock()
		if c := t.conns[peer]; c != nil {
			// A write deadline so a peer that stopped reading (its
			// socket buffer is full) cannot wedge the heartbeater — the
			// failed write costs nothing; the peer's own reader deadline
			// handles its fate.
			c.SetWriteDeadline(time.Now().Add(interval))
			hb.epoch = t.epochNow()
			_ = writeFrame(c, hb)
			c.SetWriteDeadline(time.Time{})
		}
		t.wmu[peer].Unlock()
	}
}

func (t *T) epochNow() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// stopHeartbeat is idempotent and safe before the heartbeater exists.
func (t *T) stopHeartbeat() {
	t.hbOnce.Do(func() {
		if t.hbStop != nil {
			close(t.hbStop)
		}
	})
}

// Suspicions returns how many peers this rank declared dead on a read
// deadline (rather than an EOF). The World layer folds it into
// Stats.Suspicions.
func (t *T) Suspicions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nSuspect
}

// Hang drops this rank off the wire without killing the process: the
// heartbeater falls silent, outbound frames are discarded, and the
// caller blocks forever. Peers suspect the rank within the detection
// timeout and shrink past it; the hung process is reaped by the
// coordinator's watchdog. This is the `hang` fault kind — only a wire
// transport can express it (the simulated machine's ranks share one
// process and may not block forever).
func (t *T) Hang() {
	t.hung.Store(true)
	select {}
}

// Strike arms a socket fault the comm layer matched at this rank's fault
// site: it applies to the next frame written to its peer.
func (t *T) Strike(f comm.SocketFault) { t.armed = append(t.armed, f) }

// applySocketFault applies the first armed fault aimed at peer (or any
// peer) to the outbound frame f. It is called with wmu[peer] held and
// reports whether the fault tore the connection instead of letting f
// through.
func (t *T) applySocketFault(peer int, f wireFrame) bool {
	i := slices.IndexFunc(t.armed, func(a comm.SocketFault) bool { return a.Peer == peer || a.Peer < 0 })
	if i < 0 {
		return false
	}
	a := t.armed[i]
	t.armed = slices.Delete(t.armed, i, i+1)
	c := t.conns[peer]
	switch {
	case a.Reset:
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN
		}
		c.Close()
		return true
	case a.Truncate:
		// A torn stream: half a frame, then close. The receiver's next
		// read fails mid-frame (unexpected EOF), the exact shape of a
		// sender dying inside a write.
		var buf bytes.Buffer
		_ = writeFrame(&buf, f)
		_, _ = c.Write(buf.Bytes()[:buf.Len()/2])
		c.Close()
		return true
	}
	t.mu.Lock()
	t.frozenUntil[peer] = time.Now().Add(a.Delay)
	t.mu.Unlock()
	time.Sleep(a.Delay)
	return false // then send normally
}

// isTimeout reports whether a reader error was a read-deadline expiry —
// the suspicion signal — as opposed to EOF or a reset.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
