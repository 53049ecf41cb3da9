package comm

import "fmt"

// Send transmits a vector to rank dst (a dense rank id) as an eager
// message: the caller may reuse x immediately, and Send blocks only
// while dst's small fixed buffering for this sender is full. The message
// carries the sender's virtual clock so the receiver can model transfer
// completion time. If a peer failure is detected while blocked, Send
// unwinds with a *RankFailure.
func Send[T any](c *Comm, dst int, x []T) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("comm: Send to rank %d out of range [0,%d)", dst, c.Size()))
	}
	if dst == c.Rank() {
		panic("comm: Send to self; use a local copy instead")
	}
	c.enterOp(OpSend)
	// The sender pays the startup latency and hands the data off.
	c.charge(int64(len(x)*sizeOf[T]()), 0, &c.Stats().MsgsSent, c.Model().P2PLatency)
	post(c, dst, x)
}

// Recv receives the next vector sent by rank src (a dense rank id). It
// blocks until a message is available, unwinding with a *RankFailure if a
// peer failure is detected first. The receiver's clock advances to the
// point at which the transfer could have completed: max(receive posted,
// send posted) plus the modeled transfer time.
//
// A message of the wrong element type raises a typed *ProtocolError (the
// boundary between ranks is a data boundary, not a programmer invariant
// local to one rank).
func Recv[T any](c *Comm, src int) []T {
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("comm: Recv from rank %d out of range [0,%d)", src, c.Size()))
	}
	if src == c.Rank() {
		panic("comm: Recv from self; use a local copy instead")
	}
	c.enterOp(OpRecv)
	x, sendClock := take[T](c, src)
	bytes := len(x) * sizeOf[T]()
	c.charge(0, int64(bytes), &c.Stats().MsgsRecv, 0)
	c.advanceTo(max(c.ClockPicos(), sendClock) + picos(float64(bytes)/c.Model().P2PBandwidth))
	return x
}

// SendRecv exchanges vectors with a partner rank in a single deadlock-free
// step (both sides must call it with each other as partner). It is the
// building block of the "parallel shift" after sample sort.
func SendRecv[T any](c *Comm, partner int, x []T) []T {
	if partner == c.Rank() {
		// A self-partnered exchange is still a send op followed by a
		// receive op: it passes through both fault sites and counts in
		// Msgs/Bytes like any other pair, at zero modeled cost (the copy
		// never leaves the rank).
		bytes := int64(len(x) * sizeOf[T]())
		c.enterOp(OpSend)
		c.charge(bytes, 0, &c.Stats().MsgsSent, 0)
		out := make([]T, len(x))
		copy(out, x)
		c.enterOp(OpRecv)
		c.charge(0, bytes, &c.Stats().MsgsRecv, 0)
		return out
	}
	// Lower rank sends first; the 4-slot mailbox buffering makes the
	// opposite order safe too, but a fixed order keeps the virtual-clock
	// accounting deterministic.
	if c.Rank() < partner {
		Send(c, partner, x)
		return Recv[T](c, partner)
	}
	out := Recv[T](c, partner)
	Send(c, partner, x)
	return out
}
