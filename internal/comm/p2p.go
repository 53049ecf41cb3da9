package comm

import "fmt"

// send transmits a vector to rank dst (a dense rank id) as an eager
// message: the caller may reuse x immediately, and send blocks only
// while dst's small fixed buffering for this sender is full. The message
// carries the sender's virtual clock so the receiver can model transfer
// completion time. If a peer failure is detected while blocked, send
// unwinds with a *RankFailure. send and recv are the substrate of the
// package's tests (textbook_test.go): no algorithm calls them, and on a
// wire world, which carries collectives only, they panic.
func send[T any](c *Comm, dst int, x []T) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("comm: send to rank %d out of range [0,%d)", dst, c.Size()))
	}
	if dst == c.Rank() {
		panic("comm: send to self; use a local copy instead")
	}
	c.enterOp(OpSend)
	// The sender pays the startup latency and hands the data off.
	c.charge(int64(len(x)*sizeOf[T]()), 0, &c.Stats().MsgsSent, c.Model().P2PLatency)
	post(c, dst, x)
}

// recv receives the next vector sent by rank src (a dense rank id). It
// blocks until a message is available, unwinding with a *RankFailure if a
// peer failure is detected first. The receiver's clock advances to the
// point at which the transfer could have completed: max(receive posted,
// send posted) plus the modeled transfer time.
//
// A message of the wrong element type raises a typed *ProtocolError (the
// boundary between ranks is a data boundary, not a programmer invariant
// local to one rank).
func recv[T any](c *Comm, src int) []T {
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("comm: recv from rank %d out of range [0,%d)", src, c.Size()))
	}
	if src == c.Rank() {
		panic("comm: recv from self; use a local copy instead")
	}
	c.enterOp(OpRecv)
	x, sendClock := take[T](c, src)
	bytes := len(x) * sizeOf[T]()
	c.charge(0, int64(bytes), &c.Stats().MsgsRecv, 0)
	c.advanceTo(max(c.ClockPicos(), sendClock) + picos(float64(bytes)/c.Model().P2PBandwidth))
	return x
}
