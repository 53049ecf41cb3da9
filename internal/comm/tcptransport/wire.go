// Package tcptransport is the real-process backend of the comm.Transport
// seam: every rank is a separate OS process and frames move over
// localhost TCP instead of shared memory. The goroutine-simulated
// machine remains the deterministic oracle; this backend exists so that
// bytes on the wire, process boundaries, and wall clocks are real.
//
// Topology is a full mesh built at startup: rank i dials every lower
// rank and accepts a connection from every higher rank, identifying
// itself with a 4-byte hello. All listeners are bound (by the
// coordinator or by ConnectLocal) before any rank starts connecting, so
// dials never race the accept side.
//
// The wire carries collectives only. Every collective is one
// ExchangeEach: one loop writes the op's frame to each member peer, in
// shifted-pairwise order, and one loop collects each peer's frame for the
// op (Exchange, which the benchmark's probes call, is the same with one
// frame for every peer). An all-to-all is therefore one network round,
// each peer receiving only its own buffer; there is no point-to-point
// send.
//
// Failure detection has two modes. The base mode is fail-stop: a dying
// rank closes its connections (deliberately on an injected crash via
// Kill, implicitly on any exit), and every peer's reader observes EOF —
// no timeouts, no false suspicions. With a detection timeout configured
// (ConnectTimeout and friends), detection becomes bounded-time: every
// rank heartbeats each peer at a third of the timeout, every reader arms
// a read deadline of the full timeout, and a connection silent past the
// deadline is *suspected*. A suspicion is converted to a fail-stop by
// closing the suspect's connection, so the suspect — if actually alive —
// observes EOF and both sides converge on the same verdict; a false
// suspicion therefore costs a rank, never consistency. A rank that loses
// every peer in one epoch under bounded-time detection aborts as
// orphaned instead of continuing alone (see Shrink), which keeps a
// partitioned or suspected rank from publishing a minority result.
//
// Recovery uses epochs. Every frame carries its sender's epoch; Shrink
// is a one-round rendezvous in which survivors exchange dead-set
// bitmasks, union them, and step to the next epoch, after which stale
// frames from the previous epoch are discarded on sight. Racing deaths
// (a rank dying while the rendezvous is in flight) may leave survivors
// briefly disagreeing about the live set; the disagreement is always
// observed as either an EOF or a shrink frame for the current epoch,
// both of which push the laggard into another rendezvous, so the group
// converges within one extra epoch.
//
// Launch runs a job as processes: the coordinator binds every rank's
// listener, re-executes the current binary once per rank with the worker
// environment, and learns how each worker ended from its exit status
// alone — 0 finished, ExitDead and ExitOrphaned reserved, anything else a
// failure (ExitCode). Job.Wait records those verdicts, reads the result
// file the surviving dense-rank-0 worker published, and, with a grace,
// reaps the workers still running one grace after the run is decided: by
// an exit that finds the result written, an orphan, or a failure — never
// by a peer's plain finish.
package tcptransport

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/comm"
)

// Wire framing: a 4-byte little-endian length (of everything that
// follows) and a fixed header — tag, element size, sender epoch, sender
// virtual clock, sender's all-to-all sent total — then the flat payload.
// Header fields are fixed-width so a frame is parseable without any
// payload knowledge.
const (
	hdrLen   = 1 + 4 + 8 + 8 + 8
	maxFrame = 1 << 30

	// payloadChunk bounds how much readFrameFrom allocates ahead of the
	// bytes actually present on the stream: payload buffers grow chunk by
	// chunk, so a lying length prefix on a truncated stream can never
	// force a near-maxFrame up-front allocation.
	payloadChunk = 64 << 10
)

// wireFrame is a comm.Frame with the transport's own header words: its
// tag and the sender's shrink epoch.
type wireFrame struct {
	tag   comm.Tag
	epoch uint64
	comm.Frame
}

func writeFrame(w io.Writer, f wireFrame) error {
	buf := make([]byte, 4+hdrLen+len(f.Data))
	binary.LittleEndian.PutUint32(buf[0:], uint32(hdrLen+len(f.Data)))
	buf[4] = byte(f.tag)
	binary.LittleEndian.PutUint32(buf[5:], f.Elem)
	binary.LittleEndian.PutUint64(buf[9:], f.epoch)
	binary.LittleEndian.PutUint64(buf[17:], uint64(f.Clock))
	binary.LittleEndian.PutUint64(buf[25:], uint64(f.Sent))
	copy(buf[4+hdrLen:], f.Data)
	_, err := w.Write(buf)
	return err
}

// readFrameFrom decodes one length-prefixed frame from the stream. Every
// malformed input — bad length, unknown tag, truncation anywhere — is a
// returned error, never a panic, and the payload is read incrementally
// so allocation is bounded by the bytes actually delivered (plus one
// chunk), not by the advertised length.
func readFrameFrom(r io.Reader) (wireFrame, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return wireFrame{}, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n < hdrLen || n > maxFrame {
		return wireFrame{}, fmt.Errorf("tcptransport: bad frame length %d", n)
	}
	var hdr [hdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return wireFrame{}, err
	}
	f := wireFrame{
		tag:   comm.Tag(hdr[0]),
		epoch: binary.LittleEndian.Uint64(hdr[5:]),
		Frame: comm.Frame{
			Elem:  binary.LittleEndian.Uint32(hdr[1:]),
			Clock: int64(binary.LittleEndian.Uint64(hdr[13:])),
			Sent:  int64(binary.LittleEndian.Uint64(hdr[21:])),
		},
	}
	if int(f.tag) >= comm.NumTags {
		return wireFrame{}, fmt.Errorf("tcptransport: unknown frame tag %d", f.tag)
	}
	if payload := int(n) - hdrLen; payload > 0 {
		data, err := readPayload(r, payload)
		if err != nil {
			return wireFrame{}, err
		}
		f.Data = data
	}
	return f, nil
}

func readPayload(r io.Reader, n int) ([]byte, error) {
	cap0 := n
	if cap0 > payloadChunk {
		cap0 = payloadChunk
	}
	buf := make([]byte, 0, cap0)
	for len(buf) < n {
		chunk := n - len(buf)
		if chunk > payloadChunk {
			chunk = payloadChunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// hello identifies the dialing rank to the accepting side.
func writeHello(w io.Writer, rank int) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(rank))
	_, err := w.Write(b[:])
	return err
}

func readHello(r io.Reader) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b[:])), nil
}
