package comm

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/timing"
)

// TestSendRecvSelfCountsOps pins the self-partner SendRecv as a real
// send op plus receive op: message and byte counters observe it (at zero
// modeled cost), consistent with the cross-rank path.
func TestSendRecvSelfCountsOps(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			out := SendRecv(c, 0, []int64{1, 2, 3})
			if len(out) != 3 || out[2] != 3 {
				panic("self exchange corrupted the data")
			}
		}
	})
	st := w.Stats()[0]
	wantBytes := int64(3 * 8)
	if st.MsgsSent != 1 || st.MsgsRecv != 1 {
		t.Fatalf("self SendRecv counted Msgs %d/%d, want 1/1", st.MsgsSent, st.MsgsRecv)
	}
	if st.BytesSent != wantBytes || st.BytesRecv != wantBytes {
		t.Fatalf("self SendRecv counted Bytes %d/%d, want %d/%d",
			st.BytesSent, st.BytesRecv, wantBytes, wantBytes)
	}
	if got := w.clocks[0]; got != 0 {
		t.Fatalf("self SendRecv advanced the clock by %dps, want zero modeled cost", got)
	}
}

// TestSendRecvSelfIsAFaultSite pins the bugfix: fault injection must
// observe the self-partner path. A crash injected at rank 1's first op
// strikes inside SendRecv(self), and rank 0 unwinds with a recoverable
// *RankFailure exactly as if the op were a cross-rank message.
func TestSendRecvSelfIsAFaultSite(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.SetFaultInjector(&oneShot{rank: 1, act: FaultAction{Crash: true}})
	var survivorErr error
	w.Run(func(c *Comm) {
		defer func() {
			if r := recover(); r != nil {
				if cr, ok := r.(Crashed); ok {
					panic(cr)
				}
				survivorErr = r.(error)
			}
		}()
		if c.Rank() == 1 {
			SendRecv(c, 1, []int{42}) // crash strikes here, at the self site
		}
		c.Barrier()
	})
	var rf *RankFailure
	if !errors.As(survivorErr, &rf) {
		t.Fatalf("survivor unwound with %v (%T), want *RankFailure", survivorErr, survivorErr)
	}
	if len(rf.Lost) != 1 || rf.Lost[0] != 1 {
		t.Fatalf("Lost = %v, want [1]", rf.Lost)
	}
	if w.Stats()[1].Crashes != 1 {
		t.Fatalf("rank 1 Crashes = %d, want 1 (fault site inside self SendRecv)", w.Stats()[1].Crashes)
	}
}

// TestStraggleStrikesSelfSendRecv: the skew path must also observe the
// self ops (the old code bypassed enterOp entirely).
func TestStraggleStrikesSelfSendRecv(t *testing.T) {
	const skew = int64(12345)
	w := NewWorld(1, timing.T3D())
	w.SetFaultInjector(&oneShot{rank: 0, act: FaultAction{SkewPicos: skew}})
	w.Run(func(c *Comm) {
		SendRecv(c, 0, []int{7})
	})
	if got := w.clocks[0]; got != skew {
		t.Fatalf("clock advanced %dps, want injected skew %d (and nothing else)", got, skew)
	}
	if w.Stats()[0].Straggles != 1 {
		t.Fatalf("Straggles = %d, want 1", w.Stats()[0].Straggles)
	}
}

// TestBarrierClearsDeposits pins the memory-hygiene fix: a collective
// must not pin its buffers for the life of the world. After the next
// barrier, no deposit cell or exchange-buffer entry still references
// collective data.
func TestBarrierClearsDeposits(t *testing.T) {
	p := 4
	w := NewWorld(p, timing.T3D())
	w.Run(func(c *Comm) {
		AllReduceSumInto(c, []int64{int64(c.Rank())}, nil)
		Allgather(c, []int{c.Rank()})
		c.Barrier()
	})
	for r := 0; r < p; r++ {
		if w.cells[r].data != nil {
			t.Errorf("cells[%d].data still references %T after barrier", r, w.cells[r].data)
		}
		for i, d := range w.exchBuf[r] {
			if d.data != nil {
				t.Errorf("exchBuf[%d][%d].data still references %T after barrier", r, i, d.data)
			}
		}
	}
}

// TestOnlyBackendNamesTheTransport keeps the backend seam from re-forking:
// outside backend.go, the only non-test source allowed to mention World's
// tr field is the struct declaration that holds it. An operation that
// needs to know which machine it runs on belongs behind a primitive in
// backend.go, not beside a second `w.tr != nil` test.
func TestOnlyBackendNamesTheTransport(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	field := regexp.MustCompile(`\btr\b`)
	for _, file := range files {
		if file == "backend.go" || strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inWorld := false
		for n, line := range strings.Split(string(src), "\n") {
			switch {
			case line == "type World struct {":
				inWorld = true
			case inWorld && line == "}":
				inWorld = false
			case !inWorld && field.MatchString(line):
				t.Errorf("%s:%d mentions the tr field outside the backend seam: %s", file, n+1, strings.TrimSpace(line))
			}
		}
	}
}
