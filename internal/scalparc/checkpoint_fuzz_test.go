package scalparc

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/splitter"
)

// Checkpoint frames are read back from disk, so their decoders are a trust
// boundary. The fuzz seeds are the real frames of a three-level run under
// each split mode and badSharedFrames' named bad ones; frameFinders maps a
// fuzz selector to the options a shared frame must have been written under.
var frameFinders = []Options{
	{},
	{Split: SplitBinned, Bins: 16},
	{Split: SplitVote, Bins: 16, VoteK: 3},
}

// seedFrames runs three levels under opts on two ranks and returns the last
// level boundary's frames with the frontier size they were written for.
func seedFrames(f *testing.F, tab *dataset.Table, opts Options) (ck *Checkpoint, frontierNodes int) {
	cfg := splitter.Config{MaxDepth: 3}.Normalize()
	ck, _ = captureCheckpoint(f, tab, cfg, 2, opts)
	sh, err := decodeShared(ck.Shared, tab.Schema, &frameState{tag: opts.Split, bins: opts.Bins})
	if err != nil {
		f.Fatal(err)
	}
	return ck, len(sh.active)
}

// allocatedBy reports the heap bytes fn allocates, the least over three
// calls: the counter is process-wide, so a call can also be charged for
// another goroutine's allocations (the runtime's, or a parallel test's
// when go test runs the seeds). fn must be safe to repeat.
func allocatedBy(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeShared: the shared-frame decoder never panics, allocates in
// proportion to its input, and accepts only canonical frames — whatever it
// accepts re-encodes to the same bytes. The binary header, whose level-count
// and cut-vector guards are under test, is held to 64 bytes per input byte.
// The model document after it is tree.Decode's, where encoding/json
// allocates an element and a discarded type error per wrong-typed value (up
// to ~165 bytes per byte, for two-byte numbers where schema attributes
// belong), so the document's bytes alone get 256.
func FuzzDecodeShared(f *testing.F) {
	tab := faultData.tab(f)
	for i, opts := range frameFinders {
		ck, _ := seedFrames(f, tab, opts)
		f.Add(ck.Shared, uint8(i))
	}
	for _, b := range badSharedFrames(f, tab) {
		f.Add(b.frame, b.which)
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		opts := frameFinders[int(which)%len(frameFinders)]
		st := &frameState{tag: opts.Split, bins: opts.Bins}
		var off int
		var err error
		if got, limit := allocatedBy(func() { _, off, err = decodeSharedHead(data, tab.Schema, st) }), uint64(64<<10+64*len(data)); got > limit {
			t.Fatalf("decoding the header of %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			off = len(data)
		}
		var sh *sharedFrame
		if got, limit := allocatedBy(func() { sh, err = decodeShared(data, tab.Schema, st) }), uint64(64<<10+64*off+256*(len(data)-off)); got > limit {
			t.Fatalf("decoding %d bytes (%d of model document) allocated %d (limit %d)", len(data), len(data)-off, got, limit)
		}
		if err != nil {
			return
		}
		wk := &worker{schema: tab.Schema, n: sh.n, levelStats: sh.levelStats, root: sh.root, active: sh.active}
		if again := wk.encodeShared(st); !bytes.Equal(again, data) {
			t.Fatalf("accepted shared frame re-encodes differently (%d bytes -> %d)", len(data), len(again))
		}
	})
}

// FuzzDecodeNodeFrag is the same contract for the one fragment frame: the
// decoder never panics, allocates in proportion to its input (it sizes the
// rids only by the body that holds them), and whatever it accepts
// re-encodes to the same bytes. The seeds are the real fragments of an
// exact and a binned run and TestNodeFragRejections' named bad ones.
func FuzzDecodeNodeFrag(f *testing.F) {
	tab := faultData.tab(f)
	for _, opts := range fragFinders {
		ck, frontier, bad := nodeFragSeeds(f, tab, opts)
		for _, frag := range ck.Frags {
			f.Add(frag, uint8(frontier))
		}
		for _, b := range bad {
			f.Add(b.frame, uint8(frontier))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, frontier uint8) {
		var rids []int32
		var segs []seg
		var err error
		if got, limit := allocatedBy(func() { rids, segs, err = decodeNodeFrag(data, tab.NumRows(), int(frontier)) }), uint64(64<<10+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if again := encodeNodeFrag(rids, segs); !bytes.Equal(again, data) {
			t.Fatalf("accepted fragment re-encodes differently (%d bytes -> %d)", len(data), len(again))
		}
	})
}
