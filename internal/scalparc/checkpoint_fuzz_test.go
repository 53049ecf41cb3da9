package scalparc

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/splitter"
)

// Checkpoint frames are read back from disk, so their decoders are a trust
// boundary. The fuzz seeds are the real frames of a three-level run under
// each split finder; frameFinders maps a fuzz selector to the finder a
// shared frame must have been written under.
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
	sh, err := decodeShared(ck.Shared, tab.Schema, newSplitFinder(opts))
	if err != nil {
		f.Fatal(err)
	}
	return ck, len(sh.active)
}

// allocatedBy reports the heap bytes fn allocated (the fuzz engine runs one
// input at a time per process, so the process-wide counter is fn's).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
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
	tab := faultTestTable(f)
	for i, opts := range frameFinders {
		ck, _ := seedFrames(f, tab, opts)
		f.Add(ck.Shared, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		finder := newSplitFinder(frameFinders[int(which)%len(frameFinders)])
		var off int
		var err error
		if got, limit := allocatedBy(func() { _, off, err = decodeSharedHead(data, tab.Schema, finder) }), uint64(64<<10+64*len(data)); got > limit {
			t.Fatalf("decoding the header of %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			off = len(data)
		}
		var sh *sharedFrame
		if got, limit := allocatedBy(func() { sh, err = decodeShared(data, tab.Schema, finder) }), uint64(64<<10+64*off+256*(len(data)-off)); got > limit {
			t.Fatalf("decoding %d bytes (%d of model document) allocated %d (limit %d)", len(data), len(data)-off, got, limit)
		}
		if err != nil {
			return
		}
		wk := &worker{schema: tab.Schema, n: sh.n, levelStats: sh.levelStats, finder: finder, root: sh.root, active: sh.active}
		if again := wk.encodeShared(); !bytes.Equal(again, data) {
			t.Fatalf("accepted shared frame re-encodes differently (%d bytes -> %d)", len(data), len(again))
		}
	})
}

// FuzzDecodeFrag is the same contract for one writer's fragment frame,
// whose segment-length guard (cnt > remaining/9) keeps a lying count from
// sizing an allocation.
func FuzzDecodeFrag(f *testing.F) {
	tab := faultTestTable(f)
	for _, opts := range frameFinders {
		ck, nodes := seedFrames(f, tab, opts)
		for _, frag := range ck.Frags {
			f.Add(frag, uint8(nodes))
		}
	}
	// A frame torn inside its header, after an attribute count that lies:
	// the fuzzer's first find, which sized a 19 GB index before the
	// truncation was looked at.
	f.Add([]byte("FPCS\x01\x00\x00\x000000"), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, nodes uint8) {
		var fr *fragFrame
		var err error
		// The per-(attribute, node) index is sized by the caller's frontier,
		// not by the frame; everything else must scale with the input.
		index := uint64(tab.Schema.NumAttrs()) * uint64(nodes) * 64
		if got, limit := allocatedBy(func() { fr, err = decodeFrag(data, tab.Schema, int(nodes)) }), 64<<10+index+64*uint64(len(data)); got > limit {
			t.Fatalf("decoding %d bytes for %d nodes allocated %d (limit %d)", len(data), nodes, got, limit)
		}
		if err != nil {
			return
		}
		if again, _ := fragWorker(tab.Schema, fr, int(nodes)).encodeFrag(); !bytes.Equal(again, data) {
			t.Fatalf("accepted fragment re-encodes differently (%d bytes -> %d)", len(data), len(again))
		}
	})
}

// fragWorker rebuilds the worker state encodeFrag reads from a decoded
// fragment: per attribute, the nodes' entry lists concatenated in node order.
func fragWorker(schema *dataset.Schema, fr *fragFrame, nodes int) *worker {
	wk := &worker{schema: schema, active: make([]*nodeState, nodes)}
	na := schema.NumAttrs()
	wk.cont, wk.cat, wk.segs = make([][]dataset.ContEntry, na), make([][]dataset.CatEntry, na), make([][]seg, na)
	for a := range wk.segs {
		for i := 0; i < nodes; i++ {
			off := len(wk.cont[a]) + len(wk.cat[a])
			if fr.cont[a] != nil {
				wk.cont[a] = append(wk.cont[a], fr.cont[a][i]...)
			} else {
				wk.cat[a] = append(wk.cat[a], fr.cat[a][i]...)
			}
			wk.segs[a] = append(wk.segs[a], seg{off: off, n: len(wk.cont[a]) + len(wk.cat[a]) - off})
		}
	}
	return wk
}
