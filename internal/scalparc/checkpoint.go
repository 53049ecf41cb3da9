package scalparc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Level-boundary checkpointing.
//
// With Options.CheckpointDir set, at the end of every level dense rank 0
// writes one frame into the run's CheckpointStore (a directory: stable
// storage, which survives rank crashes): the replicated state — record
// count, completed-level stats, split strategy, quantile cuts, and the tree
// so far as a model document, its open frontier written as label-0 leaves.
// Beside the table that is the whole state of a level boundary, in every
// split mode: the continuous lists are sorted once, and a split only moves
// each record to the child its values route to under the node's split rule,
// so the tree says which frontier node holds every record. A barrier in
// front of the save makes the frame a consistent cut: it is written only
// once every rank completed the level.
//
// Recovery reads the newest frame on the survivors: the tree is decoded and
// its frontier reopened as the active set (see reopen), and every row of
// the table is routed down it to its frontier node (frontierOf). Each
// survivor then loads its block of the table exactly as a fresh start does
// (exact mode presorts the lists again; the histogram modes code the rows
// under the frame's cuts) and files the records under the frontier
// (records.relabel), which leaves it the layout a fault-free run on the
// survivors holds at that level. The record map starts empty: its contents
// are transient within a level. Because every split decision is a pure
// function of globally reduced counts, induction resumed this way produces
// the same tree as the fault-free run, whatever the surviving processor
// count.

// The checkpoint frame is little-endian binary ending in the tree's model
// document (tree.Encode).
const (
	ckptSharedMagic   = 0x53435031 // "SCP1": shared replicated state
	ckptSharedVersion = 3
)

// Checkpoint is one level-boundary snapshot: dense rank 0's frame after
// Level completed levels.
type Checkpoint struct {
	Level  int
	Shared []byte
}

// CheckpointStore is the run's stable storage, a directory: its contents
// survive rank crashes, and recovery reads the newest frame from it. Dense
// rank 0's frame goes straight to a file there (one format for simulated
// and wire-backed worlds alike; on the latter the shared directory is the
// ranks' only rendezvous), each save prunes every older level's, and
// Latest scans for the newest. Frames are written with
// atomicfile.WriteDurable and saves are barrier-fronted, so a frame on disk
// is a consistent cut and survives a power loss.
type CheckpointStore struct {
	mu  sync.Mutex
	dir string
	err error
}

// NewCheckpointStore opens dir as a checkpoint directory: it is created if
// absent and probed for writability up front, with the same temp-and-rename
// a save does, so a bad path fails the run before any training happens.
// Frame files already in dir are left alone (see clearFrames). TrainForest
// opens its directory through here too.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scalparc: creating checkpoint dir: %w", err)
	}
	probe := filepath.Join(dir, ".ckpt-probe")
	if err := atomicfile.Write(probe, func(io.Writer) error { return nil }); err != nil {
		return nil, fmt.Errorf("scalparc: checkpoint dir not writable: %w", err)
	}
	os.Remove(probe)
	return &CheckpointStore{dir: dir}, nil
}

// Err returns the first persistence error, if any.
func (s *CheckpointStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// put writes a level's frame to its file and, once that is durable,
// removes every older level's: recovery reads the newest frame, so nothing
// older can be read again. Removal errors are ignored (the files are dead
// either way); the first persistence error is kept for Err.
func (s *CheckpointStore) put(level int, shared []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeFrame(filepath.Join(s.dir, sharedName(level)), shared); err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	for _, l := range frameLevels(s.dir) {
		if l < level {
			os.Remove(filepath.Join(s.dir, sharedName(l)))
		}
	}
}

// sharedName is a level's frame file: ck-L<level>.shared.
func sharedName(level int) string {
	return fmt.Sprintf("ck-L%06d.shared", level)
}

// writeFrame persists one frame file. Durable, not just atomic: a respawned
// run resumes from these files after a crash.
func writeFrame(path string, data []byte) error {
	err := atomicfile.WriteDurable(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("scalparc: checkpoint persist: %w", err)
	}
	return nil
}

// frameLevels lists the levels dir holds frames of, newest first. Only an
// exact frame name counts, which keeps an interrupted save's temp file from
// naming one.
func frameLevels(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var levels []int
	for _, e := range entries {
		var l int
		if n, _ := fmt.Sscanf(e.Name(), "ck-L%06d.shared", &l); n == 1 && e.Name() == sharedName(l) {
			levels = append(levels, l)
		}
	}
	slices.Sort(levels)
	slices.Reverse(levels)
	return levels
}

// Latest reads the newest frame in the directory, or nil. A frame that does
// not read back gives way to the one before it, which a save that failed
// before its prune leaves.
func (s *CheckpointStore) Latest() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range frameLevels(s.dir) {
		if raw, err := os.ReadFile(filepath.Join(s.dir, sharedName(l))); err == nil {
			return &Checkpoint{Level: l, Shared: raw}
		}
	}
	return nil
}

// clearFrames removes a previous run's checkpoint files from the store's
// directory — frames, and the temp files of a save killed mid-write — so
// stale state can never masquerade as this run's checkpoint; other files
// are left alone. A fresh run calls it before training (a resuming one must
// not). On a wire-backed world every rank process does, before any save
// happens (the first save is barrier-fronted), so the concurrent removals
// cannot race a write; removal errors (a peer got there first) are ignored.
func (s *CheckpointStore) clearFrames() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ck-L") {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// saveCheckpoint deposits this level's frame into the store. Runs at a
// level boundary; the leading barrier is the consistency point.
func (wk *worker) saveCheckpoint() {
	c := wk.c
	c.SetPhase(trace.Other, wk.level)
	c.Barrier()
	if c.Rank() == 0 {
		wk.ckpt.put(len(wk.levelStats), wk.encodeShared(wk.recs.frame()))
	}
	// Model the stable-storage write like a list pass over the records this
	// rank holds, the state the frame's tree routes.
	c.Compute(c.Model().SplitTime(wk.recs.held()))
	c.Event("checkpoint")
}

// sharedFrame is the decoded replicated state, minus the split mode's
// section, which decodes straight into the mode's frameState.
type sharedFrame struct {
	n          int
	levelStats []LevelStats // one per completed level
	root       *tree.Node
	active     []*tree.Node // the reopened frontier
}

// encodeShared serialises the replicated induction state with st as the
// split mode's section. The tree goes in as its model document, each active
// (open) node — this rank's own, flipped back right after — written as a
// label-0 leaf.
func (wk *worker) encodeShared(st *frameState) []byte {
	var e enc
	e.u32(ckptSharedMagic)
	e.u32(ckptSharedVersion)
	e.u64(uint64(wk.n))
	e.u32(uint32(len(wk.levelStats)))
	for _, ls := range wk.levelStats {
		e.u32(uint32(ls.ActiveNodes))
		e.u32(uint32(ls.SplitNodes))
		e.u64(uint64(ls.Records))
		e.f64(ls.ModeledSeconds)
	}
	st.encodeState(&e, wk.schema.NumAttrs())
	for _, n := range wk.active {
		n.Leaf = true
	}
	doc := bytes.NewBuffer(e.b)
	err := (&tree.Tree{Schema: wk.schema, Root: wk.root}).Encode(doc)
	for _, n := range wk.active {
		n.Leaf = false
	}
	if err != nil {
		// Only a non-finite float fails to encode, and none gets in: tables
		// and the frame decoders (dec.finite) reject them.
		panic(err)
	}
	return doc.Bytes()
}

// decodeShared parses a shared frame, validating it against the schema and —
// through st, the split mode's section, which also receives the frame's
// cuts — against the mode and bin count the caller is running. The tree
// comes back with its frontier reopened. Only a canonical frame is
// accepted: one that re-encodes to the same bytes.
func decodeShared(raw []byte, schema *dataset.Schema, st *frameState) (*sharedFrame, error) {
	sh, off, err := decodeSharedHead(raw, schema, st)
	if err != nil {
		return nil, err
	}
	t, err := decodeTree(bytes.NewReader(raw[off:]), schema)
	if err != nil {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: %w", err)
	}
	sh.root, sh.active = t.Root, reopen(t.Root, len(sh.levelStats))
	again := (&worker{schema: schema, n: sh.n, levelStats: sh.levelStats, root: sh.root, active: sh.active}).encodeShared(st)
	if !bytes.Equal(again, raw) {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: not canonical (re-encodes to %d bytes, not %d)", len(again), len(raw))
	}
	return sh, nil
}

// decodeSharedHead parses the binary part of a shared frame, everything
// before the model document, and returns the document's offset.
func decodeSharedHead(raw []byte, schema *dataset.Schema, st *frameState) (*sharedFrame, int, error) {
	d := dec{b: raw}
	if d.u32() != ckptSharedMagic || d.u32() != ckptSharedVersion {
		return nil, 0, fmt.Errorf("scalparc: checkpoint shared frame: bad magic or version")
	}
	sh := &sharedFrame{n: int(d.u64())}
	nLevels := int(d.u32())
	if d.err == nil && (nLevels < 0 || nLevels > 1<<20) {
		return nil, 0, fmt.Errorf("scalparc: checkpoint shared frame: implausible level count %d", nLevels)
	}
	for i := 0; i < nLevels && d.err == nil; i++ {
		sh.levelStats = append(sh.levelStats, LevelStats{
			ActiveNodes:    int(d.u32()),
			SplitNodes:     int(d.u32()),
			Records:        int64(d.u64()),
			ModeledSeconds: d.f64(),
		})
	}
	st.decodeState(&d, schema)
	if d.err != nil {
		return nil, 0, fmt.Errorf("scalparc: checkpoint shared frame: %w", d.err)
	}
	return sh, d.off, nil
}

// reopen turns the non-empty leaves at depth back into open nodes, nothing
// but their histograms, and returns them as the active set. They are exactly
// the frontier encodeShared wrote as leaves: the node rule (splitter.Grow)
// makes only an empty child a leaf on creation, so a non-empty node at the
// newest depth is still undecided. All of them sit at that one depth, so
// preorder is left-to-right level order — the order buildChildren appended
// them in.
func reopen(root *tree.Node, depth int) []*tree.Node {
	var active []*tree.Node
	var walk func(n *tree.Node, d int)
	walk = func(n *tree.Node, d int) {
		if d < depth {
			for _, ch := range n.Children {
				walk(ch, d+1)
			}
		} else if n.Leaf && n.Size() > 0 {
			*n = tree.Node{Hist: n.Hist}
			active = append(active, n)
		}
	}
	walk(root, 0)
	return active
}

// decodeTree reads a model document holding one tree over schema's shape —
// a shared frame's tree or a forest tree file — and re-points it at schema,
// so a document from a different run cannot be silently mixed in.
func decodeTree(r io.Reader, schema *dataset.Schema) (*tree.Tree, error) {
	t, err := tree.Decode(r)
	if err != nil {
		return nil, err
	}
	if err := schema.SameShape(t.Schema); err != nil {
		return nil, fmt.Errorf("tree does not match the training schema: %w", err)
	}
	t.Schema = schema
	return t, nil
}

// fileByNode is a stable counting sort of items into the segments of a
// frontier of frontier nodes, back to back in node order; node(x) is x's
// node index, and an item whose index is -1 (retired) is dropped.
func fileByNode[T any](items []T, frontier int, node func(T) int32) ([]T, []seg) {
	lens := make([]int64, frontier)
	kept := 0
	for _, x := range items {
		if i := node(x); i >= 0 {
			lens[i]++
			kept++
		}
	}
	segs := segsOf(lens)
	at := make([]int, frontier)
	for i, sg := range segs {
		at[i] = sg.off
	}
	out := make([]T, kept)
	for _, x := range items {
		if i := node(x); i >= 0 {
			out[at[i]] = x
			at[i]++
		}
	}
	return out, segs
}

// restore is newWorker's post-step on the recovery path, where presort is
// the fresh-start one: it fills the records, the frontier, and the level
// stats (and, through decodeShared, the split mode's cuts) from a
// checkpoint on the (possibly shrunken) surviving world. The frame is
// decoded, and the frontier it routes the table to checked, before the
// first collective; these failures are deterministic — every rank reads the
// same bytes and the same table — so all survivors fail identically.
func (wk *worker) restore(tab *dataset.Table, ck *Checkpoint) error {
	c := wk.c
	sh, err := decodeShared(ck.Shared, wk.schema, wk.recs.frame())
	if err != nil {
		return err
	}
	if sh.n != wk.n {
		return fmt.Errorf("scalparc: checkpoint shared frame: %d records, training table has %d", sh.n, wk.n)
	}
	wk.root, wk.active, wk.levelStats = sh.root, sh.active, sh.levelStats
	node, err := wk.frontierOf(tab)
	if err != nil {
		return err
	}

	// Load as a fresh start does, then file the records under the
	// frontier, and rebalance as the checkpointed level did.
	c.SetPhase(trace.Sort, 0)
	wk.recs.load(wk, tab)
	c.SetPhase(trace.Other, len(wk.levelStats)-1)
	entries := wk.recs.relabel(wk, node)
	wk.chargeRecords()
	if wk.opts.RebalanceLevels {
		wk.recs.rebalance(wk)
	}

	// Model the stable-storage reload like a list pass over the entries
	// filed.
	c.Compute(c.Model().SplitTime(entries))
	c.Event("recovery:restore")
	return nil
}

// frontierOf routes every row of the table down the restored tree to the
// depth of its frontier: node[rid] is the index of the reopened node a
// record reaches, -1 for one that reaches a leaf (retired). It checks the
// map against the frontier — each node's records, counted by class, must
// match the node's histogram — which fails a frame whose tree was not
// grown on this table.
func (wk *worker) frontierOf(tab *dataset.Table) ([]int32, error) {
	index := make(map[*tree.Node]int32, len(wk.active))
	for i, n := range wk.active {
		index[n] = int32(i)
	}
	nc := wk.schema.NumClasses()
	counts := make([]int64, len(wk.active)*nc)
	node := make([]int32, wk.n)
	for r := range node {
		n := wk.root
		for d := 0; d < len(wk.levelStats) && !n.Leaf; d++ {
			n = n.Children[n.ChildFor(tab.Value(n.Attr, r))]
		}
		node[r] = -1
		if i, ok := index[n]; ok {
			node[r] = i
			counts[int(i)*nc+int(tab.Class[r])]++
		}
	}
	for i, n := range wk.active {
		if got := counts[i*nc : (i+1)*nc]; !slices.Equal(got, n.Hist) {
			return nil, fmt.Errorf("scalparc: checkpoint shared frame: the training table routes class counts %v to frontier node %d, its histogram is %v", got, i, n.Hist)
		}
	}
	return node, nil
}

// enc is a little-endian append-only frame writer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}

// dec is the matching reader; the first truncation latches err and every
// later read returns zero, so codecs can be written straight-line.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// zeros is what every read returns once a dec has failed.
var zeros [8]byte

// take returns the next n (at most 8) bytes, or n zero bytes once d failed.
func (d *dec) take(n int) []byte {
	if d.err == nil && d.off+n > len(d.b) {
		d.fail("truncated frame at byte %d", d.off)
	}
	if d.err != nil {
		return zeros[:n]
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

func (d *dec) u8() uint8    { return d.take(1)[0] }
func (d *dec) u32() uint32  { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *dec) u64() uint64  { return binary.LittleEndian.Uint64(d.take(8)) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// finite reads a float that becomes a split threshold, which the tree's
// model document cannot hold unless finite, and fails d on any other.
func (d *dec) finite() float64 {
	v := d.f64()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("value %v is not finite", v)
	}
	return v
}
