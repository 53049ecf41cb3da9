package scalparc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/psort"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Level-boundary checkpointing.
//
// With Options.CheckpointDir set, at the end of every level each rank writes
// its frames into the run's CheckpointStore (a directory: stable storage,
// which survives rank crashes): dense rank 0 writes the shared replicated
// state — record count, completed-level stats, split strategy, quantile
// cuts, and the tree so far as a model document, its open frontier written
// as label-0 leaves — and every rank writes its own fragment frame of its
// records (records.encodeFrag). In exact mode that is its share of every
// active node's attribute-list segments; in the histogram modes it is the
// active-node index of every row it owns (rows.go). A barrier in front of
// the save makes a complete frame set a consistent cut: either every rank
// completed the level or the set is never read.
//
// Recovery reads the latest complete checkpoint on the survivors: the tree
// is decoded and its frontier reopened as the active set (see reopen). In
// exact mode every node's global list is reassembled from the fragments of
// the p ranks that wrote it, each survivor taking its BlockRange share under
// the shrunken world size, and the record map is rebuilt empty (its contents
// are transient within a level). In the histogram modes each survivor takes
// the node indices of the rows in its new BlockRange and recodes those rows
// from its table block under the shared frame's cuts. Because every split
// decision is a pure function of globally reduced counts, induction resumed
// this way produces the same tree as the fault-free run, whatever the
// surviving processor count.

// The checkpoint frames are little-endian binary with three frame types; the
// shared frame ends in the tree's model document (tree.Encode).
const (
	ckptSharedMagic   = 0x53435031 // "SCP1": shared replicated state
	ckptFragMagic     = 0x53435046 // "SCPF": one rank's list fragments
	ckptNodesMagic    = 0x5343504e // "SCPN": the node indices of one rank's rows
	ckptSharedVersion = 3
	ckptFragVersion   = 1
	ckptNodesVersion  = 1
)

// Checkpoint is one complete level-boundary snapshot: the shared frame and
// one fragment frame per writer (dense rank at save time).
type Checkpoint struct {
	Level   int
	Writers int
	Shared  []byte
	Frags   [][]byte
}

// CheckpointStore is the run's stable storage, a directory: its contents
// survive rank crashes, and recovery reads the last complete snapshot from
// it. Every rank's frames go straight to per-rank files there (one format
// for simulated and wire-backed worlds alike; on the latter the shared
// directory is the ranks' only rendezvous) and Latest scans it for the
// newest complete set; each save prunes the sets older than the one it
// would fall back to (see prune). Files are written with
// atomicfile.WriteDurable and saves are barrier-fronted, so a complete set
// on disk is a consistent cut and survives a power loss.
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

// put writes one rank's frames for a level to their files. shared is
// non-nil only from dense rank 0, whose save then prunes. The first
// persistence error is kept for Err.
func (s *CheckpointStore) put(level, writer, writers int, shared, frag []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := writeFrame(filepath.Join(s.dir, fragName(level, writers, writer)), frag)
	if err == nil && shared != nil {
		if err = writeFrame(filepath.Join(s.dir, sharedName(level, writers)), shared); err == nil {
			s.prune(level)
		}
	}
	if err != nil && s.err == nil {
		s.err = err
	}
}

// Frame files: ck-L<level>-W<writers>.shared (dense rank 0) and
// ck-L<level>-W<writers>-w<writer>.frag (every rank). The set for a
// (level, writers) pair is complete once the shared file and all W
// fragments exist; atomic renames plus the barrier in front of every
// save guarantee a complete set is a consistent cut.

func sharedName(level, writers int) string {
	return fmt.Sprintf("ck-L%06d-W%03d.shared", level, writers)
}

func fragName(level, writers, writer int) string {
	return fmt.Sprintf("ck-L%06d-W%03d-w%03d.frag", level, writers, writer)
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

// frameSets lists the (level, writers) frame sets dir names, newest first:
// a set is named by its shared file, and ties on level prefer more writers.
// Only Level and Writers are filled in.
func frameSets(dir string) []*Checkpoint {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var sets []*Checkpoint
	for _, e := range entries {
		ck := &Checkpoint{}
		// Sscanf ignores trailing input, so the suffix check is what keeps
		// an interrupted save's temp file from naming a set.
		if n, _ := fmt.Sscanf(e.Name(), "ck-L%06d-W%03d.shared", &ck.Level, &ck.Writers); n == 2 &&
			strings.HasSuffix(e.Name(), ".shared") && ck.Writers >= 1 {
			sets = append(sets, ck)
		}
	}
	sort.Slice(sets, func(i, j int) bool {
		if sets[i].Level != sets[j].Level {
			return sets[i].Level > sets[j].Level
		}
		return sets[i].Writers > sets[j].Writers
	})
	return sets
}

// prune removes every frame file of a level below the newest complete set
// under level. Dense rank 0 calls it right after writing level's shared
// frame: should that save never complete, recovery falls back to exactly
// that older set, so nothing older can ever be read again, and the
// directory holds at most two levels' sets instead of one per level. No
// rank is still writing a level that old, and removal errors are ignored
// (the files are dead either way).
func (s *CheckpointStore) prune(level int) {
	keep := -1
sets:
	for _, ck := range frameSets(s.dir) {
		if ck.Level >= level {
			continue
		}
		for w := 0; w < ck.Writers; w++ {
			if _, err := os.Stat(filepath.Join(s.dir, fragName(ck.Level, ck.Writers, w))); err != nil {
				continue sets
			}
		}
		keep = ck.Level
		break
	}
	entries, err := os.ReadDir(s.dir)
	if keep < 0 || err != nil {
		return
	}
	for _, e := range entries {
		var l int
		if n, _ := fmt.Sscanf(e.Name(), "ck-L%06d-", &l); n == 1 && l < keep {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Latest assembles the newest complete frame set in the directory, or nil.
// A set is complete when its shared file and every one of its W fragment
// files read back; incomplete sets (a save a failure interrupted) are
// skipped. Any complete set for a level decodes to the same global state.
func (s *CheckpointStore) Latest() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
next:
	for _, ck := range frameSets(s.dir) {
		if ck.Shared, err = os.ReadFile(filepath.Join(s.dir, sharedName(ck.Level, ck.Writers))); err != nil {
			continue
		}
		ck.Frags = make([][]byte, ck.Writers)
		for w := range ck.Frags {
			if ck.Frags[w], err = os.ReadFile(filepath.Join(s.dir, fragName(ck.Level, ck.Writers, w))); err != nil {
				continue next
			}
		}
		return ck
	}
	return nil
}

// clearFrames removes a previous run's frame files from the store's
// directory, and the temp files of a save killed mid-write, so stale state
// can never masquerade as this run's checkpoint; other files are left alone.
// A fresh run calls it before training (a resuming one must not). On a
// wire-backed world every rank process does, before any save happens (the
// first save is barrier-fronted), so the concurrent removals cannot race a
// write; removal errors (a peer got there first) are ignored.
func (s *CheckpointStore) clearFrames() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "ck-L") && (strings.HasSuffix(name, ".frag") ||
			strings.HasSuffix(name, ".shared") || strings.Contains(name, ".tmp")) {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// saveCheckpoint deposits this level's frames into the store. Runs at a
// level boundary; the leading barrier is the consistency point.
func (wk *worker) saveCheckpoint() {
	c := wk.c
	c.SetPhase(trace.Other, wk.level)
	c.Barrier()
	var shared []byte
	if c.Rank() == 0 {
		shared = wk.encodeShared()
	}
	frag, entries := wk.recs.encodeFrag(wk)
	wk.ckpt.put(len(wk.levelStats), c.Rank(), c.Size(), shared, frag)
	// Model the stable-storage write like a list pass over the local
	// entries written.
	c.Compute(c.Model().SplitTime(entries))
	c.Event("checkpoint")
}

// sharedFrame is the decoded replicated state, minus the split finder's
// section, which decodes straight into the finder.
type sharedFrame struct {
	n          int
	levelStats []LevelStats // one per completed level
	root       *tree.Node
	active     []*tree.Node // the reopened frontier
}

// encodeShared serialises the replicated induction state. The tree goes in
// as its model document, each active (open) node — this rank's own, flipped
// back right after — written as a label-0 leaf.
func (wk *worker) encodeShared() []byte {
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
	wk.finder.encodeState(&e, wk.schema.NumAttrs())
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
// through finder, which also receives its section's state — against the
// split strategy the caller is running. The tree comes back with its
// frontier reopened. Only a canonical frame is accepted: one that
// re-encodes to the same bytes.
func decodeShared(raw []byte, schema *dataset.Schema, finder splitFinder) (*sharedFrame, error) {
	sh, off, err := decodeSharedHead(raw, schema, finder)
	if err != nil {
		return nil, err
	}
	t, err := decodeTree(bytes.NewReader(raw[off:]), schema)
	if err != nil {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: %w", err)
	}
	sh.root, sh.active = t.Root, reopen(t.Root, len(sh.levelStats))
	again := (&worker{schema: schema, n: sh.n, levelStats: sh.levelStats, finder: finder, root: sh.root, active: sh.active}).encodeShared()
	if !bytes.Equal(again, raw) {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: not canonical (re-encodes to %d bytes, not %d)", len(again), len(raw))
	}
	return sh, nil
}

// decodeSharedHead parses the binary part of a shared frame, everything
// before the model document, and returns the document's offset.
func decodeSharedHead(raw []byte, schema *dataset.Schema, finder splitFinder) (*sharedFrame, int, error) {
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
	finder.decodeState(&d, schema)
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

// fragFrame is one rank's decoded attribute-list fragments: lens[a][i] is
// the entry count of active node i's segment for attribute a; cont[a][i] /
// cat[a][i] the entries themselves, in global order within the fragment.
type fragFrame struct {
	lens [][]int64
	cont [][][]dataset.ContEntry
	cat  [][][]dataset.CatEntry
}

// fragKind is the attribute-kind byte of a fragment frame.
func fragKind(attr dataset.Attribute) uint8 {
	if attr.Kind == dataset.Categorical {
		return 1
	}
	return 0
}

// encodeFrag serialises this rank's share of every active node's attribute
// lists and reports the total entry count (for modeled write cost).
func (l *lists) encodeFrag(wk *worker) ([]byte, int) {
	var e enc
	e.u32(ckptFragMagic)
	e.u32(ckptFragVersion)
	e.u32(uint32(wk.schema.NumAttrs()))
	e.u32(uint32(len(wk.active)))
	entries := 0
	for a, attr := range wk.schema.Attrs {
		e.u8(fragKind(attr))
		for _, sg := range l.segs[a] {
			e.u32(uint32(sg.n))
			if attr.Kind == dataset.Continuous {
				for _, en := range l.cont[a][sg.off : sg.off+sg.n] {
					e.f64(en.Val)
					e.u32(uint32(en.Rid))
					e.u8(en.Cid)
				}
			} else {
				for _, en := range l.cat[a][sg.off : sg.off+sg.n] {
					e.u32(uint32(en.Val))
					e.u32(uint32(en.Rid))
					e.u8(en.Cid)
				}
			}
			entries += sg.n
		}
	}
	return e.b, entries
}

// decodeFrag parses one writer's fragment frame, validating its shape
// against the schema and the shared frame's frontier size.
func decodeFrag(raw []byte, schema *dataset.Schema, wantNodes int) (*fragFrame, error) {
	d := dec{b: raw}
	if d.u32() != ckptFragMagic || d.u32() != ckptFragVersion {
		return nil, fmt.Errorf("scalparc: checkpoint fragment: bad magic or version")
	}
	nAttrs := int(d.u32())
	nNodes := int(d.u32())
	switch {
	case d.err != nil:
		// Before anything is sized by the header: a frame torn inside it
		// has read only some of these fields.
		return nil, fmt.Errorf("scalparc: checkpoint fragment: %w", d.err)
	case nAttrs != schema.NumAttrs():
		return nil, fmt.Errorf("scalparc: checkpoint fragment: %d attributes, schema has %d", nAttrs, schema.NumAttrs())
	case nNodes != wantNodes:
		return nil, fmt.Errorf("scalparc: checkpoint fragment: %d nodes, tree frontier has %d", nNodes, wantNodes)
	}
	nc := schema.NumClasses()
	fr := &fragFrame{
		lens: make([][]int64, nAttrs),
		cont: make([][][]dataset.ContEntry, nAttrs),
		cat:  make([][][]dataset.CatEntry, nAttrs),
	}
	for a := 0; a < nAttrs && d.err == nil; a++ {
		kind := d.u8()
		if d.err == nil && kind != fragKind(schema.Attrs[a]) {
			return nil, fmt.Errorf("scalparc: checkpoint fragment: attribute %d kind mismatch", a)
		}
		fr.lens[a] = make([]int64, nNodes)
		if kind == 0 {
			fr.cont[a] = make([][]dataset.ContEntry, nNodes)
		} else {
			fr.cat[a] = make([][]dataset.CatEntry, nNodes)
		}
		for i := 0; i < nNodes && d.err == nil; i++ {
			cnt := int(d.u32())
			if d.err == nil && cnt > (len(d.b)-d.off)/9 {
				return nil, fmt.Errorf("scalparc: checkpoint fragment: truncated segment (attr %d, node %d)", a, i)
			}
			fr.lens[a][i] = int64(cnt)
			if kind == 0 {
				list := make([]dataset.ContEntry, 0, cnt)
				for j := 0; j < cnt && d.err == nil; j++ {
					list = append(list, dataset.ContEntry{Val: d.finite(), Rid: int32(d.u32()), Cid: d.class(nc)})
				}
				fr.cont[a][i] = list
			} else {
				list := make([]dataset.CatEntry, 0, cnt)
				card := schema.Attrs[a].Cardinality()
				for j := 0; j < cnt && d.err == nil; j++ {
					list = append(list, dataset.CatEntry{Val: int32(d.index(card)), Rid: int32(d.u32()), Cid: d.class(nc)})
				}
				fr.cat[a][i] = list
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("scalparc: checkpoint fragment: %w", d.err)
	}
	if d.off != len(raw) {
		return nil, fmt.Errorf("scalparc: checkpoint fragment: %d trailing bytes", len(raw)-d.off)
	}
	return fr, nil
}

// restore is newWorker's post-step on the recovery path, where presort is
// the fresh-start one: it fills the records, the frontier, and the level
// stats (and, through decodeShared, the finder's state) from a checkpoint on
// the (possibly shrunken) surviving world. tab is the training table, whose
// block the row store recodes. Decode failures are deterministic — every
// rank reads the same bytes — so all survivors fail identically.
func (wk *worker) restore(tab *dataset.Table, ck *Checkpoint) error {
	c := wk.c
	sh, err := decodeShared(ck.Shared, wk.schema, wk.finder)
	if err != nil {
		return err
	}
	if sh.n != wk.n {
		return fmt.Errorf("scalparc: checkpoint shared frame: %d records, training table has %d", sh.n, wk.n)
	}
	wk.root, wk.active, wk.levelStats = sh.root, sh.active, sh.levelStats
	entries, err := wk.recs.restore(wk, tab, ck)
	if err != nil {
		return err
	}
	wk.chargeRecords()

	// Model the stable-storage reload like a list pass over the share read.
	c.Compute(c.Model().SplitTime(entries))
	c.Event("recovery:restore")
	return nil
}

// restore reassembles every node's global list from the writers'
// fragments; this survivor takes its block share under the shrunken world
// size.
func (l *lists) restore(wk *worker, _ *dataset.Table, ck *Checkpoint) (int, error) {
	schema := wk.schema
	frs := make([]*fragFrame, len(ck.Frags))
	for w, raw := range ck.Frags {
		var err error
		if frs[w], err = decodeFrag(raw, schema, len(wk.active)); err != nil {
			return 0, err
		}
	}
	p, me := wk.c.Size(), wk.c.Rank()
	byRank := make([][]int64, len(frs))
	total := 0
	for a, attr := range schema.Attrs {
		for w := range frs {
			byRank[w] = frs[w].lens[a]
		}
		// Every node's list holds each of its records once per attribute.
		for i, n := range wk.active {
			var got int64
			for _, lens := range byRank {
				got += lens[i]
			}
			if got != n.Size() {
				return 0, fmt.Errorf("scalparc: checkpoint fragments: node %d has %d attribute-%d entries, histogram total %d", i, got, a, n.Size())
			}
		}
		var lens []int64
		if attr.Kind == dataset.Continuous {
			l.cont[a], lens = psort.Reassemble(me, p, byRank, func(r, node, off, n int) []dataset.ContEntry {
				return frs[r].cont[a][node][off : off+n]
			})
		} else {
			l.cat[a], lens = psort.Reassemble(me, p, byRank, func(r, node, off, n int) []dataset.CatEntry {
				return frs[r].cat[a][node][off : off+n]
			})
		}
		l.segs[a] = segsOf(lens)
		total += len(l.cont[a]) + len(l.cat[a])
	}
	return total, nil
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

// finite, class and index read a value that induction would misuse out of
// range — a float that becomes a split threshold the tree's model document
// cannot hold unless finite, a class id or a categorical value that indexes
// a count vector — and fail d on one.
func (d *dec) finite() float64 {
	v := d.f64()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("value %v is not finite", v)
	}
	return v
}

func (d *dec) class(classes int) uint8 {
	c := d.u8()
	if int(c) >= classes {
		d.fail("class id %d outside [0, %d)", c, classes)
	}
	return c
}

func (d *dec) index(n int) uint32 {
	v := d.u32()
	if uint64(v) >= uint64(n) {
		d.fail("categorical value %d outside [0, %d)", int32(v), n)
	}
	return v
}
