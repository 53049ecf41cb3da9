package scalparc

import (
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
	"repro/internal/trace"
	"repro/internal/tree"
)

// Level-boundary checkpointing.
//
// At the end of every CheckpointEvery-th level each rank deposits a frame
// into the run's CheckpointStore (the simulation's stand-in for stable
// storage, which survives rank crashes): dense rank 0 writes the shared
// replicated state — record count, completed-level stats, split strategy,
// quantile cuts, and the tree so far, including its open frontier — and
// every rank writes its own fragment frame holding its share of every
// active node's attribute-list segments. A barrier in front of the deposit
// makes the frame a consistent cut: either every rank completed the level
// or no frame is promoted.
//
// Recovery reads the latest complete checkpoint on the survivors: the tree
// is decoded, the active frontier is recovered as the preorder walk of its
// open (non-leaf, childless) nodes — exactly the order buildChildren
// appended them in, because all frontier nodes sit at one depth — and every
// node's global list is reassembled from the fragments of the p ranks that
// wrote it, each survivor taking its BlockRange share under the shrunken
// world size. The record map is rebuilt empty (its contents are transient
// within a level). Because every split decision is a pure function of
// globally reduced counts, induction resumed this way produces the same
// tree as the fault-free run, whatever the surviving processor count.

// The checkpoint wire format is little-endian with two frame types.
const (
	ckptSharedMagic = 0x53435031 // "SCP1": shared replicated state
	ckptFragMagic   = 0x53435046 // "SCPF": one rank's list fragments
	ckptVersion     = 1
)

// Checkpoint is one complete level-boundary snapshot: the shared frame and
// one fragment frame per writer (dense rank at save time).
type Checkpoint struct {
	Level   int
	Writers int
	Shared  []byte
	Frags   [][]byte
}

// CheckpointStore is the run's stable storage: its contents survive rank
// crashes, and recovery reads the last complete snapshot from it. Without a
// directory it collects per-rank frames in memory and promotes them to a
// complete Checkpoint once every writer of a level has deposited — enough
// for a simulated world, whose ranks share one process. With a directory,
// every rank's frames go straight to per-rank files there (the only on-disk
// format, for simulated and wire-backed worlds alike; on the latter the
// shared directory is the ranks' only rendezvous) and Latest scans it for
// the newest complete set; each save prunes the sets older than the one it
// would fall back to (see prune). Files are written with
// atomicfile.WriteDurable and saves are barrier-fronted, so a complete set
// on disk is a consistent cut and survives a power loss.
type CheckpointStore struct {
	mu      sync.Mutex
	dir     string
	latest  *Checkpoint
	pending *Checkpoint
	left    int // writers still missing from pending
	err     error
}

// NewCheckpointStore returns an empty store. A non-empty dir makes it
// file-backed: the directory is created if absent and probed for
// writability up front, so a bad path fails the run before any training
// happens. Frame files already in dir are left alone (see clearFrames).
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("scalparc: creating checkpoint dir: %w", err)
		}
		probe := filepath.Join(dir, ".ckpt-probe")
		f, err := os.Create(probe)
		if err != nil {
			return nil, fmt.Errorf("scalparc: checkpoint dir not writable: %w", err)
		}
		f.Close()
		os.Remove(probe)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Latest returns the last complete checkpoint, or nil.
func (s *CheckpointStore) Latest() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		return loadFrames(s.dir)
	}
	return s.latest
}

// Err returns the first persistence error, if any.
func (s *CheckpointStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// put deposits one rank's frame for a level. shared is non-nil only from
// dense rank 0. Buffers are copied, so callers may reuse theirs. In memory,
// a deposit for a different (level, writers) shape than the pending frame
// discards the pending frame — that happens when a crash interrupted a
// save, leaving it forever incomplete.
func (s *CheckpointStore) put(level, writer, writers int, shared, frag []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		err := writeFrame(filepath.Join(s.dir, fragName(level, writers, writer)), frag)
		if err == nil && shared != nil {
			if err = writeFrame(filepath.Join(s.dir, sharedName(level, writers)), shared); err == nil {
				s.prune(level)
			}
		}
		if err != nil && s.err == nil {
			s.err = err
		}
		return
	}
	if s.pending == nil || s.pending.Level != level || s.pending.Writers != writers {
		s.pending = &Checkpoint{Level: level, Writers: writers, Frags: make([][]byte, writers)}
		s.left = writers
	}
	if writer < 0 || writer >= writers || s.pending.Frags[writer] != nil {
		return
	}
	s.pending.Frags[writer] = append([]byte(nil), frag...)
	if shared != nil {
		s.pending.Shared = append([]byte(nil), shared...)
	}
	s.left--
	if s.left > 0 || s.pending.Shared == nil {
		return
	}
	s.latest = s.pending
	s.pending = nil
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

// loadFrames assembles the newest complete frame set in dir. A set is
// complete when its shared file and every one of its W fragment files read
// back; incomplete sets (a save a failure interrupted) are skipped. Any
// complete set for a level decodes to the same global state.
func loadFrames(dir string) *Checkpoint {
	var err error
next:
	for _, ck := range frameSets(dir) {
		if ck.Shared, err = os.ReadFile(filepath.Join(dir, sharedName(ck.Level, ck.Writers))); err != nil {
			continue
		}
		ck.Frags = make([][]byte, ck.Writers)
		for w := range ck.Frags {
			if ck.Frags[w], err = os.ReadFile(filepath.Join(dir, fragName(ck.Level, ck.Writers, w))); err != nil {
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
	if s.dir == "" {
		return
	}
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
	frag, entries := wk.encodeFrag()
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
}

// encodeShared serialises the replicated induction state.
func (wk *worker) encodeShared() []byte {
	var e enc
	e.u32(ckptSharedMagic)
	e.u32(ckptVersion)
	e.u64(uint64(wk.n))
	e.u32(uint32(len(wk.levelStats)))
	for _, ls := range wk.levelStats {
		e.u32(uint32(ls.ActiveNodes))
		e.u32(uint32(ls.SplitNodes))
		e.u64(uint64(ls.Records))
		e.f64(ls.ModeledSeconds)
	}
	wk.finder.encodeState(&e, wk.schema.NumAttrs())
	encodeNode(&e, wk.root)
	return e.b
}

// decodeShared parses a shared frame, validating it against the schema and —
// through finder, which also receives its section's state — against the
// split strategy the caller is running.
func decodeShared(raw []byte, schema *dataset.Schema, finder splitFinder) (*sharedFrame, error) {
	d := dec{b: raw}
	if d.u32() != ckptSharedMagic || d.u32() != ckptVersion {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: bad magic or version")
	}
	sh := &sharedFrame{n: int(d.u64())}
	nLevels := int(d.u32())
	if d.err == nil && (nLevels < 0 || nLevels > 1<<20) {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: implausible level count %d", nLevels)
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
	sh.root = decodeNode(&d, schema, 0)
	if d.err != nil {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: %w", d.err)
	}
	if d.off != len(raw) {
		return nil, fmt.Errorf("scalparc: checkpoint shared frame: %d trailing bytes", len(raw)-d.off)
	}
	return sh, nil
}

// encodeNode writes one tree node in preorder. Mid-induction trees contain
// open nodes — internal, not yet decided, no children — which the generic
// tree serialisation has no business accepting; this codec is private to
// checkpoints exactly so it can represent them.
func encodeNode(e *enc, n *tree.Node) {
	var flags uint8
	if n.Leaf {
		flags |= 1
	} else if n.Subset != nil {
		flags |= 2
	}
	e.u8(flags)
	e.u32(uint32(n.Label))
	e.u32(uint32(len(n.Hist)))
	for _, h := range n.Hist {
		e.u64(uint64(h))
	}
	if n.Leaf {
		return
	}
	e.u32(uint32(n.Attr))
	e.u8(uint8(n.Kind))
	e.f64(n.Threshold)
	e.f64(n.Gini)
	if n.Subset != nil {
		e.u32(uint32(len(n.Subset)))
		for _, b := range n.Subset {
			if b {
				e.u8(1)
			} else {
				e.u8(0)
			}
		}
	}
	e.u32(uint32(len(n.Children)))
	for _, ch := range n.Children {
		encodeNode(e, ch)
	}
}

const maxTreeDepth = 1 << 12 // recursion guard against corrupt frames

func decodeNode(d *dec, schema *dataset.Schema, depth int) *tree.Node {
	if d.err != nil {
		return nil
	}
	if depth > maxTreeDepth {
		d.fail("tree deeper than %d", maxTreeDepth)
		return nil
	}
	n := &tree.Node{}
	flags := d.u8()
	if flags > 2 {
		d.fail("node flags %#x", flags)
		return nil
	}
	n.Leaf = flags&1 != 0
	n.Label = int(int32(d.u32()))
	nh := int(d.u32())
	if d.err == nil && nh != schema.NumClasses() {
		d.fail("node histogram has %d classes, schema has %d", nh, schema.NumClasses())
		return nil
	}
	for i := 0; i < nh && d.err == nil; i++ {
		n.Hist = append(n.Hist, int64(d.u64()))
	}
	if n.Leaf {
		return n
	}
	n.Attr = int(int32(d.u32()))
	n.Kind = dataset.Kind(d.u8())
	n.Threshold = d.f64()
	n.Gini = d.f64()
	if flags&2 != 0 {
		ns := int(d.u32())
		if d.err == nil && ns > len(d.b)-d.off {
			d.fail("truncated subset")
			return nil
		}
		n.Subset = make([]bool, 0, ns)
		for i := 0; i < ns && d.err == nil; i++ {
			b := d.u8()
			if b > 1 {
				d.fail("subset flag byte %d", b)
			}
			n.Subset = append(n.Subset, b != 0)
		}
	}
	nc := int(d.u32())
	if d.err == nil && nc > len(d.b)-d.off {
		d.fail("truncated child list")
		return nil
	}
	for i := 0; i < nc && d.err == nil; i++ {
		n.Children = append(n.Children, decodeNode(d, schema, depth+1))
	}
	return n
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
func (wk *worker) encodeFrag() ([]byte, int) {
	var e enc
	e.u32(ckptFragMagic)
	e.u32(ckptVersion)
	e.u32(uint32(wk.schema.NumAttrs()))
	e.u32(uint32(len(wk.active)))
	entries := 0
	for a, attr := range wk.schema.Attrs {
		e.u8(fragKind(attr))
		for _, sg := range wk.segs[a] {
			e.u32(uint32(sg.n))
			if attr.Kind == dataset.Continuous {
				for _, en := range wk.cont[a][sg.off : sg.off+sg.n] {
					e.f64(en.Val)
					e.u32(uint32(en.Rid))
					e.u8(en.Cid)
				}
			} else {
				for _, en := range wk.cat[a][sg.off : sg.off+sg.n] {
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
	if d.u32() != ckptFragMagic || d.u32() != ckptVersion {
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
					list = append(list, dataset.ContEntry{Val: d.f64(), Rid: int32(d.u32()), Cid: d.u8()})
				}
				fr.cont[a][i] = list
			} else {
				list := make([]dataset.CatEntry, 0, cnt)
				for j := 0; j < cnt && d.err == nil; j++ {
					list = append(list, dataset.CatEntry{Val: int32(d.u32()), Rid: int32(d.u32()), Cid: d.u8()})
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

// frontier returns the tree's open nodes — internal, undecided, childless —
// in preorder as the next level's active set. All frontier nodes sit at one
// depth, so preorder restricted to them is exactly left-to-right level
// order: the order buildChildren appended them in before the checkpoint.
func frontier(root *tree.Node, depth int) []*nodeState {
	var out []*nodeState
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if n.Leaf {
			return
		}
		if len(n.Children) == 0 {
			out = append(out, &nodeState{node: n, hist: n.Hist, depth: depth})
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	return out
}

// restore is newWorker's post-step on the recovery path, where presort is
// the fresh-start one: it fills the lists, the frontier, and the level stats
// (and, through decodeShared, the finder's state) from a checkpoint on the
// (possibly shrunken) surviving world. Decode failures are deterministic —
// every rank reads the same bytes — so all survivors fail identically.
func (wk *worker) restore(ck *Checkpoint) error {
	c, schema := wk.c, wk.schema
	sh, err := decodeShared(ck.Shared, schema, wk.finder)
	if err != nil {
		return err
	}
	if sh.n != wk.n {
		return fmt.Errorf("scalparc: checkpoint shared frame: %d records, training table has %d", sh.n, wk.n)
	}
	wk.root = sh.root
	wk.active = frontier(sh.root, len(sh.levelStats))
	wk.levelStats = sh.levelStats
	frs := make([]*fragFrame, len(ck.Frags))
	for w, raw := range ck.Frags {
		if frs[w], err = decodeFrag(raw, schema, len(wk.active)); err != nil {
			return err
		}
	}

	// Reassemble every node's global list from the writers' fragments;
	// this survivor takes its block share under the shrunken world size.
	p, me := c.Size(), c.Rank()
	byRank := make([][]int64, len(frs))
	total := 0
	for a, attr := range schema.Attrs {
		for w := range frs {
			byRank[w] = frs[w].lens[a]
		}
		var moved int
		if attr.Kind == dataset.Continuous {
			wk.cont[a], wk.segs[a], moved = reassembleBlocked(me, p, byRank, func(r, node, off, n int) []dataset.ContEntry {
				return frs[r].cont[a][node][off : off+n]
			})
		} else {
			wk.cat[a], wk.segs[a], moved = reassembleBlocked(me, p, byRank, func(r, node, off, n int) []dataset.CatEntry {
				return frs[r].cat[a][node][off : off+n]
			})
		}
		total += moved
	}
	wk.chargeLists()

	// Model the stable-storage reload like a list pass over the share read.
	c.Compute(c.Model().SplitTime(total))
	c.Event("recovery:restore")
	return nil
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

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.fail("truncated frame at byte %d", d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
