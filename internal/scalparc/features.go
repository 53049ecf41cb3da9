package scalparc

// Per-node feature subsampling, the second half of the random-forest recipe
// (bagging is in forest.go): when ForestOptions.FeatureSample = m > 0, each
// active node draws m of the schema's attributes per level and only those
// may produce split candidates. The draw is a pure function of (the tree's
// feature seed, level, active-node index) — all replicated, and the
// active-node order is itself invariant under the processor count and
// identical after a checkpoint restore (reopen re-lists the frontier in
// construction order) — so every rank vetoes the same groups and the
// induced tree keeps the engine's p-invariance and crash-recovery
// guarantees.
//
// The veto sits at candidate emission, not exchange layout: masked
// (node, attribute) groups still ride the collectives with their usual
// shapes, which keeps all three split strategies (exact, binned, vote)
// masked by the same few call sites. Shrinking the exchanges themselves is
// recorded headroom in DESIGN.md §12.

// splitmix64 advances *s and returns the next value of the splitmix64
// stream — the standard finalizer-based generator, chosen because a single
// multiply-xor chain gives full 64-bit avalanche from sequential seeds
// (tree indices, level numbers) with no state beyond the seed itself.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 hashes one word into a seed, splitmix64-style, for deriving
// independent streams (per tree, per level, per node).
func mix64(seed, v uint64) uint64 {
	s := seed ^ (v+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	return splitmix64(&s)
}

// attrAllowed reports whether the active node may split on attr under the
// current level's feature mask. With subsampling off there is no mask and
// everything is allowed.
func (wk *worker) attrAllowed(active, attr int) bool {
	return wk.feat == nil || wk.feat[active*wk.schema.NumAttrs()+attr]
}

// sampleFeatures draws the level's per-node attribute subsets into wk.feat
// (nil when subsampling is off). Each node's subset is a partial
// Fisher-Yates draw of featureSample attributes from a stream seeded by
// (featureSeed, level, node index).
func (wk *worker) sampleFeatures() {
	if wk.opts.featureSample <= 0 {
		wk.feat = nil
		return
	}
	na := wk.schema.NumAttrs()
	if cap(wk.feat) < len(wk.active)*na {
		wk.feat = make([]bool, len(wk.active)*na)
	}
	wk.feat = wk.feat[:len(wk.active)*na]
	clear(wk.feat)
	if cap(wk.featIdx) < na {
		wk.featIdx = make([]int32, na)
	}
	idx := wk.featIdx[:na]
	for i := range wk.active {
		for a := range idx {
			idx[a] = int32(a)
		}
		state := mix64(mix64(wk.opts.featureSeed, uint64(wk.level)), uint64(i))
		mask := wk.feat[i*na : (i+1)*na]
		for j := 0; j < wk.opts.featureSample; j++ {
			r := j + int(splitmix64(&state)%uint64(na-j))
			idx[j], idx[r] = idx[r], idx[j]
			mask[idx[j]] = true
		}
	}
}
