package comm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/timing"
)

// textbookSizes are the world sizes of the textbook cross-checks: powers
// of two and the odd sizes that leave a binomial tree or a doubling round
// incomplete.
func textbookSizes() []int { return []int{1, 2, 3, 4, 5, 7, 8, 13, 16} }

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range textbookSizes() {
		for root := 0; root < p; root++ {
			w := NewWorld(p, timing.T3D())
			results := make([][]int, p)
			w.Run(func(c *Comm) {
				var payload []int
				if c.Rank() == root {
					payload = []int{root, 42, root * 7}
				}
				results[c.Rank()] = binomialBcast(c, root, payload)
			})
			for r := 0; r < p; r++ {
				if len(results[r]) != 3 || results[r][0] != root || results[r][2] != root*7 {
					t.Fatalf("p=%d root=%d rank=%d got %v", p, root, r, results[r])
				}
			}
		}
	}
}

func TestReduceSumAllRoots(t *testing.T) {
	for _, p := range textbookSizes() {
		for root := 0; root < p; root++ {
			w := NewWorld(p, timing.T3D())
			results := make([][]int64, p)
			w.Run(func(c *Comm) {
				results[c.Rank()] = binomialReduce(c, root, []int64{int64(c.Rank()), 1},
					func(a, b int64) int64 { return a + b })
			})
			for r := 0; r < p; r++ {
				if r == root {
					want := int64(p * (p - 1) / 2)
					if results[r] == nil || results[r][0] != want || results[r][1] != int64(p) {
						t.Fatalf("p=%d root=%d: got %v", p, root, results[r])
					}
				} else if results[r] != nil {
					t.Fatalf("p=%d root=%d: non-root rank %d got %v", p, root, r, results[r])
				}
			}
		}
	}
}

// affine is x -> A·x + B (mod affineMod): composition is associative but
// not commutative, exactly what tree-shaped folds must preserve. op(f, g)
// applies f first, then g — matching a left-to-right rank-order fold.
type affine struct{ A, B int64 }

const affineMod = 1_000_003

func affineCompose(f, g affine) affine {
	return affine{
		A: g.A * f.A % affineMod,
		B: (g.A*f.B + g.B) % affineMod,
	}
}

func rankAffine(r int) affine { return affine{A: int64(2*r + 3), B: int64(5*r + 1)} }

func TestReduceNonCommutativeAssociativeMatchesComm(t *testing.T) {
	// Binomial folding of adjacent segments must equal Reduce's
	// strict rank-order fold for any associative op.
	for _, p := range []int{2, 3, 5, 8, 13} {
		w := NewWorld(p, timing.T3D())
		var alg, direct []affine
		w.Run(func(c *Comm) {
			a := binomialReduce(c, 0, []affine{rankAffine(c.Rank())}, affineCompose)
			d := Reduce(c, 0, []affine{rankAffine(c.Rank())}, affineCompose)
			if c.Rank() == 0 {
				alg, direct = a, d
			}
		})
		if alg[0] != direct[0] {
			t.Fatalf("p=%d: algorithmic %+v != direct %+v", p, alg[0], direct[0])
		}
	}
}

func TestAllReduceMatchesComm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range textbookSizes() {
		w := NewWorld(p, timing.T3D())
		inputs := make([][]int64, p)
		for r := range inputs {
			inputs[r] = []int64{rng.Int63n(100), rng.Int63n(100), rng.Int63n(100)}
		}
		ok := make([]bool, p)
		w.Run(func(c *Comm) {
			a := reduceBcastAllReduce(c, inputs[c.Rank()], func(x, y int64) int64 { return x + y })
			d := AllReduceSumInto(c, inputs[c.Rank()], nil)
			good := len(a) == len(d)
			for i := range d {
				if a[i] != d[i] {
					good = false
				}
			}
			ok[c.Rank()] = good
		})
		for r, o := range ok {
			if !o {
				t.Fatalf("p=%d rank=%d: allreduce mismatch", p, r)
			}
		}
	}
}

func TestAllgatherMatchesComm(t *testing.T) {
	for _, p := range textbookSizes() {
		w := NewWorld(p, timing.T3D())
		ok := make([]bool, p)
		w.Run(func(c *Comm) {
			// variable lengths: rank r contributes r+1 values
			local := make([]int32, c.Rank()+1)
			for i := range local {
				local[i] = int32(c.Rank()*100 + i)
			}
			a := ringAllgather(c, local)
			d := Allgather(c, local)
			good := len(a) == len(d)
			for r := range d {
				if len(a[r]) != len(d[r]) {
					good = false
					continue
				}
				for i := range d[r] {
					if a[r][i] != d[r][i] {
						good = false
					}
				}
			}
			ok[c.Rank()] = good
		})
		for r, o := range ok {
			if !o {
				t.Fatalf("p=%d rank=%d: allgather mismatch", p, r)
			}
		}
	}
}

func TestAllToAllMatchesComm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range textbookSizes() {
		w := NewWorld(p, timing.T3D())
		sends := make([][][]int64, p)
		for r := range sends {
			sends[r] = make([][]int64, p)
			for d := range sends[r] {
				n := rng.Intn(5)
				for i := 0; i < n; i++ {
					sends[r][d] = append(sends[r][d], rng.Int63())
				}
			}
		}
		ok := make([]bool, p)
		w.Run(func(c *Comm) {
			a := pairwiseAllToAll(c, sends[c.Rank()])
			d := AllToAllInto(c, sends[c.Rank()], nil)
			good := true
			for r := range d {
				if len(a[r]) != len(d[r]) {
					good = false
					continue
				}
				for i := range d[r] {
					if a[r][i] != d[r][i] {
						good = false
					}
				}
			}
			ok[c.Rank()] = good
		})
		for r, o := range ok {
			if !o {
				t.Fatalf("p=%d rank=%d: alltoall mismatch", p, r)
			}
		}
	}
}

func TestExScanMatchesComm(t *testing.T) {
	for _, p := range textbookSizes() {
		w := NewWorld(p, timing.T3D())
		ok := make([]bool, p)
		w.Run(func(c *Comm) {
			local := []int64{int64(c.Rank() + 1), int64(c.Rank() * 3)}
			a := doublingExScan(c, local, func(x, y int64) int64 { return x + y }, 0)
			d := ExScanSumInto(c, local, nil)
			good := len(a) == len(d)
			for i := range d {
				if a[i] != d[i] {
					good = false
				}
			}
			ok[c.Rank()] = good
		})
		for r, o := range ok {
			if !o {
				t.Fatalf("p=%d rank=%d: exscan mismatch", p, r)
			}
		}
	}
}

func TestExScanNonCommutative(t *testing.T) {
	// Affine composition: rank r's exclusive scan must compose the maps
	// of ranks 0..r-1 in strict order.
	identity := affine{A: 1, B: 0}
	for _, p := range []int{1, 2, 3, 5, 8, 11} {
		w := NewWorld(p, timing.T3D())
		results := make([][]affine, p)
		w.Run(func(c *Comm) {
			results[c.Rank()] = doublingExScan(c, []affine{rankAffine(c.Rank())}, affineCompose, identity)
		})
		want := identity
		for r := 0; r < p; r++ {
			if results[r][0] != want {
				t.Fatalf("p=%d rank %d: got %+v want %+v", p, r, results[r][0], want)
			}
			want = affineCompose(want, rankAffine(r))
		}
	}
}

func TestPropertyEquivalence(t *testing.T) {
	// Random sizes, random vectors: algorithmic and direct collectives
	// agree everywhere.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		n := 1 + rng.Intn(6)
		w := NewWorld(p, timing.T3D())
		inputs := make([][]int64, p)
		for r := range inputs {
			inputs[r] = make([]int64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.Int63n(1000)
			}
		}
		ok := true
		w.Run(func(c *Comm) {
			a := reduceBcastAllReduce(c, inputs[c.Rank()], func(x, y int64) int64 { return x + y })
			d := AllReduceSumInto(c, inputs[c.Rank()], nil)
			for i := range d {
				if a[i] != d[i] {
					ok = false
				}
			}
			s1 := doublingExScan(c, inputs[c.Rank()], func(x, y int64) int64 { return x + y }, 0)
			s2 := ExScanSumInto(c, inputs[c.Rank()], nil)
			for i := range s2 {
				if s1[i] != s2[i] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCostsTrackTheModel validates the closed-form timing.Model formulas
// against the message-level algorithms: the virtual-clock cost of each
// algorithmic collective (which emerges purely from P2P latency/bandwidth)
// must stay within a small constant factor of the model's formula.
func TestCostsTrackTheModel(t *testing.T) {
	model := timing.T3D()
	const n = 4096 // bytes per rank (512 int64s)
	payload := make([]int64, n/8)
	for _, p := range []int{4, 8, 16, 32} {
		run := func(f func(c *Comm)) float64 {
			w := NewWorld(p, model)
			w.Run(f)
			return w.MaxClock()
		}
		cases := []struct {
			name    string
			got     float64
			formula float64
		}{
			{"bcast", run(func(c *Comm) { binomialBcast(c, 0, payload) }), model.Bcast(p, n)},
			{"allreduce", run(func(c *Comm) {
				reduceBcastAllReduce(c, payload, func(a, b int64) int64 { return a + b })
			}), model.AllReduce(p, n)},
			{"exscan", run(func(c *Comm) {
				doublingExScan(c, payload, func(a, b int64) int64 { return a + b }, 0)
			}), model.Scan(p, n)},
			{"allgather", run(func(c *Comm) { ringAllgather(c, payload) }), model.Allgather(p, n)},
		}
		for _, cse := range cases {
			ratio := cse.got / cse.formula
			if ratio < 0.3 || ratio > 3.5 {
				t.Errorf("p=%d %s: message-level cost %.2g vs formula %.2g (ratio %.2f)",
					p, cse.name, cse.got, cse.formula, ratio)
			}
		}
	}
}
