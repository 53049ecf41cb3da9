package tcptransport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/classify"
	"repro/internal/comm"
	"repro/internal/timing"
)

// runWire runs fn as an SPMD program over an in-process p-rank TCP mesh:
// each rank gets its own transport-backed World (exactly as the worker
// processes would), with its own fault injector when inject is non-nil.
func runWire(t *testing.T, p int, inject func(rank int) comm.FaultInjector, fn func(c *comm.Comm)) []*comm.World {
	t.Helper()
	ts, err := ConnectLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*comm.World, p)
	for i, tr := range ts {
		worlds[i] = comm.NewTransportWorld(tr, timing.T3D())
		if inject != nil {
			if inj := inject(i); inj != nil {
				worlds[i].SetFaultInjector(inj)
			}
		}
	}
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worlds[i].Run(fn)
		}(i)
	}
	wg.Wait()
	for _, tr := range ts {
		tr.Close()
	}
	return worlds
}

// program exercises every collective plus p2p and records the results a
// rank observes; identical on both backends by construction of the
// Transport seam, which the differential tests below assert.
func program(c *comm.Comm, out *[]string) {
	me := int64(c.Rank())
	p := c.Size()
	res := []string{}
	add := func(name string, v any) { res = append(res, fmt.Sprintf("%s=%v", name, v)) }

	add("allreduce", comm.AllReduceSum(c, []int64{me, me * 2, 7}))
	add("exscan", comm.ExScanSum(c, []int64{me + 1}))
	add("revexscan", comm.ReverseExScan(c, []int64{me + 1}, func(a, b int64) int64 { return a + b }, 0))
	add("allgather", comm.AllgatherFlat(c, []int32{int32(me), int32(me * 10)}))
	add("bcast", comm.Bcast(c, p-1, []float64{3.5, float64(p)}))
	add("reduce", comm.ReduceSum(c, 0, []int64{me, 1}))
	g := comm.Gather(c, 0, []int64{me})
	add("gather", g)
	counts := make([]int, p)
	vec := make([]uint32, 2*p)
	for i := range counts {
		counts[i] = 2
	}
	for i := range vec {
		vec[i] = uint32(int(me)*len(vec) + i)
	}
	add("reducescatter", comm.ReduceScatterSum32(c, vec, counts))
	send := make([][]int64, p)
	for d := range send {
		for k := 0; k <= int(me); k++ {
			send[d] = append(send[d], me*100+int64(d))
		}
	}
	add("alltoall", comm.AllToAll(c, send))
	partner := c.Rank() ^ 1
	if partner >= p {
		partner = c.Rank() // odd world: the top rank self-partners
	}
	add("sendrecv", comm.SendRecv(c, partner, []int64{me}))
	if p > 1 {
		// A directed p2p pair: even ranks send to the next rank up.
		if c.Rank()%2 == 0 && c.Rank()+1 < p {
			comm.Send(c, c.Rank()+1, []int64{me, me, me})
		} else if c.Rank()%2 == 1 {
			add("recv", comm.Recv[int64](c, c.Rank()-1))
		}
	}
	c.Barrier()
	*out = res
}

func runSimulated(t *testing.T, p int, inj comm.FaultInjector, fn func(c *comm.Comm)) *comm.World {
	t.Helper()
	w := comm.NewWorld(p, timing.T3D())
	if inj != nil {
		w.SetFaultInjector(inj)
	}
	w.Run(fn)
	return w
}

// TestCollectivesMatchSimulated is the package's core differential: the
// same SPMD program over the simulated machine and the TCP mesh must
// observe identical results on every rank.
func TestCollectivesMatchSimulated(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		simOut := make([][]string, p)
		runSimulated(t, p, nil, func(c *comm.Comm) { program(c, &simOut[c.Rank()]) })
		wireOut := make([][]string, p)
		runWire(t, p, nil, func(c *comm.Comm) { program(c, &wireOut[c.Rank()]) })
		for r := 0; r < p; r++ {
			if !reflect.DeepEqual(simOut[r], wireOut[r]) {
				t.Fatalf("p=%d rank %d diverged:\nsim:  %v\nwire: %v", p, r, simOut[r], wireOut[r])
			}
		}
	}
}

// nthOp crashes a specific rank at its nth communication op.
type nthOp struct {
	rank, n int
	seen    atomic.Int64
}

func (o *nthOp) Act(at comm.Site) comm.FaultAction {
	if at.Rank != o.rank {
		return comm.FaultAction{}
	}
	if int(o.seen.Add(1))-1 == o.n {
		return comm.FaultAction{Crash: true}
	}
	return comm.FaultAction{}
}

// recoverProgram is a miniature of scalparc's retry loop: run the
// program; on a recoverable RankFailure, shrink and replay. Survivors
// record their final results and the lost set.
func recoverProgram(c *comm.Comm, out *[]string, lost *[]int) {
	for {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					if cr, ok := r.(comm.Crashed); ok {
						panic(cr)
					}
					var rf *comm.RankFailure
					if e, ok := r.(error); ok && errors.As(e, &rf) && rf.Recoverable() {
						err = e
						return
					}
					panic(r)
				}
			}()
			program(c, out)
			return nil
		}()
		if err == nil {
			return
		}
		*lost = append(*lost, c.Shrink()...)
	}
}

// TestCrashRecoveryMatchesSimulated kills one rank mid-program on both
// backends; the survivors must agree on the lost set, renumber, and
// produce identical post-recovery results (every collective plus p2p
// over the renumbered dense ids — the Shrink-then-collective
// interleaving coverage).
func TestCrashRecoveryMatchesSimulated(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, n := range []int{0, 3, 7} {
			victim := p - 1
			simOut := make([][]string, p)
			simLost := make([][]int, p)
			runSimulated(t, p, &nthOp{rank: victim, n: n}, func(c *comm.Comm) {
				recoverProgram(c, &simOut[c.Phys()], &simLost[c.Phys()])
			})
			wireOut := make([][]string, p)
			wireLost := make([][]int, p)
			worlds := runWire(t, p, func(rank int) comm.FaultInjector {
				if rank == victim {
					return &nthOp{rank: victim, n: n}
				}
				return nil
			}, func(c *comm.Comm) {
				recoverProgram(c, &wireOut[c.Phys()], &wireLost[c.Phys()])
			})
			for r := 0; r < p; r++ {
				if r == victim {
					continue
				}
				if !reflect.DeepEqual(simLost[r], wireLost[r]) {
					t.Fatalf("p=%d n=%d rank %d lost sets diverged: sim %v wire %v", p, n, r, simLost[r], wireLost[r])
				}
				if !reflect.DeepEqual(simOut[r], wireOut[r]) {
					t.Fatalf("p=%d n=%d rank %d post-recovery results diverged:\nsim:  %v\nwire: %v", p, n, r, simOut[r], wireOut[r])
				}
			}
			for r, w := range worlds {
				if r == victim {
					continue
				}
				if lr := w.LiveRanks(); lr != p-1 {
					t.Fatalf("p=%d n=%d rank %d world has %d live ranks, want %d", p, n, r, lr, p-1)
				}
			}
		}
	}
}

// TestSendAfterShrinkUsesDenseIds pins p2p renumbering on the wire:
// after losing rank 1 of 3, dense ids 0 and 1 are physical 0 and 2, and
// Send/Recv between them must route on the physical connections.
func TestSendAfterShrinkUsesDenseIds(t *testing.T) {
	p := 3
	var got []int64
	runWire(t, p, func(rank int) comm.FaultInjector {
		if rank == 1 {
			return &nthOp{rank: 1, n: 0}
		}
		return nil
	}, func(c *comm.Comm) {
		defer func() {
			if r := recover(); r != nil {
				if cr, ok := r.(comm.Crashed); ok {
					panic(cr)
				}
				c.Shrink()
				if c.Size() != 2 {
					panic(fmt.Sprintf("size %d after shrink", c.Size()))
				}
				if c.Rank() == 0 {
					comm.Send(c, 1, []int64{41, 42})
				} else {
					got = comm.Recv[int64](c, 0)
				}
				c.Barrier()
			}
		}()
		c.Barrier()
		c.Barrier()
	})
	if len(got) != 2 || got[1] != 42 {
		t.Fatalf("post-shrink Recv got %v, want [41 42]", got)
	}
}

// TestWireCheckpointCrashRecovery replaces the old rejection test
// (checkpointing used to be refused on wire worlds): a full training run
// over the TCP mesh with per-level checkpoints to a shared directory,
// one rank crashed mid-induction, must recover in-process via shrink +
// checkpoint restore and produce the byte-identical tree of the
// fault-free oracle.
func TestWireCheckpointCrashRecovery(t *testing.T) {
	tab, err := classify.GenerateQuest(classify.QuestConfig{Function: 2, Records: 800, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := classify.Train(tab, classify.Config{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}

	const p, victim = 3, 2
	ts, err := ConnectLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	cfg := classify.Config{
		Faults:        "crash@PerformSplitI:1:2",
		CheckpointDir: t.TempDir(),
	}
	models := make([]*classify.Model, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i, tr := range ts {
		w := comm.NewTransportWorld(tr, timing.T3D())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			models[i], errs[i] = classify.TrainWorld(w, tab, cfg)
		}(i)
	}
	wg.Wait()

	if errs[victim] == nil {
		t.Fatal("the crashed rank trained to completion")
	}
	var cleanTree, wireTree bytes.Buffer
	if err := clean.Tree.Encode(&cleanTree); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		if errs[r] != nil {
			t.Fatalf("survivor %d failed: %v", r, errs[r])
		}
		wireTree.Reset()
		if err := models[r].Tree.Encode(&wireTree); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cleanTree.Bytes(), wireTree.Bytes()) {
			t.Fatalf("survivor %d's recovered tree is not byte-identical to the fault-free oracle", r)
		}
		mm := models[r].Metrics
		if mm.Recoveries != 1 || mm.FinalRanks != p-1 || len(mm.Lost) != 1 || mm.Lost[0] != victim {
			t.Fatalf("survivor %d recovery metrics %+v", r, mm)
		}
	}
}

// TestLaunchRejectsNoRanks: a launch of fewer than one rank process is an
// error before anything is bound or spawned, not a job with no workers
// whose Wait fails on a missing result file.
func TestLaunchRejectsNoRanks(t *testing.T) {
	for _, p := range []int{0, -1} {
		if job, err := LaunchWith(p, nil, io.Discard, LaunchOpts{}); err == nil {
			job.Close()
			t.Errorf("LaunchWith(p=%d) launched a job", p)
		}
	}
}
