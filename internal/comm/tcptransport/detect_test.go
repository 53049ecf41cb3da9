package tcptransport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/timing"
	"repro/internal/trace"
)

// connectDetect builds an in-process p-rank mesh with bounded-time
// detection and one transport-backed World per rank. The caller drives
// each rank's SPMD goroutine itself (the detection tests need per-rank
// behavior, not one shared fn).
func connectDetect(t *testing.T, p int, detect time.Duration) ([]*T, []*comm.World) {
	t.Helper()
	ts, err := ConnectLocalTimeout(p, detect)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	ws := make([]*comm.World, p)
	for i, tr := range ts {
		ws[i] = comm.NewTransportWorld(tr, timing.T3D())
	}
	return ts, ws
}

// tryRun runs op, converting a *RankFailure panic (recoverable or not)
// into an error; any other panic is rethrown.
func tryRun(op func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var rf *comm.RankFailure
			if e, ok := r.(error); ok && errors.As(e, &rf) {
				err = e
				return
			}
			panic(r)
		}
	}()
	op()
	return nil
}

// waitTorn blocks a rank until another rank's socket fault has fired and
// the tear has reached the rank's own transport tr: the schedule fires at
// the struck op's entry, a moment before the frame it tears is written.
func waitTorn(sched *faults.Schedule, tr *T) {
	for sched.Fired() == 0 || len(tr.Dead()) == 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestHungPeerSuspectedAndRecovered is the detector's core scenario: a
// rank whose NIC goes silent (no crash, no EOF — the process keeps
// computing) must be suspected by its peers within the detection
// timeout, excluded by one shrink, and must itself abort as orphaned
// when it observes the survivors' verdict. Without the detector this
// program deadlocks forever.
func TestHungPeerSuspectedAndRecovered(t *testing.T) {
	const p = 3
	const detect = 300 * time.Millisecond
	ts, ws := connectDetect(t, p, detect)

	var mu sync.Mutex
	lost := make([][]int, p)
	sums := make([][]int64, p)
	var orphanErr error
	start := time.Now()
	var recoveredAt time.Duration

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws[r].Run(func(c *comm.Comm) {
				if c.Phys() == 2 {
					// Go silent: outbound frames and heartbeats vanish, the
					// rank keeps issuing collectives as if nothing happened.
					// Convergence may take one extra epoch (a survivor's
					// shrink mask can predate its own suspicion), so the
					// hung rank retries until its Shrink aborts.
					ts[2].hung.Store(true)
					err := errors.New("hung rank never observed a failure")
					for round := 0; round < 5; round++ {
						err = tryRun(func() {
							for i := 0; i < 1000; i++ {
								comm.AllReduceSumInto(c, []int64{1}, nil)
							}
						})
						if err == nil {
							err = errors.New("hung rank completed its collectives")
							break
						}
						if err = tryRun(func() { c.Shrink() }); err != nil {
							break
						}
					}
					mu.Lock()
					orphanErr = err
					mu.Unlock()
					return
				}
				for {
					err := tryRun(func() {
						sum := comm.AllReduceSumInto(c, []int64{int64(c.Phys()) + 1}, nil)
						mu.Lock()
						sums[c.Phys()] = sum
						mu.Unlock()
					})
					if err == nil {
						break
					}
					l := c.Shrink()
					mu.Lock()
					lost[c.Phys()] = append(lost[c.Phys()], l...)
					mu.Unlock()
				}
				mu.Lock()
				if d := time.Since(start); d > recoveredAt {
					recoveredAt = d
				}
				mu.Unlock()
			})
		}(r)
	}
	wg.Wait()

	for _, r := range []int{0, 1} {
		if len(lost[r]) != 1 || lost[r][0] != 2 {
			t.Fatalf("rank %d lost set %v, want [2]", r, lost[r])
		}
		if len(sums[r]) != 1 || sums[r][0] != 3 {
			t.Fatalf("rank %d post-recovery sum %v, want [3]", r, sums[r])
		}
	}
	if !errors.Is(orphanErr, ErrOrphaned) {
		t.Fatalf("hung rank got %v, want ErrOrphaned", orphanErr)
	}
	// Bounded-time: the whole episode — suspicion, shrink, retry — must
	// finish in a few detection windows, not hang.
	if recoveredAt > 10*detect {
		t.Fatalf("survivors took %v to recover from a hung peer (detect %v)", recoveredAt, detect)
	}
	// At least one survivor's verdict came from a read deadline, not an
	// EOF, and the World folded it into its Stats.
	if n := ts[0].Suspicions() + ts[1].Suspicions(); n < 1 {
		t.Fatalf("no survivor recorded a suspicion (got %d)", n)
	}
	if n := ws[0].Stats()[0].Suspicions + ws[1].Stats()[1].Suspicions; n < 1 {
		t.Fatalf("world stats did not surface the suspicion (got %d)", n)
	}
}

// TestSuspicionThenLateEOFSingleShrink pins the race between a timeout
// verdict and the real connection close arriving later: the suspected
// rank's socket closing after the survivors already shrank past it must
// not trigger a second recovery round.
func TestSuspicionThenLateEOFSingleShrink(t *testing.T) {
	const p = 3
	const detect = 250 * time.Millisecond
	ts, ws := connectDetect(t, p, detect)

	var mu sync.Mutex
	lost := make([][]int, p)
	secondErr := make([]error, p)
	release := make(chan struct{})
	done := make(chan struct{}, 2)

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws[r].Run(func(c *comm.Comm) {
				if c.Phys() == 2 {
					// Hang without any op in flight; the real close comes
					// later, from the test body.
					ts[2].hung.Store(true)
					<-release
					return
				}
				for {
					err := tryRun(func() { comm.AllReduceSumInto(c, []int64{1}, nil) })
					if err == nil {
						break
					}
					l := c.Shrink()
					mu.Lock()
					lost[c.Phys()] = append(lost[c.Phys()], l...)
					mu.Unlock()
				}
				done <- struct{}{}
				<-release
				// The late EOF has landed by now; the next collective must
				// run on the already-shrunk world without another recovery.
				// (secondErr slots are per-rank; wg.Wait orders the reads.)
				secondErr[c.Phys()] = tryRun(func() { comm.AllReduceSumInto(c, []int64{1}, nil) })
			})
		}(r)
	}
	<-done
	<-done
	// Survivors have shrunk on suspicion alone. Now the "hung" rank's
	// socket actually closes — the EOF the suspicion pre-empted.
	ts[2].Close()
	close(release)
	wg.Wait()

	for _, r := range []int{0, 1} {
		if len(lost[r]) != 1 || lost[r][0] != 2 {
			t.Fatalf("rank %d lost %v over %d shrink rounds, want [2] in one", r, lost[r], len(lost[r]))
		}
		if secondErr[r] != nil {
			t.Fatalf("rank %d post-EOF collective failed: %v", r, secondErr[r])
		}
		if s := ws[r].Stats()[r].Shrinks; s != 1 {
			t.Fatalf("rank %d made %d shrinks, want exactly 1", r, s)
		}
	}
}

// TestWireDelayBenign: a delay fault shorter than the detection timeout
// must be invisible — same results as the fault-free run, no suspicion,
// no shrink.
func TestWireDelayBenign(t *testing.T) {
	const p = 2
	const detect = 600 * time.Millisecond
	const delay = 30 * time.Millisecond
	sched := faults.NewSchedule(p, faults.Event{
		Rank: 0, Peer: 1, Phase: trace.Other, Kind: faults.Delay, Picos: int64(delay) * 1000,
	})

	ts, ws := connectDetect(t, p, detect)
	for _, w := range ws {
		w.SetFaultInjector(sched)
	}
	wireOut := make([][]string, p)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws[r].Run(func(c *comm.Comm) { program(c, &wireOut[c.Rank()]) })
		}(r)
	}
	wg.Wait()
	if took := time.Since(start); took < delay {
		t.Fatalf("the run took %v, less than the %v delay: the delay never froze the connection", took, delay)
	}

	simOut := make([][]string, p)
	runSimulated(t, p, nil, func(c *comm.Comm) { program(c, &simOut[c.Rank()]) })
	for r := 0; r < p; r++ {
		if len(wireOut[r]) == 0 || len(simOut[r]) != len(wireOut[r]) {
			t.Fatalf("rank %d diverged under a benign delay:\nsim:  %v\nwire: %v", r, simOut[r], wireOut[r])
		}
		for i := range simOut[r] {
			if simOut[r][i] != wireOut[r][i] {
				t.Fatalf("rank %d diverged under a benign delay:\nsim:  %v\nwire: %v", r, simOut[r], wireOut[r])
			}
		}
	}
	if sched.Fired() != 1 {
		t.Fatalf("delay event fired %d times, want 1", sched.Fired())
	}
	for r, tr := range ts {
		if tr.Suspicions() != 0 {
			t.Fatalf("rank %d suspected a peer across a benign delay", r)
		}
		if d := tr.Dead(); len(d) != 0 {
			t.Fatalf("rank %d marked %v dead across a benign delay", r, d)
		}
	}
}

// TestWireResetSplitsPairWithoutDetection pins the documented limit of
// EOF-only mode: a reset torn connection on p=2 makes each side blame
// the other and continue alone (deterministic split-brain). The orphan
// rule that prevents this exists only under bounded-time detection —
// the next test.
func TestWireResetSplitsPairWithoutDetection(t *testing.T) {
	const p = 2
	sched := faults.NewSchedule(p, faults.Event{Rank: 0, Peer: 1, Phase: trace.Other, Kind: faults.Reset})
	ts, err := ConnectLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	ws := make([]*comm.World, p)
	for i, tr := range ts {
		ws[i] = comm.NewTransportWorld(tr, timing.T3D())
		ws[i].SetFaultInjector(sched)
	}

	var mu sync.Mutex
	lost := make([][]int, p)
	sums := make([][]int64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws[r].Run(func(c *comm.Comm) {
				if c.Phys() == 1 {
					// Hold rank 1 back until the reset struck and tore its
					// connection, so neither side's deposit crosses before
					// the tear — the outcome is then deterministic, not a
					// race with the fault.
					waitTorn(sched, ts[1])
				}
				for {
					err := tryRun(func() {
						sum := comm.AllReduceSumInto(c, []int64{int64(c.Phys()) + 1}, nil)
						mu.Lock()
						sums[c.Phys()] = sum
						mu.Unlock()
					})
					if err == nil {
						return
					}
					l := c.Shrink()
					mu.Lock()
					lost[c.Phys()] = append(lost[c.Phys()], l...)
					mu.Unlock()
				}
			})
		}(r)
	}
	wg.Wait()

	if len(lost[0]) != 1 || lost[0][0] != 1 || len(lost[1]) != 1 || lost[1][0] != 0 {
		t.Fatalf("mutual blame expected: rank0 lost %v, rank1 lost %v", lost[0], lost[1])
	}
	if sums[0][0] != 1 || sums[1][0] != 2 {
		t.Fatalf("each side must continue alone: got %v and %v", sums[0], sums[1])
	}
}

// TestWireTruncatePairOrphansUnderDetection: the same torn-pair scenario
// with detection on must NOT fork the world — a rank that lost every
// peer of its epoch aborts as orphaned, preferring a coordinator respawn
// over publishing a minority result.
func TestWireTruncatePairOrphansUnderDetection(t *testing.T) {
	const p = 2
	const detect = 400 * time.Millisecond
	sched := faults.NewSchedule(p, faults.Event{Rank: 0, Peer: 1, Phase: trace.Other, Kind: faults.Truncate})
	ts, ws := connectDetect(t, p, detect)
	for _, w := range ws {
		w.SetFaultInjector(sched)
	}

	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws[r].Run(func(c *comm.Comm) {
				if c.Phys() == 1 {
					waitTorn(sched, ts[1])
				}
				err := tryRun(func() { comm.AllReduceSumInto(c, []int64{1}, nil) })
				if err == nil {
					errs[c.Phys()] = errors.New("collective survived a torn pair")
					return
				}
				errs[c.Phys()] = tryRun(func() { c.Shrink() })
			})
		}(r)
	}
	wg.Wait()

	for r := 0; r < p; r++ {
		if !errors.Is(errs[r], ErrOrphaned) {
			t.Fatalf("rank %d got %v, want ErrOrphaned", r, errs[r])
		}
	}
	// Both verdicts came from the torn stream (EOF-shaped), not from a
	// read deadline: no suspicion should be recorded.
	for r, tr := range ts {
		if tr.Suspicions() != 0 {
			t.Fatalf("rank %d recorded a suspicion for an observed tear", r)
		}
	}
}
