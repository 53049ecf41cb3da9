package tcptransport

import (
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for rank workers: LaunchWith
// re-executes it with the worker environment set, and each re-executed
// copy plays the part its args give its rank instead of running tests.
func TestMain(m *testing.M) {
	if IsWorker() {
		fakeWorker()
	}
	os.Exit(m.Run())
}

// fakeWorker plays one rank of a Wait test; os.Args[1+rank] is its part:
// "finish" exits 0, "dead" and "orphaned" exit with their reserved status,
// "fail" exits as a failed worker, "hang" never exits, and "write:D"
// sleeps D, publishes a result and exits 0.
func fakeWorker() {
	rank, _ := strconv.Atoi(os.Getenv(envRank))
	part := os.Args[1+rank]
	switch part {
	case "finish":
		os.Exit(ExitCode(nil))
	case "dead":
		os.Exit(ExitCode(ErrDead))
	case "orphaned":
		os.Exit(ExitCode(fmt.Errorf("shrink: %w", ErrOrphaned)))
	case "fail":
		os.Exit(ExitCode(errors.New("fake worker failed")))
	case "hang":
		time.Sleep(time.Hour)
	}
	d, err := time.ParseDuration(strings.TrimPrefix(part, "write:"))
	if err == nil {
		time.Sleep(d)
		err = WriteResult([]byte("result of " + strings.Join(os.Args[1:], " ")))
	}
	os.Exit(ExitCode(err))
}

// waitFake launches one fake worker per part and waits for the job.
func waitFake(t *testing.T, grace time.Duration, parts ...string) (*Job, []byte, error) {
	t.Helper()
	job, err := LaunchWith(len(parts), parts, io.Discard, LaunchOpts{Grace: grace})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(job.Close)
	data, err := job.Wait()
	return job, data, err
}

// TestWaitKeepsWriterPastPeerFinish: a peer's plain finish does not start
// the watchdog, so a result writer that publishes many graces later is not
// reaped.
func TestWaitKeepsWriterPastPeerFinish(t *testing.T) {
	const grace = 50 * time.Millisecond
	_, data, err := waitFake(t, grace, "write:"+(8*grace).String(), "finish")
	if err != nil {
		t.Fatal(err)
	}
	if want := "result of write:400ms finish"; string(data) != want {
		t.Fatalf("result %q, want %q", data, want)
	}
}

// TestWaitDeadAndOrphanedAreNotFailures: dead and orphaned exits do not fail
// the run, and the survivors are the finished and orphaned ranks.
func TestWaitDeadAndOrphanedAreNotFailures(t *testing.T) {
	job, _, err := waitFake(t, 0, "write:0s", "dead", "orphaned", "finish")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := job.Survivors(), []int{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}

	// With no writer left, the missing result is the error, and it says
	// how every rank ended.
	job, _, err = waitFake(t, 0, "orphaned", "dead")
	if err == nil || !strings.Contains(err.Error(), "no result from workers (rank 0 orphaned, rank 1 dead)") {
		t.Fatalf("got %v, want a missing-result error listing every rank", err)
	}
	if got, want := job.Survivors(), []int{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}
}

// TestWaitFailedWorkerDoomsRun: any other exit status fails the run even
// when the result was written.
func TestWaitFailedWorkerDoomsRun(t *testing.T) {
	_, _, err := waitFake(t, 0, "write:0s", "fail")
	if err == nil || !strings.Contains(err.Error(), "(rank 0 finished, rank 1 failed with exit status 1)") {
		t.Fatalf("got %v, want a failure listing every rank", err)
	}
}

// TestWaitReapsHungWorker: once the run is decided (here by an orphan), a
// worker that never exits is reaped one grace later, not waited for.
func TestWaitReapsHungWorker(t *testing.T) {
	const grace = 100 * time.Millisecond
	start := time.Now()
	job, _, err := waitFake(t, grace, "orphaned", "hang")
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "(rank 0 orphaned, rank 1 reaped)") {
		t.Fatalf("got %v, want a missing-result error naming the reaped rank", err)
	}
	if elapsed < grace || elapsed > grace+10*time.Second {
		t.Fatalf("Wait returned after %v, want about one grace (%v) after the orphan's exit", elapsed, grace)
	}
	if got, want := job.Survivors(), []int{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}
}

// TestExitCode pins the verdict-to-status mapping Wait reads back.
func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{ErrDead, ExitDead},
		{fmt.Errorf("level 3: %w", ErrOrphaned), ExitOrphaned},
		{ErrPeerFailed, ExitFailed},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
