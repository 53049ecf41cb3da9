package tcptransport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicfile"
)

// Worker environment. The coordinator binds every rank's listener
// before spawning anything, passes each worker its own listener as fd 3
// (ExtraFiles), and describes the mesh in these variables. RESULT names
// the file the surviving dense-rank-0 worker writes its output to.
const (
	envRank   = "SCALPARC_TCP_RANK"
	envProcs  = "SCALPARC_TCP_PROCS"
	envAddrs  = "SCALPARC_TCP_ADDRS"
	envResult = "SCALPARC_TCP_RESULT"
	envResume = "SCALPARC_TCP_RESUME"

	listenerFD = 3
)

// IsWorker reports whether this process was spawned as a TCP rank
// worker (and should run the worker path instead of the coordinator).
func IsWorker() bool { return os.Getenv(envRank) != "" }

// ResultPath is the file a worker writes its result to (see Job.Wait).
func ResultPath() string { return os.Getenv(envResult) }

// IsResume reports whether this worker belongs to a respawn attempt and
// must restore from the last complete checkpoint instead of training
// from scratch.
func IsResume() bool { return os.Getenv(envResume) != "" }

// A worker's exit status is its only verdict to the coordinator: 0 is
// finished (the result file written, or deferred to its writer), ExitDead
// and ExitOrphaned are reserved, and any other status is a failure —
// ExitFailed is the one ExitCode gives. Job.Wait maps a status back.
const (
	ExitFailed   = 1
	ExitDead     = 3 // its rank was lost to an injected crash
	ExitOrphaned = 4 // it lost every peer under bounded-time detection (ErrOrphaned)
)

// ErrDead is a worker's outcome when its own rank was lost to an injected
// crash: the rank is gone, but the process ended as planned.
var ErrDead = errors.New("tcptransport: this rank was lost to an injected crash")

// ExitCode is the exit status that reports a worker's outcome: 0 for nil,
// ExitDead and ExitOrphaned for ErrDead and ErrOrphaned (wrapped or not),
// and ExitFailed for any other error.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrDead):
		return ExitDead
	case errors.Is(err, ErrOrphaned):
		return ExitOrphaned
	}
	return ExitFailed
}

// FromEnvTimeout connects the transport described by the worker
// environment — rank and address list from the variables, the pre-bound
// listener from fd 3 — with bounded-time detection at the given timeout
// (zero for EOF-only fail-stop).
func FromEnvTimeout(detect time.Duration) (*T, error) {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		return nil, fmt.Errorf("tcptransport: bad %s: %w", envRank, err)
	}
	procs, err := strconv.Atoi(os.Getenv(envProcs))
	if err != nil {
		return nil, fmt.Errorf("tcptransport: bad %s: %w", envProcs, err)
	}
	addrs := strings.Split(os.Getenv(envAddrs), ",")
	if len(addrs) != procs {
		return nil, fmt.Errorf("tcptransport: %s has %d addresses for %d ranks", envAddrs, len(addrs), procs)
	}
	f := os.NewFile(listenerFD, "tcp-listener")
	if f == nil {
		return nil, fmt.Errorf("tcptransport: listener fd %d not inherited", listenerFD)
	}
	ln, err := net.FileListener(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listener fd: %w", err)
	}
	return ConnectTimeout(rank, ln, addrs, detect)
}

// FromEnv connects without bounded-time detection (EOF-only fail-stop).
func FromEnv() (*T, error) { return FromEnvTimeout(0) }

// Job is a coordinator's handle on a set of spawned rank workers.
type Job struct {
	procs    []*exec.Cmd
	dir      string
	result   string
	grace    time.Duration
	verdicts []verdict // per rank, recorded by Wait
}

// verdict is how one worker ended, as Wait recorded it from its exit.
type verdict struct {
	end  end
	exit error // a failed worker's exit error
}

type end int8

const (
	running  end = iota // not exited
	finished            // exit status 0
	dead                // ExitDead
	orphaned            // ExitOrphaned
	failed              // any other exit
	reaped              // killed by Wait's watchdog
)

// verdictOf reads a worker's verdict off its exit error (exec.Cmd.Wait's).
func verdictOf(err error) verdict {
	var ee *exec.ExitError
	if err == nil {
		return verdict{end: finished}
	}
	if errors.As(err, &ee) {
		switch ee.ExitCode() {
		case ExitDead:
			return verdict{end: dead}
		case ExitOrphaned:
			return verdict{end: orphaned}
		}
	}
	return verdict{end: failed, exit: err}
}

var endNames = [...]string{"running", "finished", "dead", "orphaned", "failed", "reaped"}

func (v verdict) String() string {
	if v.end == failed {
		return "failed with " + v.exit.Error()
	}
	return endNames[v.end]
}

// LaunchOpts tunes a worker launch beyond the defaults.
type LaunchOpts struct {
	// Grace arms Wait's watchdog: once the run is decided (see Wait),
	// processes still running after this long are presumed hung — the
	// survivors already suspected and excluded them — and are killed.
	// Zero disables the watchdog (Wait blocks until every exit).
	Grace time.Duration
	// Resume marks the workers as a respawn attempt: they restore from
	// the last complete checkpoint instead of training from scratch.
	Resume bool
}

// Launch re-executes the current binary p times as rank workers, each
// carrying the given command-line args plus the worker environment.
// Worker output goes to stderr (the coordinator's stdout stays the
// coordinator's).
func Launch(p int, args []string, stderr io.Writer) (*Job, error) {
	return LaunchWith(p, args, stderr, LaunchOpts{})
}

// LaunchWith is Launch with options.
func LaunchWith(p int, args []string, stderr io.Writer, opts LaunchOpts) (*Job, error) {
	if p < 1 {
		return nil, fmt.Errorf("tcptransport: launch needs p >= 1 rank processes, got %d", p)
	}
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("tcptransport: locate binary: %w", err)
	}
	lns, addrs, err := Listen(p)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	dir, err := os.MkdirTemp("", "scalparc-tcp-")
	if err != nil {
		closeAll()
		return nil, err
	}
	j := &Job{dir: dir, result: filepath.Join(dir, "result.json"), grace: opts.Grace}
	if stderr == nil {
		stderr = os.Stderr
	}
	for i := 0; i < p; i++ {
		f, err := lns[i].(*net.TCPListener).File()
		if err != nil {
			closeAll()
			j.kill()
			return nil, fmt.Errorf("tcptransport: dup listener %d: %w", i, err)
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(i),
			envProcs+"="+strconv.Itoa(p),
			envAddrs+"="+strings.Join(addrs, ","),
			envResult+"="+j.result,
		)
		if opts.Resume {
			cmd.Env = append(cmd.Env, envResume+"=1")
		}
		cmd.ExtraFiles = []*os.File{f} // becomes fd 3 in the child
		cmd.Stdout = stderr
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			f.Close()
			closeAll()
			j.kill()
			return nil, fmt.Errorf("tcptransport: start rank %d: %w", i, err)
		}
		f.Close() // child holds its own dup
		j.procs = append(j.procs, cmd)
	}
	// The children own their listener dups; the coordinator's copies
	// would otherwise keep the ports open forever.
	closeAll()
	return j, nil
}

func (j *Job) kill() {
	for _, c := range j.procs {
		if c.Process != nil {
			c.Process.Kill()
			c.Wait()
		}
	}
}

// Wait blocks until every worker exits, records each rank's verdict from
// its exit status, and returns the result file written by the surviving
// dense-rank-0 worker. A failed worker is an error, and so is a missing
// result file (every result writer was lost); the error lists how every
// rank ended. Dead and orphaned workers are not failures.
//
// With a grace configured (LaunchOpts.Grace), a watchdog reaps workers
// still running one grace after the run is decided — a hung rank the
// survivors excluded must not hold the coordinator forever. The run is
// decided by an exit that finds the result file written, an orphaned
// worker, or a failed one; a peer's plain finish never decides it, since
// the result writer may still be encoding the model. A reaped worker is
// not itself an error: the result file decides. The job directory
// survives Wait so Survivors can be consulted for a respawn; call Close
// to release it.
func (j *Job) Wait() ([]byte, error) {
	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, len(j.procs))
	for i, c := range j.procs {
		go func(rank int, c *exec.Cmd) { exits <- exit{rank, c.Wait()} }(i, c)
	}
	j.verdicts = make([]verdict, len(j.procs))
	var watchdog <-chan time.Time
	for remaining := len(j.procs); remaining > 0; {
		select {
		case e := <-exits:
			remaining--
			if j.verdicts[e.rank].end == reaped {
				continue
			}
			v := verdictOf(e.err)
			j.verdicts[e.rank] = v
			if watchdog == nil && j.grace > 0 && (v.end == orphaned || v.end == failed || j.resultWritten()) {
				watchdog = time.After(j.grace)
			}
		case <-watchdog:
			for r, c := range j.procs {
				if j.verdicts[r].end == running {
					j.verdicts[r].end = reaped
					c.Process.Kill()
				}
			}
		}
	}
	for _, v := range j.verdicts {
		if v.end == failed {
			return nil, fmt.Errorf("tcptransport: a worker failed (%s)", j.ends())
		}
	}
	data, err := os.ReadFile(j.result)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: no result from workers (%s): %w", j.ends(), err)
	}
	return data, nil
}

func (j *Job) resultWritten() bool {
	_, err := os.Stat(j.result)
	return err == nil
}

// ends lists how every rank ended, for Wait's errors.
func (j *Job) ends() string {
	parts := make([]string, len(j.verdicts))
	for r, v := range j.verdicts {
		parts[r] = fmt.Sprintf("rank %d %v", r, v)
	}
	return strings.Join(parts, ", ")
}

// Survivors lists, ascending, the ranks of the workers that ended the
// attempt alive — finished, or aborted as orphans — by the verdicts Wait
// recorded. Their count is the world size a respawn from checkpoint
// should use.
func (j *Job) Survivors() []int {
	var alive []int
	for r, v := range j.verdicts {
		if v.end == finished || v.end == orphaned {
			alive = append(alive, r)
		}
	}
	return alive
}

// Close releases the job's scratch directory (the result file).
func (j *Job) Close() {
	if j.dir != "" {
		os.RemoveAll(j.dir)
		j.dir = ""
	}
}

// WriteResult atomically publishes a worker's result for the coordinator
// (write-to-temp then rename, so a crash mid-write never leaves a half
// result). atomicfile.Write, not WriteDurable: Job.Close deletes the
// directory, and the result is on the job's clock — an fsync would only
// put disk latency on it.
func WriteResult(data []byte) error {
	res := ResultPath()
	if res == "" {
		return fmt.Errorf("tcptransport: %s not set", envResult)
	}
	return atomicfile.Write(res, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ConnectLocal builds a p-rank mesh inside one process (each rank's leg
// on its own goroutine), for tests that exercise the wire path without
// spawning workers.
func ConnectLocal(p int) ([]*T, error) { return ConnectLocalTimeout(p, 0) }

// ConnectLocalTimeout is ConnectLocal with bounded-time detection.
func ConnectLocalTimeout(p int, detect time.Duration) ([]*T, error) {
	lns, addrs, err := Listen(p)
	if err != nil {
		return nil, err
	}
	ts := make([]*T, p)
	errs := make([]error, p)
	done := make(chan int, p)
	for i := 0; i < p; i++ {
		go func(i int) {
			ts[i], errs[i] = ConnectTimeout(i, lns[i], addrs, detect)
			done <- i
		}(i)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			for _, t := range ts {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
	}
	return ts, nil
}
