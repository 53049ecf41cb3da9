package tcptransport

import (
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

// WriteStatus publishes this worker's exit verdict for the coordinator:
// "ok" (finished, or deferred to the result writer), "dead" (its rank
// was lost to an injected crash), or "orphaned" (aborted after losing
// every peer under bounded-time detection). The coordinator's watchdog
// and respawn sizing read these; a hung worker never writes one, which
// is exactly how the watchdog tells it apart. Atomic like WriteResult.
func WriteStatus(state string) error {
	return writeScratch("status-"+os.Getenv(envRank), []byte(state))
}

// writeScratch publishes one of a worker's IPC files, by name, in the job's
// scratch directory (the result file's). atomicfile.Write, not WriteDurable:
// Job.Close deletes the directory, and the coordinator reads the files while
// both processes are alive — an fsync would only put disk latency on the
// job's clock.
func writeScratch(name string, data []byte) error {
	res := ResultPath()
	if res == "" {
		return fmt.Errorf("tcptransport: %s not set", envResult)
	}
	return atomicfile.Write(filepath.Join(filepath.Dir(res), name), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
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
	procs  []*exec.Cmd
	dir    string
	result string
	grace  time.Duration
	hung   []int // ranks reaped by the watchdog
}

// LaunchOpts tunes a worker launch beyond the defaults.
type LaunchOpts struct {
	// Grace arms Wait's watchdog: once any worker publishes a terminal
	// status (or the result file appears, or a worker exits nonzero),
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

// Wait blocks until every worker exits and returns the result file
// written by the surviving dense-rank-0 worker. Nonzero worker exits are
// an error; a missing result file (all result-writers crashed) is too.
// With a grace configured (LaunchOpts.Grace), a watchdog reaps workers
// that are still running once the run is otherwise decided — a hung rank
// the survivors excluded must not hold the coordinator forever — and a
// watchdog kill is not itself a worker error (the result file decides).
// The job directory survives Wait so Statuses/Survivors can be consulted
// for a respawn; call Close to release it.
func (j *Job) Wait() ([]byte, error) {
	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, len(j.procs))
	for i, c := range j.procs {
		go func(rank int, c *exec.Cmd) { exits <- exit{rank, c.Wait()} }(i, c)
	}
	var (
		firstErr  error
		remaining = len(j.procs)
		exited    = make([]bool, len(j.procs))
		reaped    = make([]bool, len(j.procs))
		decided   bool
		deadline  time.Time
		poll      <-chan time.Time
	)
	if j.grace > 0 {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		poll = ticker.C
	}
	for remaining > 0 {
		select {
		case e := <-exits:
			remaining--
			exited[e.rank] = true
			if e.err != nil && !reaped[e.rank] {
				decided = true // a worker failing outright dooms the run
				if firstErr == nil {
					firstErr = fmt.Errorf("tcptransport: rank %d: %w", e.rank, e.err)
				}
			}
		case <-poll:
			if !decided {
				decided = j.decided()
			}
			if decided && deadline.IsZero() {
				deadline = time.Now().Add(j.grace)
			}
			if decided && time.Now().After(deadline) {
				for i, c := range j.procs {
					if !exited[i] && !reaped[i] && c.Process != nil {
						reaped[i] = true
						j.hung = append(j.hung, i)
						c.Process.Kill()
					}
				}
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	data, err := os.ReadFile(j.result)
	if err != nil {
		if len(j.hung) > 0 {
			return nil, fmt.Errorf("tcptransport: no result from workers (rank(s) %v hung, reaped by watchdog): %w", j.hung, err)
		}
		return nil, fmt.Errorf("tcptransport: no result from workers: %w", err)
	}
	return data, nil
}

// decided reports whether the run's outcome is already determined: the
// result file exists, or some worker published an "ok"/"orphaned"
// status. Both are written only at the very end of a worker's life, so
// seeing one means every rank that is going to contribute has finished
// the communication that needed the stragglers. A "dead" status does NOT
// decide the run — a crashed rank writes it mid-training while the
// survivors are still recovering.
func (j *Job) decided() bool {
	if _, err := os.Stat(j.result); err == nil {
		return true
	}
	for _, s := range j.Statuses() {
		if s == "ok" || s == "orphaned" {
			return true
		}
	}
	return false
}

// Statuses returns the exit verdict each worker published ("ok",
// "orphaned", "dead"), keyed by physical rank. Ranks that never wrote
// one (hung, watchdog-reaped, or died hard) are absent.
func (j *Job) Statuses() map[int]string {
	out := make(map[int]string)
	for r := range j.procs {
		data, err := os.ReadFile(filepath.Join(j.dir, "status-"+strconv.Itoa(r)))
		if err == nil {
			out[r] = strings.TrimSpace(string(data))
		}
	}
	return out
}

// Survivors lists, ascending, the ranks of the workers that ended the
// attempt alive — finished cleanly or aborted as orphans. Their count is
// the world size a respawn from checkpoint should use.
func (j *Job) Survivors() []int {
	var alive []int
	st := j.Statuses()
	for r := range j.procs {
		if st[r] == "ok" || st[r] == "orphaned" {
			alive = append(alive, r)
		}
	}
	return alive
}

// Close releases the job's scratch directory (result and status files).
func (j *Job) Close() {
	if j.dir != "" {
		os.RemoveAll(j.dir)
		j.dir = ""
	}
}

// WriteResult atomically publishes a worker's result for the
// coordinator (write-to-temp then rename, so a crash mid-write never
// leaves a half result).
func WriteResult(data []byte) error {
	return writeScratch(filepath.Base(ResultPath()), data)
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
