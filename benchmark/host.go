package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// hostLabel travels with every result, so a number is never read without
// knowing what produced it.
type hostLabel struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	// FewCPUs flags (never fails) a host with fewer CPUs than the fixed
	// load has ranks and clients.
	FewCPUs bool `json:"few_cpus"`
	// ScanNsPerEntry is the frozen single-thread probe: divide a timing by
	// it to compare runs recorded on different hosts.
	ScanNsPerEntry float64 `json:"hostprobe_scan_ns_per_entry"`
}

func readHostLabel() hostLabel {
	h := hostLabel{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown",
	}
	h.FewCPUs = h.NumCPU < procs
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "+dirty"
		}
	}
	h.ScanNsPerEntry = hostProbe()
	return h
}

var probeSink int64

// hostProbe is the noise floor: a fixed single-thread scan over a fixed
// pseudo-random list, written here so that no change to the repo's own
// packages can move it. It returns the fastest of five passes in
// nanoseconds per entry.
func hostProbe() float64 {
	type entry struct {
		val float64
		rid int32
		cid uint8
	}
	const n = 1 << 20
	list := make([]entry, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range list {
		x = x*6364136223846793005 + 1442695040888963407
		list[i] = entry{val: float64(x>>11) / (1 << 53), rid: int32(i), cid: uint8(x >> 62)}
	}
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		var below [4]int64
		var acc int64
		start := time.Now()
		for i := range list {
			e := &list[i]
			below[e.cid]++
			if e.val < 0.5 {
				acc += below[e.cid] * int64(e.rid&7)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		probeSink += acc
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// peakRSSMB is VmHWM of this process, in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(string(fields[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// childPeakRSSMB is the largest peak resident set among the child
// processes this process has waited for, in MB (Linux reports ru_maxrss in
// kB).
func childPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
