package main

import (
	"bufio"
	"debug/buildinfo"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfCPU is this process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, which
// Linux fixes at 100 for user space).
const clockTick = 10 * time.Millisecond

// procCPU is a process's user plus system CPU time so far, all threads.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; proc is
// a pid or "self".
func peakRSSMB(proc string) (float64, error) {
	f, err := os.Open("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", proc)
}

// resetPeakRSS returns the benchmark's own start-up memory (inputs,
// references) to the OS and restarts the peak-RSS count, so peak_rss_mb
// covers set-up and the measured phase only.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Without clear_refs support the peak keeps the start-up share.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// host identifies where and with what a result was measured.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	// Revision is the vcs.revision the benchmark binary was built from
	// ("unknown" outside a repository); ServerRevision that of
	// vacsem-serve. A "+dirty" suffix marks a modified tree.
	Revision       string `json:"revision"`
	ServerRevision string `json:"server_revision"`
}

func fingerprint(serverPath string) host {
	h := host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Revision: "unknown", ServerRevision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.Revision = revision(bi)
	}
	if bi, err := buildinfo.ReadFile(serverPath); err == nil {
		h.ServerRevision = revision(bi)
	}
	return h
}

func revision(bi *debug.BuildInfo) string {
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
