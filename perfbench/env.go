package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// environment records what a result was measured on and with: the
// source revision, the toolchain, the machine shape, the pinned GC
// setting and the benchmark's own knobs.
func environment(cfg runConfig) map[string]any {
	return map[string]any{
		"commit":          vcsRevision(),
		"source_sha256":   sourceDigest("."),
		"go_version":      runtime.Version(),
		"goos_goarch":     runtime.GOOS + "/" + runtime.GOARCH,
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"gogc":            gcPercent,
		"sweep_jobs":      cfg.jobs,
		"daemon_workers":  cfg.daemonWorkers,
		"dsp_parallelism": cfg.dspParallelism,
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           cfg.trace,
	}
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git work tree; "unknown" otherwise (source_sha256 then
// identifies the tree).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping hidden directories (build output lives in one).
// It identifies the measured code when no commit is available.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measuredPeakRSS tracks the peak resident set size of the measured part
// of a run, leaving out set-up. start resets the kernel's high-water
// mark (VmHWM) by writing 5 to /proc/self/clear_refs; where that is not
// possible the peak is the whole process's.
type measuredPeakRSS struct{ reset bool }

func startPeakRSS() measuredPeakRSS {
	return measuredPeakRSS{reset: os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil}
}

// mib returns the peak since start.
func (m measuredPeakRSS) mib() float64 {
	if !m.reset {
		return peakRSSMiB()
	}
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return peakRSSMiB()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscan(rest, &kib); err == nil {
				return kib / 1024
			}
		}
	}
	return peakRSSMiB()
}

// cpuTicks reads the machine's total and stolen CPU time from
// /proc/stat. On a virtual machine, stolen time is time the host ran
// someone else; it slows every timed figure and is printed so a slow
// run can be told apart from slow code.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of CPU time stolen by the host over an
// interval.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTicks()
	return stealMeter{t, s, ok}
}

// report adds host_steal_frac to info when the platform exposes it.
func (m stealMeter) report(res *result) {
	t, s, ok := cpuTicks()
	if m.ok && ok && t > m.total {
		res.info["host_steal_frac"] = metric{float64(s-m.steal) / float64(t-m.total), "fraction"}
	}
}
