package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment records the facts a result must be read with: the machine,
// the toolchain and the code measured.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"cpu_model":  cpuModel(),
		"l3_bytes":   l3Bytes(),
	}
}

// commit names the code measured: the VCS revision stamped into the build
// when it was built inside a git checkout, and otherwise a digest of the
// module's Go sources and go.mod files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	return sourceDigest(".")
}

func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		io.Copy(h, fh)
		fh.Close()
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// l3Bytes reads the last-level cache size the kernel reports for CPU 0
// (0 when it reports none).
func l3Bytes() int64 {
	data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(data))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// procStatusKB reads one kB field (VmHWM, VmRSS) of /proc/self/status.
func procStatusKB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return n
		}
	}
	return 0
}

// peakRSSMB is the process's resident high-water mark in MiB.
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// rssBytes is the process's current resident set.
func rssBytes() float64 { return procStatusKB("VmRSS") * 1024 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// busyMeter measures sim.cpu_busy_frac: process CPU time over wall time
// times GOMAXPROCS, accumulated over the intervals bracketed by start/stop.
type busyMeter struct {
	cpu, wall time.Duration
	c0        time.Duration
	w0        time.Time
}

func (b *busyMeter) start() { b.c0, b.w0 = cpuTime(), time.Now() }

func (b *busyMeter) stop() {
	b.wall += time.Since(b.w0)
	b.cpu += cpuTime() - b.c0
}

func (b *busyMeter) frac() float64 {
	if b.wall <= 0 {
		return 0
	}
	return b.cpu.Seconds() / (b.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}
