package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's peak resident set, falling back
// to getrusage's ru_maxrss where /proc is not mounted.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts VmHWM from the current resident set, so that a
// peak can be taken per pass; where the kernel refuses, the peaks read
// afterwards are those of the whole process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// procLayer fills the whole-process proc.* layer metrics.
func procLayer(m metricMap) {
	ms := memStats()
	m.set("proc.gc_cycles", float64(ms.NumGC))
	m.set("proc.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6)
	m.set("proc.heap_live_mb", float64(ms.HeapAlloc)/(1<<20))
	m.set("proc.allocs_total", float64(ms.Mallocs))
}
