package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of this process's resource counters: CPU time
// from getrusage, bytes the kernel sent to storage (/proc/self/io
// write_bytes), and the Go runtime's cumulative allocation and GC counts.
type procSample struct {
	cpu        time.Duration
	writeBytes int64
	allocBytes uint64
	gcCycles   uint64
}

var procMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.writeBytes = procWriteBytes()
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.gcCycles = ms[1].Value.Uint64()
	return s
}

// sub returns the counters accumulated between o and s.
func (s procSample) sub(o procSample) procSample {
	return procSample{
		cpu:        s.cpu - o.cpu,
		writeBytes: s.writeBytes - o.writeBytes,
		allocBytes: s.allocBytes - o.allocBytes,
		gcCycles:   s.gcCycles - o.gcCycles,
	}
}

func (s procSample) add(o procSample) procSample {
	return procSample{
		cpu:        s.cpu + o.cpu,
		writeBytes: s.writeBytes + o.writeBytes,
		allocBytes: s.allocBytes + o.allocBytes,
		gcCycles:   s.gcCycles + o.gcCycles,
	}
}

// procWriteBytes reads write_bytes from /proc/self/io; 0 where the kernel
// does not account it.
func procWriteBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// peakRSSMB is the process's maximum resident set size in MB (getrusage
// maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()) / 1e6
}

// setProcMetrics reports the process counters a phase accumulated over
// its untraced rounds, normalized by its unit of work (MB downloaded,
// thousands of records, or millions of simulator events): prefix names the
// phase and unit the unit, as in process.live.cpu_s_per_mb.
func (e *env) setProcMetrics(prefix, unit string, p procSample, units float64, rounds int) {
	if units <= 0 {
		return
	}
	e.res.set(prefix+"cpu_s_per_"+unit, p.cpu.Seconds()/units, rounds)
	e.res.set(prefix+"alloc_bytes_per_"+unit, float64(p.allocBytes)/units, rounds)
	e.res.set(prefix+"gc_cycles_per_"+unit, float64(p.gcCycles)/units, rounds)
}
