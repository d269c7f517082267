package main

import (
	"runtime/metrics"
	"syscall"
)

// peakRSSMB is the process's peak resident set in MiB. ru_maxrss only grows
// within a process, which is why every workload run is its own process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type runtimeSnap [4]float64

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSnap
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// runtimeDelta sums runtime/metrics deltas over a set of iterations.
type runtimeDelta struct {
	allocBytes, gcCycles, cpuGC, cpuTotal float64
}

func (d *runtimeDelta) add(before, after runtimeSnap) {
	d.allocBytes += after[0] - before[0]
	d.gcCycles += after[1] - before[1]
	d.cpuGC += after[2] - before[2]
	d.cpuTotal += after[3] - before[3]
}
