package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
)

// peakRSS tracks one repetition's own peak resident set. On Linux it
// resets the kernel's high-water mark (VmHWM) by writing 5 to
// /proc/self/clear_refs after returning freed memory to the OS, so an
// earlier, larger repetition or set-up step cannot leak into a later
// reading. Where that reset is refused it falls back to sampling the
// runtime's mapped-and-not-released memory between queries.
type peakRSS struct {
	kernel  bool
	sampled uint64
	s       []metrics.Sample
}

func newPeakRSS() *peakRSS {
	return &peakRSS{s: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}}
}

// reset starts a new measurement window.
func (p *peakRSS) reset() {
	debug.FreeOSMemory() // collects first
	p.kernel = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil && vmHWM() > 0
	p.sampled = 0
	p.sample()
}

// sample records the runtime's current footprint (fallback path only).
func (p *peakRSS) sample() {
	if p.kernel {
		return
	}
	metrics.Read(p.s)
	if b := p.s[0].Value.Uint64() - p.s[1].Value.Uint64(); b > p.sampled {
		p.sampled = b
	}
}

// peakMB returns the window's peak in MiB.
func (p *peakRSS) peakMB() float64 {
	if p.kernel {
		return float64(vmHWM()) / (1 << 20)
	}
	p.sample()
	return float64(p.sampled) / (1 << 20)
}

// vmHWM reads the process's peak resident set in bytes (0 if unknown).
func vmHWM() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseUint(string(f[0]), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// source names where the peak comes from, for the host context.
func (p *peakRSS) source() string {
	if p.kernel {
		return "VmHWM reset per repetition"
	}
	return "sampled runtime memory between queries"
}
