package main

import (
	"encoding/binary"
	"runtime"
	"syscall"
	"time"
)

// hostInfo records the machine state a result was taken under, so a run
// made during a slow episode can be recognised afterwards.
type hostInfo struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	GCPercent  int       `json:"gc_percent"`
	ProbeMS    []float64 `json:"probe_ms"`
}

// probe is a fixed-work, memory-latency-bound loop: a dependent pointer
// chase through a 64 MB table, far larger than any cache. Its run time
// moves with the host's memory contention, which on a shared machine is
// the noise that does not show up as steal. It is timed only between
// passes — inside one it would evict the system's working set — and
// gates nothing.
type probe struct {
	table []byte // mapped outside the Go heap so it cannot shift GC pacing
	pos   uint32
	ms    []float64
}

const (
	probeSlots = 1 << 24 // × 4 bytes = 64 MB
	probeSteps = 1 << 18
)

func newProbe() (*probe, error) {
	table, err := syscall.Mmap(-1, 0, probeSlots*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// slot i points at (a·i + c) mod 2^24: with a ≡ 1 (mod 4) and c odd
	// that map is a single cycle through every slot (Hull–Dobell), and
	// successive hops land far apart.
	for i := uint32(0); i < probeSlots; i++ {
		binary.LittleEndian.PutUint32(table[i*4:], (i*1664525+1013904223)&(probeSlots-1))
	}
	return &probe{table: table}, nil
}

func (p *probe) sample() {
	start := time.Now()
	pos := p.pos
	for i := 0; i < probeSteps; i++ {
		pos = binary.LittleEndian.Uint32(p.table[pos*4:])
	}
	p.pos = pos
	p.ms = append(p.ms, float64(time.Since(start).Nanoseconds())/1e6)
}

func (p *probe) close() { _ = syscall.Munmap(p.table) } // the process is exiting; nothing to do on failure

func (p *probe) host(gcPercent int) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GCPercent:  gcPercent,
		ProbeMS:    p.ms,
	}
}
