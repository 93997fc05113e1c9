package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// The host the benchmark was defined on, a 2-vCPU VM, changes speed by
// 20-30% from one minute to the next and within seconds, and wall and CPU
// time of every session move with it: the hypervisor reports no steal, and
// no cgroup throttles the process. So the benchmark times a fixed job of
// its own, the host probe, at the same times as the sessions, and scales
// the wall and CPU metrics to a host on which the probe takes probeRefMS.
//
// The probe is benchmark code, so a change to the program does not move
// it. It keeps every CPU busy, as the sessions do; a probe on one CPU
// switched between two speeds that the sessions did not share. It
// allocates nothing, and it runs with the collector idle, so the program's
// heap does not move it either.
const (
	// probeRefMS is about the probe's median time on the reference VM
	// (2-vCPU Intel Xeon, Go 1.24.0), so the scaled metrics read in ms
	// there.
	probeRefMS = 8.5
	// probesPerSlot probes run back to back in each probe slot.
	probesPerSlot = 5
	// probeSide is the side of the square each probe goroutine shades.
	probeSide = 600
)

// probeProgram is what the probe interprets for every pixel.
var probeProgram = []byte{0, 1, 2, 3, 0, 2, 1, 3, 2, 0}

// probeSinks keeps each goroutine's result live.
var probeSinks [64]float32

// probeShade interprets probeProgram over a probeSide square of pixels,
// like a fragment shader run by an interpreter.
func probeShade() float32 {
	var acc float32
	var file [64]float32
	regs := file[:]
	for y := 0; y < probeSide; y++ {
		for x := 0; x < probeSide; x++ {
			clear(regs)
			regs[0], regs[1] = float32(x), float32(y)
			for _, op := range probeProgram {
				switch op {
				case 0:
					regs[2] = regs[0]*0.5 + regs[1]
				case 1:
					regs[3] = regs[2] * regs[2]
				case 2:
					if regs[3] > regs[2] {
						regs[4] += regs[3] - regs[2]
					} else {
						regs[4]--
					}
				case 3:
					regs[0], regs[1] = regs[1], regs[4]
				}
			}
			acc += regs[4]
		}
	}
	return acc
}

// probeSlot runs probesPerSlot probes and returns their times in ms. Each
// probe shades on every CPU at once. It runs only while no session does:
// turning the collector off first waits for a collection still marking to
// finish, and keeps it from starting another until the slot ends.
func probeSlot() []float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]float64, 0, probesPerSlot)
	for range probesPerSlot {
		start := time.Now()
		var wg sync.WaitGroup
		for g := range min(runtime.NumCPU(), len(probeSinks)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				probeSinks[g] = probeShade()
			}()
		}
		wg.Wait()
		out = append(out, ms(time.Since(start)))
	}
	return out
}
