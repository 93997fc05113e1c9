package farm_test

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"cycada/internal/farm"
	"cycada/internal/fault"
	"cycada/internal/replay"
)

// BenchmarkFarm measures scheduler throughput (sessions/sec) across a
// devices x sessions grid of verified golden-trace replays. Scaling devices
// should scale throughput until the host runs out of cores.
func BenchmarkFarm(b *testing.B) {
	tr, err := replay.ReadFile(filepath.Join("..", "replay", "testdata", "webkit-tiles.cytr"))
	if err != nil {
		b.Fatalf("ReadFile: %v", err)
	}
	grid := []struct{ devices, sessions int }{
		{1, 4},
		{2, 8},
		{4, 16},
	}
	for _, g := range grid {
		b.Run(fmt.Sprintf("d%ds%d", g.devices, g.sessions), func(b *testing.B) {
			var sessions int
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				f := farm.New(farm.Config{Devices: g.devices, MaxQueue: g.sessions})
				start := time.Now()
				handles := make([]*farm.Session, 0, g.sessions)
				for j := 0; j < g.sessions; j++ {
					s, err := f.Submit(farm.SessionSpec{
						Name:   fmt.Sprintf("bench-%d", j),
						Trace:  tr,
						Verify: true,
					})
					if err != nil {
						b.Fatalf("Submit: %v", err)
					}
					handles = append(handles, s)
				}
				f.Wait()
				busy += time.Since(start)
				sessions += g.sessions
				for _, s := range handles {
					if res := s.Result(); res.Err != nil {
						b.Fatalf("session %s: %v", res.Name, res.Err)
					}
				}
				f.Close()
			}
			b.ReportMetric(float64(sessions)/busy.Seconds(), "sessions/sec")
		})
	}
}

// BenchmarkFarmResilience measures what self-healing costs under injected
// failure: verified golden-trace sessions with a retry budget, where 0%,
// 5%, or 20% of the sessions carry a one-shot diplomat panic that kills
// their first attempt (the retry failover recovers them) — the BENCH_9.json
// series. Reported: delivered sessions/sec (retries inflate the work, not
// the count) and the P95 virtual-time present latency of the sessions that
// succeeded. All sessions must still succeed: resilience shows up as
// slowdown, never as loss.
func BenchmarkFarmResilience(b *testing.B) {
	tr, err := replay.ReadFile(filepath.Join("..", "replay", "testdata", "passmark-2d.cytr"))
	if err != nil {
		b.Fatalf("ReadFile: %v", err)
	}
	const devices, sessions = 2, 20
	for _, pct := range []int{0, 5, 20} {
		b.Run(fmt.Sprintf("fail%d", pct), func(b *testing.B) {
			var delivered, succeeded int
			var busy time.Duration
			var p95Sum time.Duration
			for i := 0; i < b.N; i++ {
				f := farm.New(farm.Config{
					Devices:         devices,
					MaxQueue:        sessions,
					SessionDeadline: time.Minute, // watchdog armed, never the bottleneck
					DrainDeadline:   time.Minute,
				})
				for d := 0; d < f.Devices(); d++ {
					f.Device(d).Flight.SetOutput(io.Discard)
				}
				start := time.Now()
				handles := make([]*farm.Session, 0, sessions)
				for j := 0; j < sessions; j++ {
					spec := farm.SessionSpec{
						Name:    fmt.Sprintf("bench-%d", j),
						Trace:   tr,
						Verify:  true,
						Retries: 1,
					}
					// Every (100/pct)'th session carries a fault that fires
					// exactly once, on its first attempt — a deterministic
					// pct% per-session failure rate. After skips deep into the
					// replay first, so the killed attempt has done real work
					// the retry must redo.
					if pct > 0 && j%(100/pct) == 0 {
						spec.Faults = &fault.Schedule{
							Seed:   uint64(i*sessions + j),
							Rate:   1,
							After:  50,
							Times:  1,
							Points: []fault.Point{fault.PointDiplomatPanic},
						}
					}
					s, err := f.Submit(spec)
					if err != nil {
						b.Fatalf("Submit: %v", err)
					}
					handles = append(handles, s)
				}
				f.Wait()
				busy += time.Since(start)
				for _, s := range handles {
					res := s.Result()
					delivered++
					if res.Err != nil {
						b.Fatalf("session %s: %v (retry budget should recover every injected failure)",
							res.Name, res.Err)
					}
					succeeded++
					p95Sum += res.FrameP95.AsTime()
				}
				f.Close()
			}
			b.ReportMetric(float64(delivered)/busy.Seconds(), "sessions/sec")
			if succeeded > 0 {
				b.ReportMetric(float64(p95Sum.Microseconds())/float64(succeeded), "frame-p95-us")
			}
		})
	}
}
