package main

// metricDef describes one reported metric. The end-to-end and per-layer
// lists are mirrored in BENCHMARK.json at the repository root; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	Clock  string  // wall, host or virtual
}

// endToEnd are the metrics an untraced run reports. Each bound, the
// worsening that counts as a regression, is 25%: on the 2-vCPU VM the
// benchmark was defined on, ten runs of the same code spread by up to 11%
// (interquartile range over the median) even with wall and CPU time scaled
// by the host probe (README.md, "Measured spread"), and a bound should be
// about three spreads wide. Smaller changes are resolved with ab.sh, whose
// pairs alternate within minutes.
var endToEnd = []metricDef{
	{"sessions_per_s", "1/s", "higher", 0.25, "wall"},
	{"session_p50_ms", "ms", "lower", 0.25, "wall"},
	{"session_p90_ms", "ms", "lower", 0.25, "wall"},
	{"cpu_ms_per_session", "ms", "lower", 0.25, "host"},
	{"peak_rss_mb", "MB", "lower", 0.25, "host"},
	{"setup_s", "s", "lower", 0.25, "wall"},
}

// virtualMetrics are end-to-end metrics on the virtual clock plus the failure
// ratio. They are exact, so instead of carrying a noise bound they must read
// the same in every run of the same code: the benchmark checks them rather
// than handing them to a regression threshold, and a run where they differ
// is reported as incorrect. The farm-mix workload cannot attribute virtual
// time to a session and checks per-trace fingerprints instead.
var virtualMetrics = []metricDef{
	{"session_vt_ms", "ms", "lower", 0, "virtual"},
	{"present_vt_us", "us", "lower", 0, "virtual"},
	{"fail_ratio", "ratio", "lower", 0, "host"},
}

// untracedMetrics is everything an untraced run reports on.
var untracedMetrics = append(append([]metricDef(nil), endToEnd...), virtualMetrics...)

// perLayer are the metrics a traced run reports, per session unless the
// name says otherwise. Only layers that every workload exercises are listed;
// the full two-clock layer table is printed and written to the results file.
var perLayer = []metricDef{
	// Fragment shading in MiniSL: programmable draws plus shader-blit
	// presents. webkit-tiles draws nothing, so draws alone read zero there.
	{Name: "engine.shading_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "engine.draws", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "engine.state_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "eglbridge.blit_shader_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "egl.present_self_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "diplomat.calls", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "diplomat.crossings", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "diplomat.self_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "kernel.syscalls", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "kernel.syscall_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "linker.dlr_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "impersonate.sessions", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "replay.player_self_wall_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "replay.decode_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "system.boot_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "farm.attempts_per_session", Unit: "count", Better: "lower", Clock: "host"},
	{Name: "farm.retries", Unit: "count", Better: "lower", Clock: "host"},
	{Name: "go.alloc_mb_per_session", Unit: "MB", Better: "lower", Clock: "host"},
	{Name: "go.mallocs_per_session", Unit: "count", Better: "lower", Clock: "host"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower", Clock: "host"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Clock: "wall"},
	{Name: "layers.unaccounted_wall_pct", Unit: "%", Better: "lower", Clock: "wall"},
}
