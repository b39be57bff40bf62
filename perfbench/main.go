// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload against the public API for a fixed number of
// seconds, passing through every layer (live swarm and streaming, log
// ingest and analyzer, simulated month), checks the program's outputs, and
// prints every metric by name with its unit and sample count. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
//
//	perfbench --workload stream-mem --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the metrics are the user-visible (end-to-end) ones; with
// --trace 1 the run alternates untraced and traced rounds and reports the
// per-layer metrics, read from spans the benchmark records around each call
// it makes into a layer, plus the tracing overhead. Inputs are generated
// from --seed; the program only ever sees the generated inputs.
//
// Load shape: every workload is a closed loop of two clients (two
// concurrent downloading peers, two ingest connections, or Workers = 2 in
// the simulator), all from this one process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// clients is the closed-loop client count of every workload.
const clients = 2

// workRoot is the scratch directory for stores and state, relative to the
// repository root the benchmark runs from.
const workRoot = ".bench_build/work"

// workload is one named set of generated inputs. The why strings are
// mirrored in BENCHMARK.json.
type workload struct {
	name string
	why  string
	// flash makes every live request of a round ask for the same object;
	// otherwise requests follow the simulator's Zipf popularity skew.
	flash bool
}

// workloads is the benchmark's workload table. Every run of every workload
// passes through every layer, in three phases that share the run's time:
//
//   - live: a cluster with memory-backed viewers streaming at a fixed
//     bitrate (peer, edge, CN, swarm and the playback-window scheduler);
//   - log pipeline: durable ingest of a fixed batch mix with resends, then
//     the offline analyzer over a prebuilt store;
//   - sim month: the default simulated month and the paper report.
//
// A traced run adds a fourth, the installed client's disk-backed download
// path (DiskStore, checkpoints, a durable CP log). Its timings follow the
// shared disk's fsync rate, which drifts by a fifth from minute to minute,
// so they are read per layer and never bounded.
//
// The workloads differ in the live phase's request popularity, the axis
// the paper's peer efficiency turns on: a long Zipf tail spreads viewers
// over the catalog and leans on the edge, a flash crowd puts every viewer
// of a round in one swarm.
var workloads = []*workload{
	{
		name: "stream-mem",
		why:  "viewers stream a Zipf-popular catalog from memory-backed peers; then durable log ingest, the analyzer and a simulated month",
	},
	{
		name:  "flash-crowd",
		why:   "every viewer of a round streams the same object, so the swarm carries most bytes; then the same log and simulator phases",
		flash: true,
	},
}

// Phase shares of a run's measured time. Each phase also runs a minimum
// number of rounds, so that a short run still yields every metric; on a
// 2-CPU box those minimums take about 40 s, and the shares of a 45 s run
// leave them that room. A faster machine runs more rounds in the shares.
const (
	liveShare = 0.30
	logShare  = 0.10
	simShare  = 0.30
)

// e2eMetrics and layerMetrics are what every workload reports with
// --trace 0 and --trace 1. A run measures more than it reports; the rest
// is printed in the table and left off the result line. The p90s of first-
// piece and stream-startup time are layer metrics: a viewer's first pieces
// come either from the edge or over a fresh swarm connection, the p90
// falls between the two, and across runs it spreads nearly as wide as the
// largest bound an end-to-end metric may have.
var (
	e2eMetrics = []string{"setup_s", "peak_rss_mb",
		"download_mbps_p50", "download_mbps_p10", "first_piece_ms_p50", "peer_offload_pct",
		"stream_startup_ms_p50", "analyze_records_per_s", "sim_month_s"}
	layerMetrics = []string{
		"content.put_ms_p50", "content.put_share", "content.get_ms_p50", "content.puts_per_piece", "content.write_bytes_per_piece",
		"first_piece_ms_p90", "peer.stage.authorize_ms", "peer.stage.manifest_ms", "peer.stage.edge-fetch_ms", "peer.stage.peer-lookup_ms",
		"peer.stage.swarm-connect_ms", "peer.stage.piece-transfer_ms", "peer.swarm_dials", "peer.swarm_dial_errors",
		"edge.request_ms_p50", "edge.bytes_per_download", "controlplane.login_ms_p50", "controlplane.query_ms_p50",
		"stream_startup_ms_p90", "streaming.edge_rescue_share", "streaming.deadline_misses_per_stream", "stream_rebuffer_ratio",
		"ingest_records_per_s", "ingest_batch_ms_p50", "ingest_batch_ms_p90",
		"logpipe.store_append_records_per_s", "logpipe.ack_mark_per_s", "logpipe.write_bytes_per_record",
		"logpipe.decode_records_per_s", "logpipe.tailer_records_per_s", "analysis.aggregate_share", "analysis.alloc_bytes_per_record",
		"analysis.report_s", "trace.generate_s", "sim.run_s", "sim.events_per_s", "sim.merge_wait_ms", "sim.shard_imbalance", "sim.heap_live_mb",
		"process.live.cpu_s_per_mb", "process.live.alloc_bytes_per_mb", "process.live.gc_cycles_per_mb",
		"process.logpipe.cpu_s_per_krec", "process.logpipe.alloc_bytes_per_krec", "process.logpipe.gc_cycles_per_krec",
		"process.sim.cpu_s_per_mevent", "process.sim.alloc_bytes_per_mevent", "process.sim.gc_cycles_per_mevent",
		"trace.overhead_pct"}
)

// units maps every metric the benchmark can report to its unit.
var units = map[string]string{
	"setup_s":               "s",
	"peak_rss_mb":           "MB",
	"download_mbps_p50":     "MB/s",
	"download_mbps_p10":     "MB/s",
	"first_piece_ms_p50":    "ms",
	"first_piece_ms_p90":    "ms",
	"peer_offload_pct":      "%",
	"stream_startup_ms_p50": "ms",
	"stream_startup_ms_p90": "ms",
	"stream_rebuffer_ratio": "ratio",
	"ingest_records_per_s":  "rec/s",
	"ingest_batch_ms_p50":   "ms",
	"ingest_batch_ms_p90":   "ms",
	"analyze_records_per_s": "rec/s",
	"sim_month_s":           "s",

	"content.put_ms_p50":                   "ms",
	"content.put_share":                    "ratio",
	"content.get_ms_p50":                   "ms",
	"content.puts_per_piece":               "ratio",
	"content.write_bytes_per_piece":        "B",
	"peer.stage.authorize_ms":              "ms",
	"peer.stage.manifest_ms":               "ms",
	"peer.stage.edge-fetch_ms":             "ms",
	"peer.stage.peer-lookup_ms":            "ms",
	"peer.stage.swarm-connect_ms":          "ms",
	"peer.stage.piece-transfer_ms":         "ms",
	"peer.swarm_dials":                     "count/download",
	"peer.swarm_dial_errors":               "count/download",
	"edge.request_ms_p50":                  "ms",
	"edge.bytes_per_download":              "B",
	"controlplane.login_ms_p50":            "ms",
	"controlplane.query_ms_p50":            "ms",
	"streaming.edge_rescue_share":          "ratio",
	"streaming.deadline_misses_per_stream": "count",
	"logpipe.store_append_records_per_s":   "rec/s",
	"logpipe.ack_mark_per_s":               "1/s",
	"logpipe.write_bytes_per_record":       "B",
	"logpipe.decode_records_per_s":         "rec/s",
	"logpipe.tailer_records_per_s":         "rec/s",
	"analysis.aggregate_share":             "ratio",
	"analysis.alloc_bytes_per_record":      "B",
	"analysis.report_s":                    "s",
	"trace.generate_s":                     "s",
	"sim.run_s":                            "s",
	"sim.events_per_s":                     "1/s",
	"sim.merge_wait_ms":                    "ms",
	"sim.shard_imbalance":                  "ratio",
	"sim.heap_live_mb":                     "MB",
	"process.live.cpu_s_per_mb":            "s/MB",
	"process.live.alloc_bytes_per_mb":      "B/MB",
	"process.live.gc_cycles_per_mb":        "1/MB",
	"process.logpipe.cpu_s_per_krec":       "s/krec",
	"process.logpipe.alloc_bytes_per_krec": "B/krec",
	"process.logpipe.gc_cycles_per_krec":   "1/krec",
	"process.sim.cpu_s_per_mevent":         "s/Mevent",
	"process.sim.alloc_bytes_per_mevent":   "B/Mevent",
	"process.sim.gc_cycles_per_mevent":     "1/Mevent",
	"trace.overhead_pct":                   "%",
	"rounds.live":                          "count",
	"rounds.logpipe":                       "count",
	"rounds.sim":                           "count",
	"rounds.disk":                          "count",
}

// env is one run's configuration and its collected results.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	// tiny shrinks every workload so the smoke tests run each code path
	// in seconds; the benchmark never sets it.
	tiny bool
	wl   *workload
	res  *result
	tr   *tracer
	// phase names the running phase; it prefixes round directories and
	// span IDs.
	phase string

	// setupS sums the phases' median set-up times; setupN counts the
	// set-ups measured.
	setupS float64
	setupN int
	// pairWall sums the wall time of untraced ([0]) and traced ([1])
	// rounds that ran the same inputs, for the tracing overhead.
	pairWall [2]time.Duration
	pairs    int
	// phaseWall is each phase's wall time, in the order they ran.
	phaseWall []phaseTime
}

type phaseTime struct {
	name string
	wall time.Duration
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// result collects a run's metrics, operation counts and failed checks.
type result struct {
	mu        sync.Mutex
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

// set records a metric; the unit comes from the units table.
func (r *result) set(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *result) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// check records a correctness check; a failed check fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.op(fmt.Errorf("check failed: "+format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1,
	}
	out, ok, err := runWorkload(wl, e, workRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	fmt.Print(out)
	if !ok {
		os.Exit(1)
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload runs one workload in a fresh scratch directory under workdir
// and renders its report. ok is false when a check or operation failed.
func runWorkload(wl *workload, e *env, workdir string) (out string, ok bool, err error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", false, err
	}
	dir, err := os.MkdirTemp(workdir, wl.name+"-")
	if err != nil {
		return "", false, err
	}
	defer os.RemoveAll(dir)
	e.workdir = dir
	e.wl = wl
	e.res = newResult()
	if e.trace {
		e.tr = newTracer()
	}
	if err := runPhases(e); err != nil {
		return "", false, err
	}
	e.res.set("peak_rss_mb", peakRSSMB(), 1)
	if e.tr != nil {
		spans := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, e.seed))
		if err := e.tr.write(spans); err != nil {
			return "", false, err
		}
	}
	return render(e)
}

// runPhases runs the workload's phases in order, each for its share of the
// run's time, and reports what spans them: the set-up time and the tracing
// overhead.
func runPhases(e *env) error {
	share := func(f float64) time.Duration { return time.Duration(f * float64(e.seconds)) }
	in, err := newLiveInputs(e)
	if err != nil {
		return err
	}
	type phase struct {
		name string
		run  func() error
	}
	phases := []phase{
		{"live", func() error { return runLive(e, in, share(liveShare)) }},
		{"logpipe", func() error { return runLogPipeline(e, share(logShare)) }},
		{"sim", func() error { return runSimMonth(e, share(simShare)) }},
	}
	if e.trace {
		phases = append(phases, phase{"disk", func() error { return runDiskProbe(e, in) }})
	}
	for _, ph := range phases {
		e.phase = ph.name
		t0 := time.Now()
		if err := ph.run(); err != nil {
			return fmt.Errorf("%s phase: %w", ph.name, err)
		}
		e.phaseWall = append(e.phaseWall, phaseTime{ph.name, time.Since(t0)})
	}
	e.res.set("setup_s", e.setupS, e.setupN)
	if e.pairWall[0] > 0 {
		e.res.set("trace.overhead_pct", 100*(e.pairWall[1]-e.pairWall[0]).Seconds()/e.pairWall[0].Seconds(), e.pairs)
	}
	return nil
}

// addSetup adds a phase's median set-up time to the run's setup_s: the
// set-up one pass through every phase needs.
func (e *env) addSetup(xs []float64) {
	e.setupS += median(xs)
	e.setupN += len(xs)
}

// render prints the human-readable metric table and the final JSON line.
func render(e *env) (string, bool, error) {
	r := e.res
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d trace %v\n", e.wl.name, e.seed, e.trace)
	for _, p := range e.phaseWall {
		fmt.Fprintf(&b, "phase %-8s %8.2f s\n", p.name, p.wall.Seconds())
	}
	if e.tr != nil {
		for _, l := range e.tr.selfTimes() {
			fmt.Fprintf(&b, "self-time %-14s %10.4f s  (%d spans)\n", l.layer, l.self.Seconds(), l.spans)
		}
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(&b, "metric %-38s %14.6g %-7s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, p := range r.problems {
		fmt.Fprintf(&b, "problem: %s\n", p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, n := range e.reported() {
		m, ok := r.metrics[n]
		if !ok {
			r.op(fmt.Errorf("metric %s was not measured", n))
			fmt.Fprintf(&b, "problem: metric %s was not measured\n", n)
			continue
		}
		out.Metrics[n] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		return "", false, err
	}
	b.Write(line)
	b.WriteByte('\n')
	return b.String(), out.Correct, nil
}

// rounds runs fn in rounds until budget is spent, and at least minRounds
// times; it stops only after a whole number of quantum rounds, so a phase
// whose inputs cycle every quantum rounds gives every run the same mix. In
// trace mode odd rounds are traced and even rounds are not, so
// the per-layer numbers and the untraced baseline for the overhead come
// from interleaved rounds of the same run; inputRound gives each traced
// round the inputs of the untraced round before it.
func (e *env) rounds(minRounds, quantum int, budget time.Duration, fn func(i int, traced bool) error) error {
	if e.trace && minRounds < 4 {
		minRounds = 4
	}
	start := time.Now()
	i := 0
	defer func() { e.res.set("rounds."+e.phase, float64(i), i) }()
	var untraced time.Duration
	for ; i < minRounds || time.Since(start) < budget || i%quantum != 0; i++ {
		traced := e.trace && i%2 == 1
		e.tr.enable(traced)
		t0 := time.Now()
		err := fn(i, traced)
		wall := time.Since(t0)
		e.tr.enable(false)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if traced {
			e.pairWall[0] += untraced
			e.pairWall[1] += wall
			e.pairs++
		}
		untraced = wall
		// Return the round's garbage before the next one, so every round
		// starts from the same heap and peak RSS is one round's peak.
		debug.FreeOSMemory()
	}
	return nil
}

// inputRound is the generator round for round i. In trace mode rounds come
// in untraced/traced pairs that draw the same inputs, so the tracing
// overhead compares like with like and both halves see every input round.
func (e *env) inputRound(i int) int {
	if e.trace {
		return i / 2
	}
	return i
}

// reported lists the metrics the run's result line carries.
func (e *env) reported() []string {
	if e.trace {
		return layerMetrics
	}
	return e2eMetrics
}

// tailMin is how many samples must lie beyond a reported tail percentile.
// Smoke-test runs are too small for any tail and only check that the
// metric is computed.
func (e *env) tailMin() int {
	if e.tiny {
		return 0
	}
	return minBeyondTail
}

// roundDir makes a fresh per-round scratch directory.
func (e *env) roundDir(i int) (string, error) {
	dir := filepath.Join(e.workdir, fmt.Sprintf("%s-round-%03d", e.phase, i))
	return dir, os.MkdirAll(dir, 0o755)
}
