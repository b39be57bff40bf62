package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"netsession"
	"netsession/internal/analysis"
	"netsession/internal/geo"
	"netsession/internal/sim"
	"netsession/internal/trace"
)

// simScenario is the sim-month scenario for a run: the default month
// (20k peers, 100k downloads, 31 days) on two workers, seeded from --seed.
func simScenario(e *env) netsession.Scenario {
	cfg := sim.DefaultScenario()
	if e.tiny {
		cfg = sim.SmallScenario()
		cfg.NumPeers, cfg.TotalDownloads, cfg.Days = 1500, 3000, 5
	}
	cfg.Seed = simSeed(e.seed)
	cfg.Workers = clients
	return cfg
}

// simStats accumulates the sim-month phase's samples over a run's rounds.
type simStats struct {
	setup, total []float64
	digest       [sha256.Size]byte // round 0's log digest

	// Traced rounds only.
	runS, reportS, eventsPerS, mergeWait, imbalance, heapLive []float64

	// Untraced rounds only.
	proc     procSample
	procMEv  float64
	procRnds int
}

// runSimMonth drives the sim-month phase: what netsession-report runs. The
// trace generator, the engine, selection at scale and the in-memory
// analyses do its work; the live layers are bypassed entirely.
func runSimMonth(e *env, budget time.Duration) error {
	cfg := simScenario(e)
	st := &simStats{}
	// Two rounds at least, so the log digest is compared across two runs
	// of the same seed inside every benchmark run.
	if err := e.rounds(2, 1, budget, func(i int, traced bool) error { return simRound(e, st, cfg, i, traced) }); err != nil {
		return err
	}
	r := e.res
	e.addSetup(st.setup)
	r.set("sim_month_s", median(st.total), len(st.total))
	if !e.trace {
		return nil
	}
	n := len(st.runS)
	r.set("trace.generate_s", median(st.setup), len(st.setup))
	r.set("sim.run_s", median(st.runS), n)
	r.set("analysis.report_s", median(st.reportS), n)
	r.set("sim.events_per_s", median(st.eventsPerS), n)
	r.set("sim.merge_wait_ms", median(st.mergeWait), n)
	r.set("sim.shard_imbalance", median(st.imbalance), n)
	r.set("sim.heap_live_mb", median(st.heapLive), n)
	e.setProcMetrics("process.sim.", "mevent", st.proc, st.procMEv, st.procRnds)
	return nil
}

func simRound(e *env, st *simStats, cfg netsession.Scenario, round int, traced bool) error {
	// Set-up: the trace generator standalone with the scenario's seeds,
	// exactly as sim.Run derives them. It yields the request count the
	// simulated log must match.
	sp := e.tr.begin("trace", "generate", "", -1)
	t0 := time.Now()
	wantDownloads, err := generateTrace(cfg)
	setup := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	st.setup = append(st.setup, setup.Seconds())

	procBefore := sampleProc()
	start := time.Now()
	sp = e.tr.begin("sim", "Run", "", -1)
	res, err := sim.Run(cfg)
	runWall := time.Since(start)
	e.tr.end(sp)
	e.res.op(err)
	if err != nil {
		return nil
	}
	in := &analysis.Input{
		Log: res.Log, Pop: res.Pop, Catalog: res.Catalog,
		Atlas: res.Atlas, Scape: res.Scape, ControlPlaneServers: geo.NumRegions,
	}
	sp = e.tr.begin("analysis", "Report", "", -1)
	t1 := time.Now()
	report := analysis.Report(in, cfg.Days)
	reportWall := time.Since(t1)
	e.tr.end(sp)
	total := time.Since(start)
	proc := sampleProc().sub(procBefore)

	// Checks: one download record per generated request, a report that
	// covers every table, and the same encoded log on every round.
	e.res.check(len(res.Log.Downloads) == wantDownloads,
		"round %d: simulated %d downloads, generator made %d requests", round, len(res.Log.Downloads), wantDownloads)
	e.res.check(strings.Contains(report, "## Table 1") && len(report) > 1000, "round %d: report is incomplete", round)
	if round < 2 {
		// The first two rounds compare digests; later rounds skip the
		// encoding so the run spends its time simulating.
		digest, err := logDigest(res)
		if err != nil {
			return err
		}
		if round == 1 {
			e.res.check(digest == st.digest, "round %d: log digest %x differs from round 0's %x", round, digest[:8], st.digest[:8])
		}
		st.digest = digest
	}

	st.total = append(st.total, total.Seconds())
	if !traced {
		st.proc = st.proc.add(proc)
		st.procMEv += float64(res.Events) / 1e6
		st.procRnds++
		return nil
	}
	st.runS = append(st.runS, runWall.Seconds())
	st.reportS = append(st.reportS, reportWall.Seconds())
	st.eventsPerS = append(st.eventsPerS, float64(res.Events)/runWall.Seconds())
	st.mergeWait = append(st.mergeWait, res.Telemetry.Gauges["sim_merge_wait_ms"])
	var maxEv, sumEv float64
	for r := 0; r < geo.NumRegions; r++ {
		v := float64(res.Telemetry.Counters[fmt.Sprintf("sim_shard_events_total{region=%q}", geo.NetworkRegion(r).String())])
		sumEv += v
		maxEv = max(maxEv, v)
	}
	if sumEv > 0 {
		st.imbalance = append(st.imbalance, maxEv/(sumEv/geo.NumRegions))
	}
	st.heapLive = append(st.heapLive, heapLiveMB())
	runtime.KeepAlive(res)
	return nil
}

// generateTrace runs the trace generator with the seeds sim.Run derives
// from cfg.Seed and returns the number of generated requests.
func generateTrace(cfg netsession.Scenario) (int, error) {
	atlas := geo.GenerateAtlas(cfg.Atlas)
	scape := geo.NewEdgeScape(atlas)
	pop, err := trace.GeneratePopulation(atlas, scape, cfg.NumPeers, cfg.Seed+1)
	if err != nil {
		return 0, err
	}
	catCfg := cfg.Catalog
	catCfg.Seed = cfg.Seed + 2
	cat, err := trace.GenerateCatalog(catCfg)
	if err != nil {
		return 0, err
	}
	wl := cfg.Workload
	wl.Seed = cfg.Seed + 3
	wl.TotalDownloads = cfg.TotalDownloads
	wl.Days = cfg.Days
	reqs, err := trace.GenerateWorkload(pop, cat, wl)
	return len(reqs), err
}

// logDigest is the sha256 of the simulated log's JSON encoding, record by
// record, so the comparison never holds the whole encoding in memory.
func logDigest(res *sim.Result) ([sha256.Size]byte, error) {
	var out [sha256.Size]byte
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range res.Log.Downloads {
		if err := enc.Encode(&res.Log.Downloads[i]); err != nil {
			return out, err
		}
	}
	for i := range res.Log.Logins {
		if err := enc.Encode(&res.Log.Logins[i]); err != nil {
			return out, err
		}
	}
	for i := range res.Log.Registrations {
		if err := enc.Encode(&res.Log.Registrations[i]); err != nil {
			return out, err
		}
	}
	copy(out[:], h.Sum(nil))
	return out, nil
}
