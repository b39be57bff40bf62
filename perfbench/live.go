package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netsession"
	"netsession/internal/content"
	"netsession/internal/peer"
	"netsession/internal/protocol"
	"netsession/internal/streaming"
	"netsession/internal/telemetry"
)

// streamBitrateBps is the live phase's playback rate, fixed once by
// calibration on a 2-CPU box: traced stream-mem runs of the benchmark's
// first commit played with 0 rebuffers at 50, 100 and 200 Mbps (200 Mbps
// missed one deadline in 144 streams on another run) and rebuffered at
// 400 Mbps. Half the highest clean rate keeps the workload about startup
// and delivery, not a saturated link; flash-crowd viewers play clean at it
// too.
const streamBitrateBps = 100_000_000

// liveCountry homes every live peer: the directory is region-partitioned,
// so a swarm only forms among peers of one region.
const liveCountry = "JP"

// liveParams sizes one round of a live phase.
type liveParams struct {
	sizes     []int64
	downloads int // downloads per round, shared by the two clients
}

func liveScale(tiny bool) liveParams {
	if tiny {
		return liveParams{sizes: liveSizesTiny, downloads: 4}
	}
	return liveParams{sizes: liveSizes, downloads: 16}
}

// liveRotations is the least number of popularity rotations a live phase
// makes: 12 rounds, 192 downloads on the full catalog.
const liveRotations = 2

// diskProbeRounds is how many disk-backed rounds a traced run makes.
const diskProbeRounds = 2

// liveStats accumulates a live phase's samples over its rounds.
type liveStats struct {
	mu sync.Mutex

	setup      []float64
	mbps       []float64
	firstPiece []float64
	startup    []float64
	bytesPeers int64
	bytesInfra int64

	streams      int
	rebufferMs   int64
	playedMs     float64
	rescueBytes  int64
	streamMisses int64
	streamBytes  int64

	// Traced rounds only.
	putSamples, getSamples []float64
	putTime, dlWall        time.Duration
	puts, pieces           int
	stages                 map[string][]float64
	logins                 []float64
	dials, dialErrors      int64
	edgeHist, queryHist    telemetry.HistogramSnapshot
	edgeBytes              int64
	tracedDownloads        int
	writeBytes             int64

	// Untraced rounds only.
	proc     procSample
	procMB   float64
	procRnds int
}

func newLiveStats() *liveStats { return &liveStats{stages: make(map[string][]float64)} }

// liveInputs are a run's live inputs: the catalog and the seeder's store,
// filled once per run with the synthetic bodies the edge serves and reused
// by every round's fresh seeder peer.
type liveInputs struct {
	p         liveParams
	catalog   []*netsession.Object
	seedStore content.Store
}

func newLiveInputs(e *env) (*liveInputs, error) {
	in := &liveInputs{p: liveScale(e.tiny), seedStore: content.NewMemStore()}
	var err error
	if in.catalog, err = genCatalog(e.seed, in.p.sizes); err != nil {
		return nil, err
	}
	for _, obj := range in.catalog {
		if err := fillStore(in.seedStore, obj); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// runLive drives the live phase: memory-backed viewers, streaming.
func runLive(e *env, in *liveInputs, budget time.Duration) error {
	st := newLiveStats()
	// A warm-up round, not measured: the process's first round pays for
	// heap growth and cold caches.
	e.tr.enable(false)
	if err := liveRound(e, newLiveStats(), in, false, -1, false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	debug.FreeOSMemory()
	// Whole popularity rotations: over len(catalog) rounds every object
	// takes every rank once, so every seed downloads the same sizes at the
	// same popularities. A run makes liveRotations of them at least, which
	// also leaves ten or more samples beyond each tail.
	minRounds := max(liveRotations*len(in.catalog), (e.tailMin()*10+in.p.downloads-1)/in.p.downloads)
	err := e.rounds(minRounds, len(in.catalog), budget, func(i int, traced bool) error {
		return liveRound(e, st, in, false, i, traced)
	})
	if err != nil {
		return err
	}
	st.report(e)
	return nil
}

// runDiskProbe drives a traced run's disk phase: the installed client's
// path, bulk downloads by fresh state-directory peers on the crash-safe
// DiskStore with per-download checkpoints, and a durable CP log. Every
// round is traced; the phase reports the content layer.
func runDiskProbe(e *env, in *liveInputs) error {
	st := newLiveStats()
	for i := 0; i < diskProbeRounds; i++ {
		e.tr.enable(true)
		err := liveRound(e, st, in, true, i, true)
		e.tr.enable(false)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		debug.FreeOSMemory()
	}
	e.res.set("rounds."+e.phase, diskProbeRounds, diskProbeRounds)
	st.reportContent(e)
	return nil
}

// fillStore puts every piece of obj's synthetic body into s.
func fillStore(s content.Store, obj *netsession.Object) error {
	m, err := content.SyntheticManifest(obj)
	if err != nil {
		return err
	}
	buf := make([]byte, obj.PieceSize)
	for i := 0; i < obj.NumPieces(); i++ {
		b := buf[:obj.PieceLength(i)]
		content.SyntheticBody(obj.ID, obj.PieceOffset(i), b)
		if err := s.Put(m, i, b); err != nil {
			return err
		}
	}
	return nil
}

// onlinePeer is a finished downloader that stays online to serve.
type onlinePeer struct {
	p   *netsession.Peer
	dir string
}

// liveRound runs one round: a fresh deployment and seeder, then the
// round's requests; disk selects the installed client's persistent peers.
func liveRound(e *env, st *liveStats, in *liveInputs, disk bool, round int, traced bool) error {
	catalog := in.catalog
	dir, err := e.roundDir(round)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: the deployment, the catalog at the edge, and a seeder whose
	// registrations have reached the directory.
	setupStart := time.Now()
	sp := e.tr.begin("netsession", "StartCluster", "", -1)
	cfg := netsession.DefaultClusterConfig()
	if disk {
		cfg.LogDir = filepath.Join(dir, "cplog")
	}
	c, err := netsession.StartCluster(cfg)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, obj := range catalog {
		if err := c.Publish(obj); err != nil {
			return err
		}
	}
	ip, err := c.AllocateIdentity(liveCountry)
	if err != nil {
		return err
	}
	seeder, err := netsession.NewPeer(netsession.PeerConfig{
		DeclaredIP: ip, ControlAddrs: c.ControlAddrs(), EdgeURL: c.EdgeURL(),
		UploadsEnabled: true, Store: in.seedStore,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := closePeer(seeder); err != nil {
			e.res.op(err)
		}
	}()
	if !waitFor(10*time.Second, func() bool {
		return c.ControlPlane().Metrics().Snapshot().Counters["cp_registers_total"] >= int64(len(catalog))
	}) {
		return fmt.Errorf("seeder registrations never reached the directory")
	}
	st.mu.Lock()
	st.setup = append(st.setup, time.Since(setupStart).Seconds())
	st.mu.Unlock()

	var edgeBefore, cpBefore telemetry.Snapshot
	if traced {
		if edgeBefore, err = fetchTelemetry(c.EdgeURL()); err != nil {
			return err
		}
		if cpBefore, err = fetchTelemetry(c.ControlPlaneURL()); err != nil {
			return err
		}
	}

	// Timed phase: two clients, each a closed loop over the shared
	// Zipf-ordered request sequence. Every download is a fresh peer, and
	// a finished peer stays online and serves the rest of the round.
	reqs := genRequests(e.seed, e.inputRound(round), in.p.downloads, len(catalog), e.wl.flash)
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		online []onlinePeer
		regs   []*telemetry.Registry
		stores []*timedStore
		pieces int
		bytes  float64
	)
	// Finished peers serve until the round ends; the deferred retirement
	// runs after every download of the round has finished.
	retire := func(op onlinePeer) {
		if err := closePeer(op.p); err != nil {
			e.res.op(err)
		}
		if op.dir != "" {
			os.RemoveAll(op.dir)
		}
	}
	defer func() {
		for _, op := range online {
			retire(op)
		}
	}()
	procBefore := sampleProc()
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				obj := catalog[reqs[k].object]
				out, err := liveDownload(e, c, dir, disk, obj, reqs[k], fmt.Sprintf("%s-r%d-d%d", e.phase, round, k))
				e.res.op(err)
				if err != nil {
					if out != nil && out.p != nil {
						mu.Lock()
						online = append(online, onlinePeer{p: out.p, dir: out.dir})
						mu.Unlock()
					}
					continue
				}
				st.add(out, obj, traced)
				mu.Lock()
				regs = append(regs, out.reg)
				stores = append(stores, out.store)
				pieces += obj.NumPieces()
				bytes += float64(obj.Size)
				online = append(online, onlinePeer{p: out.p, dir: out.dir})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	proc := sampleProc().sub(procBefore)

	// Checks: every usage report reached accounting, none was rejected.
	ok := waitFor(15*time.Second, func() bool { return len(c.AccountingLog().Downloads) >= len(reqs) })
	e.res.check(ok && len(c.AccountingLog().Downloads) == len(reqs),
		"round %d: accounting holds %d download records, want %d", round, len(c.AccountingLog().Downloads), len(reqs))
	e.res.check(c.RejectedReports() == 0, "round %d: %d usage reports rejected", round, c.RejectedReports())

	st.mu.Lock()
	defer st.mu.Unlock()
	if !traced {
		st.proc = st.proc.add(proc)
		st.procMB += bytes / 1e6
		st.procRnds++
		return nil
	}
	st.pieces += pieces
	st.writeBytes += proc.writeBytes
	for _, s := range stores {
		s.mu.Lock()
		st.getSamples = append(st.getSamples, s.getSamples...)
		s.mu.Unlock()
	}
	for _, r := range regs {
		snap := r.Snapshot()
		st.dials += snap.Counters["peer_swarm_dials_total"]
		st.dialErrors += snap.Counters["peer_swarm_dial_errors_total"]
	}
	edgeAfter, err := fetchTelemetry(c.EdgeURL())
	if err != nil {
		return err
	}
	cpAfter, err := fetchTelemetry(c.ControlPlaneURL())
	if err != nil {
		return err
	}
	st.edgeHist = mergeHist(st.edgeHist, histDelta(edgeBefore, edgeAfter, `edge_request_duration_ms{endpoint="data"}`))
	st.queryHist = mergeHist(st.queryHist, histDelta(cpBefore, cpAfter, "cp_query_duration_ms"))
	st.edgeBytes += edgeAfter.Counters["edge_bytes_served_total"] - edgeBefore.Counters["edge_bytes_served_total"]
	return nil
}

// liveResult is one finished download.
type liveResult struct {
	p       *netsession.Peer
	dir     string
	reg     *telemetry.Registry
	store   *timedStore
	res     *peer.Result
	mbps    float64
	first   float64 // ms
	startup float64 // ms, streaming only
	login   float64 // ms
	wall    time.Duration
	stages  []telemetry.StageSummary
}

// liveDownload starts a fresh peer and downloads obj on it. A returned
// result with a non-nil error is a failed download whose peer still has to
// be retired by the caller.
func liveDownload(e *env, c *netsession.Cluster, dir string, disk bool, obj *netsession.Object,
	req liveRequest, id string) (*liveResult, error) {
	ip, err := c.AllocateIdentity(liveCountry)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	pcfg := netsession.PeerConfig{
		DeclaredIP: ip, ControlAddrs: c.ControlAddrs(), EdgeURL: c.EdgeURL(),
		UploadsEnabled: true, Telemetry: reg,
	}
	var inner content.Store = content.NewMemStore()
	out := &liveResult{reg: reg}
	if disk {
		// The installed client: a state directory with the crash-safe
		// disk store and per-download checkpoints.
		out.dir = filepath.Join(dir, id)
		ds, err := content.OpenDiskStore(filepath.Join(out.dir, "content"), content.DiskStoreOptions{Telemetry: reg})
		if err != nil {
			return nil, err
		}
		inner = ds
		pcfg.StateDir = out.dir
	}
	out.store = newTimedStore(inner, e.tr, id, req.startupPieces)
	pcfg.Store = out.store

	loginStart := time.Now()
	sp := e.tr.begin("controlplane", "NewPeer", id, -1)
	p, err := netsession.NewPeer(pcfg)
	if err == nil && !p.WaitControlConnected(10*time.Second) {
		p.Close()
		err = fmt.Errorf("peer %s: control connection never came up", id)
	}
	e.tr.end(sp)
	if err != nil {
		if out.dir != "" {
			os.RemoveAll(out.dir)
		}
		return nil, err
	}
	out.p = p
	out.login = float64(time.Since(loginStart)) / 1e6

	var opts peer.DownloadOpts
	if !disk {
		opts.Streaming = &streaming.Config{BitrateBps: streamBitrateBps, StartupPieces: req.startupPieces}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	dsp := e.tr.begin("peer", "download", id, -1)
	out.store.setParent(dsp)
	start := time.Now()
	sp = e.tr.begin("peer", "DownloadWith", id, dsp)
	dl, err := p.DownloadWith(obj.ID, opts)
	e.tr.end(sp)
	if err != nil {
		e.tr.end(dsp)
		return out, fmt.Errorf("download %s: %w", id, err)
	}
	sp = e.tr.begin("peer", "Wait", id, dsp)
	res, err := dl.Wait(ctx)
	e.tr.end(sp)
	out.wall = time.Since(start)
	e.tr.end(dsp)
	if err != nil {
		return out, fmt.Errorf("download %s: %w", id, err)
	}
	if res.Outcome != protocol.OutcomeCompleted || !p.Store().Complete(obj.ID) {
		return out, fmt.Errorf("download %s: outcome %v, complete %v", id, res.Outcome, p.Store().Complete(obj.ID))
	}
	out.res = res
	out.mbps = float64(obj.Size) / 1e6 / out.wall.Seconds()
	if t := out.store.firstPieceAt(); !t.IsZero() {
		out.first = float64(t.Sub(start)) / 1e6
	}
	if t := out.store.startupDoneAt(); !t.IsZero() {
		out.startup = float64(t.Sub(start)) / 1e6
	}
	out.stages = dl.Trace().Stages()
	return out, nil
}

// add folds one download into the run's samples.
func (st *liveStats) add(o *liveResult, obj *netsession.Object, traced bool) {
	if o.res == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.mbps = append(st.mbps, o.mbps)
	st.firstPiece = append(st.firstPiece, o.first)
	st.bytesPeers += o.res.BytesPeers
	st.bytesInfra += o.res.BytesInfra
	if sm := o.res.Stream; sm != nil {
		st.streams++
		st.startup = append(st.startup, o.startup)
		st.rebufferMs += sm.RebufferMs
		pieceMs := float64(obj.PieceSize) * 8 * 1000 / float64(sm.BitrateBps)
		st.playedMs += float64(sm.PiecesPlayed) * pieceMs
		st.rescueBytes += sm.EdgeRescueBytes
		st.streamMisses += sm.DeadlineMisses
		st.streamBytes += obj.Size
	}
	if !traced {
		return
	}
	st.tracedDownloads++
	st.logins = append(st.logins, o.login)
	st.dlWall += o.wall
	s := o.store
	s.mu.Lock()
	st.puts += s.puts
	st.putTime += s.putTime
	st.putSamples = append(st.putSamples, s.putSamples...)
	s.mu.Unlock()
	for _, sg := range o.stages {
		if sg.Count > 0 {
			st.stages[sg.Name] = append(st.stages[sg.Name], float64(sg.Total)/1e6)
		}
	}
}

// report sets the live phase's metrics: the user-visible ones from every
// round, the streaming, peer, edge and control-plane layers from the
// traced rounds.
func (st *liveStats) report(e *env) {
	r := e.res
	n := len(st.mbps)
	e.addSetup(st.setup)
	r.set("download_mbps_p50", median(st.mbps), n)
	r.set("first_piece_ms_p50", median(st.firstPiece), n)
	e.setTail("download_mbps_p10", st.mbps, 10)
	e.setTail("first_piece_ms_p90", st.firstPiece, 90)
	if all := st.bytesPeers + st.bytesInfra; all > 0 {
		r.set("peer_offload_pct", 100*float64(st.bytesPeers)/float64(all), n)
	}
	r.set("stream_startup_ms_p50", median(st.startup), len(st.startup))
	e.setTail("stream_startup_ms_p90", st.startup, 90)
	ratio := 0.0
	if st.playedMs > 0 {
		ratio = float64(st.rebufferMs) / st.playedMs
	}
	r.set("stream_rebuffer_ratio", ratio, st.streams)
	if st.streams > 0 {
		r.set("streaming.edge_rescue_share", float64(st.rescueBytes)/float64(st.streamBytes), st.streams)
		r.set("streaming.deadline_misses_per_stream", float64(st.streamMisses)/float64(st.streams), st.streams)
	}
	if !e.trace {
		return
	}
	for _, name := range []string{telemetry.StageAuthorize, telemetry.StageManifest, telemetry.StageEdgeFetch,
		telemetry.StagePeerLookup, telemetry.StageSwarmConnect, telemetry.StagePieceTransfer} {
		xs := st.stages[name]
		r.set("peer.stage."+name+"_ms", median(xs), len(xs))
	}
	edgeP50, _ := histQuantile(st.edgeHist, 0.5)
	r.set("edge.request_ms_p50", edgeP50, int(st.edgeHist.Count))
	if n := st.tracedDownloads; n > 0 {
		r.set("peer.swarm_dials", float64(st.dials)/float64(n), n)
		r.set("peer.swarm_dial_errors", float64(st.dialErrors)/float64(n), n)
		r.set("edge.bytes_per_download", float64(st.edgeBytes)/float64(n), n)
	}
	r.set("controlplane.login_ms_p50", median(st.logins), len(st.logins))
	qP50, _ := histQuantile(st.queryHist, 0.5)
	r.set("controlplane.query_ms_p50", qP50, int(st.queryHist.Count))
	e.setProcMetrics("process.live.", "mb", st.proc, st.procMB, st.procRnds)
}

// reportContent sets the content layer's metrics from the disk phase.
func (st *liveStats) reportContent(e *env) {
	r := e.res
	r.set("content.put_ms_p50", median(st.putSamples), len(st.putSamples))
	if st.dlWall > 0 {
		r.set("content.put_share", st.putTime.Seconds()/st.dlWall.Seconds(), st.tracedDownloads)
	}
	r.set("content.get_ms_p50", median(st.getSamples), len(st.getSamples))
	if st.pieces > 0 {
		r.set("content.puts_per_piece", float64(st.puts)/float64(st.pieces), st.pieces)
		r.set("content.write_bytes_per_piece", float64(st.writeBytes)/float64(st.pieces), st.pieces)
	}
}

// setTail reports a tail percentile when the run has enough samples
// beyond it. Otherwise a tail the result line carries fails the run's
// check rather than be read off a handful of outliers.
func (e *env) setTail(name string, xs []float64, p float64) {
	v, err := tailPercentile(xs, p, e.tailMin())
	if err != nil {
		e.res.check(!slices.Contains(e.reported(), name), "%s: %v", name, err)
		return
	}
	e.res.set(name, v, len(xs))
}

// mergeHist adds histogram b into a (a may be empty).
func mergeHist(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if a.Count == 0 && len(a.Buckets) == 0 {
		return b
	}
	if len(a.Buckets) != len(b.Buckets) {
		return a
	}
	out := telemetry.HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Bounds: a.Bounds,
		Buckets: make([]int64, len(a.Buckets))}
	for i := range a.Buckets {
		out.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	return out
}

// closePeer closes a peer and reports a panic inside Close as an error, so
// that a defect in shutdown is counted as a failed operation of the run
// instead of killing it.
func closePeer(p *netsession.Peer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("peer Close panicked: %v", r)
		}
	}()
	p.Close()
	return nil
}

// waitFor polls cond every 10ms until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}
