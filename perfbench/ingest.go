package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netsession"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
)

// logParams sizes one round of the log-pipeline phase.
type logParams struct {
	large    []int // catch-up batch sizes, one batch period each
	guids    int   // authorized GUID pool
	objects  int   // objects each GUID is authorized for
	prebuilt int   // records in the prebuilt store the analyzer reads
}

func logScale(tiny bool) logParams {
	if tiny {
		return logParams{large: []int{16}, guids: 4, objects: 2, prebuilt: 500}
	}
	// 717 records a round: 3 periods of 18 small batches, one catch-up
	// batch of 64, 160 and 256 records, and one resend.
	return logParams{large: []int{64, 160, 256}, guids: 32, objects: 4, prebuilt: 60_000}
}

// logMinRounds is the least number of rounds the phase makes: 120 POSTs,
// so ten or more batch latencies lie beyond the p90.
const logMinRounds = 2

// analyzeReps is how many analyzer passes each round makes over its
// prebuilt store. A pass takes under half a second, and from one pass to
// the next the host's speed swings by a fifth, so the median needs many.
const analyzeReps = 8

// logStats accumulates the phase's samples over a run's rounds.
type logStats struct {
	setup       []float64
	batchMs     []float64
	analyzeRate []float64 // per analyzer pass, records/s
	// Per-round ingest rates of the untraced rounds: a traced run reports
	// ingest as measured without tracing, beside the layer numbers.
	untracedIngest []float64

	// Traced rounds only.
	appendRate, ackRate, decodeRate, tailRate []float64
	aggShare                                  []float64
	writeBytes, allocBytes                    float64
	tracedRecords, tracedPrebuilt             int

	// Untraced rounds only.
	proc     procSample
	procKRec float64
	procRnds int
}

// runLogPipeline drives the log-pipeline phase. Segment append, the ack
// journal, dedup and the analyzer do all its work, and almost none is done
// by the other phases. Every ingested record waits on an fsync of the
// rewritten open segment, so the ingest rate and batch latency follow the
// disk's fsync rate: they are per-layer metrics, and only the analyzer
// rate, which reads a prebuilt store, is end to end.
func runLogPipeline(e *env, budget time.Duration) error {
	p := logScale(e.tiny)
	st := &logStats{}
	if err := e.rounds(logMinRounds, 1, budget, func(i int, traced bool) error { return logRound(e, st, p, i, traced) }); err != nil {
		return err
	}
	r := e.res
	e.addSetup(st.setup)
	r.set("ingest_records_per_s", median(st.untracedIngest), len(st.untracedIngest))
	r.set("ingest_batch_ms_p50", median(st.batchMs), len(st.batchMs))
	e.setTail("ingest_batch_ms_p90", st.batchMs, 90)
	r.set("analyze_records_per_s", median(st.analyzeRate), len(st.analyzeRate))
	if !e.trace {
		return nil
	}
	n := len(st.appendRate)
	r.set("logpipe.store_append_records_per_s", median(st.appendRate), n)
	r.set("logpipe.ack_mark_per_s", median(st.ackRate), n)
	r.set("logpipe.write_bytes_per_record", st.writeBytes/float64(st.tracedRecords), st.tracedRecords)
	r.set("logpipe.decode_records_per_s", median(st.decodeRate), n)
	r.set("logpipe.tailer_records_per_s", median(st.tailRate), n)
	r.set("analysis.aggregate_share", median(st.aggShare), n)
	r.set("analysis.alloc_bytes_per_record", st.allocBytes/float64(st.tracedPrebuilt), st.tracedPrebuilt)
	e.setProcMetrics("process.logpipe.", "krec", st.proc, st.procKRec, st.procRnds)
	return nil
}

// postedBatch is one planned POST with its encoded body.
type postedBatch struct {
	plan  batchPlan
	guid  id.GUID
	seq   uint64
	body  []byte
	acked chan struct{} // closed when an original is acknowledged
}

func logRound(e *env, st *logStats, p logParams, round int, traced bool) error {
	dir, err := e.roundDir(round)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in := e.inputRound(round)

	// Set-up: a durable control plane, the authorized GUID x object pool,
	// the prebuilt store the analyzer reads, and the encoded batches.
	setupStart := time.Now()
	cfg := netsession.DefaultClusterConfig()
	cfg.LogDir = filepath.Join(dir, "cplog")
	c, err := netsession.StartCluster(cfg)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	type grant struct {
		oid   content.ObjectID
		token []byte
	}
	guids := make([]id.GUID, p.guids)
	grants := make([][]grant, p.guids)
	r := rngFor(e.seed, "guids", in)
	ec := &edge.Client{BaseURL: c.EdgeURL()}
	var objs []*netsession.Object
	for j := 0; j < p.objects; j++ {
		obj, err := netsession.NewObject(6001, fmt.Sprintf("perfbench/logs/object-%d.bin", j), 1, 64<<10, 16<<10, true)
		if err != nil {
			return err
		}
		if err := c.Publish(obj); err != nil {
			return err
		}
		objs = append(objs, obj)
	}
	for g := range guids {
		r.Read(guids[g][:])
		guids[g][0] |= 1 // never the all-zero GUID the ingest refuses
		for _, obj := range objs {
			auth, err := ec.Authorize(guids[g], obj.ID)
			if err != nil {
				return err
			}
			grants[g] = append(grants[g], grant{oid: obj.ID, token: auth.Token})
		}
	}
	prebuiltDir := filepath.Join(dir, "prebuilt")
	want, err := buildStore(prebuiltDir, rngFor(e.seed, "prebuilt", in), p.prebuilt)
	if err != nil {
		return err
	}
	plans := genBatches(e.seed, in, p.guids, p.large)
	batches := make([]*postedBatch, len(plans))
	seqs := make([]uint64, p.guids)
	unique := 0
	for k, pl := range plans {
		if pl.resendOf >= 0 {
			o := batches[pl.resendOf]
			batches[k] = &postedBatch{plan: pl, guid: o.guid, seq: o.seq, body: o.body}
			continue
		}
		seqs[pl.guid]++
		lines := make([][]byte, pl.records)
		for i := range lines {
			gr := grants[pl.guid][r.Intn(len(grants[pl.guid]))]
			lines[i], err = json.Marshal(genEntry(r, guids[pl.guid], gr.oid, gr.token))
			if err != nil {
				return err
			}
		}
		body, err := logpipe.MarshalSegment(lines)
		if err != nil {
			return err
		}
		batches[k] = &postedBatch{plan: pl, guid: guids[pl.guid], seq: seqs[pl.guid], body: body, acked: make(chan struct{})}
		unique += pl.records
	}
	st.setup = append(st.setup, time.Since(setupStart).Seconds())

	// Phase 1: two ingest connections post the batches in order, a closed
	// loop. A resend waits until its original was acknowledged, as a
	// replaying uploader would.
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	url := c.ControlPlaneURL() + logpipe.BatchPath
	var (
		next     atomic.Int64
		accepted atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		lat      []float64
	)
	procBefore := sampleProc()
	start := time.Now()
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(batches) {
					return
				}
				b := batches[k]
				if b.plan.resendOf >= 0 {
					<-batches[b.plan.resendOf].acked
				}
				d, resp, err := postBatch(e, client, url, b)
				if err == nil {
					err = checkBatch(b, resp)
				}
				e.res.op(err)
				if b.acked != nil {
					close(b.acked)
				}
				accepted.Add(int64(resp.Accepted))
				mu.Lock()
				lat = append(lat, float64(d)/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ingestWall := time.Since(start)
	proc := sampleProc().sub(procBefore)

	got := accepted.Load()
	stored := c.ControlPlane().Metrics().Snapshot().Counters["logpipe_store_records_total"]
	e.res.check(got == int64(unique), "round %d: %d records accepted, want %d", round, got, unique)
	e.res.check(stored == got, "round %d: store holds %d records, %d accepted", round, stored, got)
	e.res.check(c.RejectedReports() == 0, "round %d: %d records rejected", round, c.RejectedReports())
	// The store probes of a traced round replay what the CP stored.
	var recs []analysis.OfflineDownload
	if traced {
		if recs, err = storedRecords(c); err != nil {
			return err
		}
	}
	// The deployment stops before the analyzer runs, as it does for the
	// offline tool, so no background work of the CP shares its CPUs.
	c.Close()
	closed = true

	// Phase 2: the offline analyzer over the prebuilt store, analyzeReps
	// times; every pass is one sample.
	allocBefore := sampleProc()
	var analyzeWall time.Duration
	records := 0
	for rep := 0; rep < analyzeReps; rep++ {
		sp := e.tr.begin("logpipe", "SummarizeStore", "", -1)
		t0 := time.Now()
		sum, err := logpipe.SummarizeStore(prebuiltDir, clients)
		d := time.Since(t0)
		e.tr.end(sp)
		e.res.op(err)
		if err != nil {
			continue
		}
		checkSummary(e, round, sum, want)
		st.analyzeRate = append(st.analyzeRate, float64(sum.Records)/d.Seconds())
		analyzeWall += d
		records += sum.Records
	}
	alloc := sampleProc().sub(allocBefore).allocBytes

	rate := float64(got) / ingestWall.Seconds()
	st.batchMs = append(st.batchMs, lat...)
	if !traced {
		st.untracedIngest = append(st.untracedIngest, rate)
		st.proc = st.proc.add(proc)
		st.procKRec += float64(got) / 1000
		st.procRnds++
		return nil
	}
	st.tracedRecords += int(got)
	st.writeBytes += float64(proc.writeBytes)
	st.tracedPrebuilt += records
	st.allocBytes += float64(alloc)
	return logProbes(e, st, recs, dir, prebuiltDir, batches, analyzeWall/analyzeReps)
}

// postBatch sends one batch and decodes the reply.
func postBatch(e *env, client *http.Client, url string, b *postedBatch) (time.Duration, logpipe.BatchResponse, error) {
	var br logpipe.BatchResponse
	key := b.guid.String() + "/" + strconv.FormatUint(b.seq, 10)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b.body))
	if err != nil {
		return 0, br, err
	}
	req.Header.Set(logpipe.HeaderGUID, b.guid.String())
	req.Header.Set(logpipe.HeaderSeq, strconv.FormatUint(b.seq, 10))
	req.Header.Set("Content-Type", "application/x-ndjson")
	sp := e.tr.begin("logpipe", "POST "+logpipe.BatchPath, key, -1)
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		e.tr.end(sp)
		return time.Since(t0), br, fmt.Errorf("batch %s: %w", key, err)
	}
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	d := time.Since(t0)
	e.tr.end(sp)
	if resp.StatusCode/100 != 2 {
		return d, logpipe.BatchResponse{}, fmt.Errorf("batch %s: %s", key, resp.Status)
	}
	if err != nil {
		return d, br, fmt.Errorf("batch %s: decode reply: %w", key, err)
	}
	return d, br, nil
}

// checkBatch verifies one acknowledgement: an original is accepted whole
// with nothing rejected, a resend is acknowledged as a duplicate.
func checkBatch(b *postedBatch, br logpipe.BatchResponse) error {
	key := b.guid.String() + "/" + strconv.FormatUint(b.seq, 10)
	if b.plan.resendOf >= 0 {
		if !br.Duplicate || br.Accepted != 0 {
			return fmt.Errorf("resend %s: reply %+v, want a duplicate ack", key, br)
		}
		return nil
	}
	if br.Duplicate || br.Accepted != b.plan.records || br.Rejected != 0 {
		return fmt.Errorf("batch %s: reply %+v, want %d accepted", key, br, b.plan.records)
	}
	return nil
}

// genEntry draws one client log record for an authorized GUID x object.
// Its infra bytes stay below 256 KiB, inside the accounting verifier's
// one-piece slack over what the edge served (nothing, for these GUIDs).
func genEntry(r *rand.Rand, g id.GUID, oid content.ObjectID, token []byte) *logpipe.Entry {
	start := 1_700_000_000_000 + r.Int63n(30*86_400_000)
	infra := r.Int63n(256 << 10)
	peers := r.Int63n(64 << 20)
	return &logpipe.Entry{
		Kind: logpipe.EntryKindDownload, GUID: g.String(), Object: logpipe.EncodeObjectID(oid),
		URLHash: fmt.Sprintf("url-%x", oid[:4]), CP: 6001, Size: infra + peers,
		StartMs: start, EndMs: start + 1000 + r.Int63n(600_000),
		BytesInfra: infra, BytesPeers: peers, Outcome: uint8(protocol.OutcomeCompleted),
		PeersReturned: r.Intn(40), Token: token,
	}
}

// storeTotals are the generator's known totals for the prebuilt store.
type storeTotals struct {
	records                int
	bytesInfra, bytesPeers int64
}

var regionNames = []string{"NA-East", "NA-West", "EU-West", "EU-East", "Asia-East", "Oceania"}

// buildStore writes n generated download records as a sealed segment
// store and returns their totals.
func buildStore(dir string, r *rand.Rand, n int) (storeTotals, error) {
	var t storeTotals
	w, err := logpipe.NewBulkWriter(dir, 0)
	if err != nil {
		return t, err
	}
	for i := 0; i < n; i++ {
		size := 1<<20 + r.Int63n(512<<20)
		peers := r.Int63n(size)
		d := analysis.OfflineDownload{
			GUID: fmt.Sprintf("%016x", r.Int63n(20_000)), IP: fmt.Sprintf("10.%d.%d.%d", r.Intn(256), r.Intn(256), r.Intn(256)),
			Country: "JP", ASN: uint32(1 + r.Intn(500)), Region: regionNames[r.Intn(len(regionNames))],
			Object: fmt.Sprintf("%064x", r.Int63n(5_000)), URLHash: fmt.Sprintf("url-%d", r.Intn(5_000)), CP: 6001,
			Size: size, P2PEnabled: r.Intn(3) > 0, StartMs: 1_700_000_000_000 + int64(i)*1000, EndMs: 1_700_000_060_000 + int64(i)*1000,
			BytesInfra: size - peers, BytesPeers: peers, Outcome: "completed", Peers: r.Intn(40),
		}
		if err := w.Append(&d); err != nil {
			return t, err
		}
		t.records++
		t.bytesInfra += d.BytesInfra
		t.bytesPeers += d.BytesPeers
	}
	return t, w.Close()
}

// checkSummary compares the analyzer's counts and byte totals with the
// generator's.
func checkSummary(e *env, round int, sum logpipe.StoreSummary, want storeTotals) {
	var infra, peers, n int64
	for _, row := range sum.Figures.RegionOffload() {
		infra += row.BytesInfra
		peers += row.BytesPeers
		n += row.Downloads
	}
	e.res.check(sum.Records == want.records && sum.Summary.Downloads == want.records && n == int64(want.records),
		"round %d: analyzer read %d records (%d downloads), want %d", round, sum.Records, sum.Summary.Downloads, want.records)
	e.res.check(infra == want.bytesInfra && peers == want.bytesPeers,
		"round %d: analyzer bytes infra %d peers %d, want %d and %d", round, infra, peers, want.bytesInfra, want.bytesPeers)
}

// storedRecords reads back every record the CP's durable store holds.
func storedRecords(c *netsession.Cluster) ([]analysis.OfflineDownload, error) {
	if err := c.LogStore().Flush(); err != nil {
		return nil, err
	}
	return logpipe.ReadDownloads(c.LogStore().Dir())
}

// logProbes runs the traced round's standalone layer probes: a segment
// store and an ack store fed phase 1's records and batch keys, the decoder
// and the tailer over the prebuilt store.
func logProbes(e *env, st *logStats, recs []analysis.OfflineDownload, dir, prebuiltDir string,
	batches []*postedBatch, analyzeWall time.Duration) error {
	store, err := logpipe.OpenStore(logpipe.StoreConfig{Dir: filepath.Join(dir, "probe-store")})
	if err != nil {
		return err
	}
	sp := e.tr.begin("logpipe", "Store.Append", "", -1)
	t0 := time.Now()
	off := 0
	for _, b := range batches {
		n := b.plan.records
		if n == 0 || off+n > len(recs) {
			continue
		}
		if err := store.Append(recs[off : off+n]...); err != nil {
			return err
		}
		off += n
	}
	appendWall := time.Since(t0)
	e.tr.end(sp)
	if err := store.Close(); err != nil {
		return err
	}
	st.appendRate = append(st.appendRate, float64(off)/appendWall.Seconds())

	acks, err := logpipe.OpenAckStore(logpipe.AckConfig{Dir: filepath.Join(dir, "probe-acks")})
	if err != nil {
		return err
	}
	sp = e.tr.begin("logpipe", "AckStore.Mark", "", -1)
	t0 = time.Now()
	marks := 0
	for _, b := range batches {
		if b.plan.resendOf < 0 {
			acks.Mark(b.guid.String() + "/" + strconv.FormatUint(b.seq, 10))
			marks++
		}
	}
	ackWall := time.Since(t0)
	e.tr.end(sp)
	if err := acks.Close(); err != nil {
		return err
	}
	st.ackRate = append(st.ackRate, float64(marks)/ackWall.Seconds())

	sp = e.tr.begin("logpipe", "ForEachDownload", "", -1)
	t0 = time.Now()
	n, err := logpipe.ForEachDownload(prebuiltDir, clients, func(*analysis.OfflineDownload) error { return nil })
	decodeWall := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	st.decodeRate = append(st.decodeRate, float64(n)/decodeWall.Seconds())
	st.aggShare = append(st.aggShare, 1-decodeWall.Seconds()/analyzeWall.Seconds())

	tl, err := logpipe.OpenTailer(logpipe.TailerConfig{Dir: prebuiltDir})
	if err != nil {
		return err
	}
	sp = e.tr.begin("logpipe", "Tailer.Poll", "", -1)
	t0 = time.Now()
	polled, err := tl.Poll()
	tailWall := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	e.res.check(len(polled) == n, "tailer read %d records, decoder %d", len(polled), n)
	st.tailRate = append(st.tailRate, float64(len(polled))/tailWall.Seconds())
	return nil
}
