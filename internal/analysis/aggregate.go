package analysis

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Every log analysis — the offline summary, the figure passes, the control
// plane's live analytics and the monitor's fleet view — folds the same
// OfflineDownload records into one Aggregate and projects its answer from
// there, so each fact is tallied in exactly one place. The state is integer
// tallies, per-AS upload bytes, country/AS sets, per-region rows with the
// region×region upload matrix, Figure 3a edge buckets and Figure 7 tallies:
// all bounded by the geography, not by the number of records. Only the
// distinct GUID/URL populations grow with the log, and the Mode decides how
// those are counted.

// Mode selects how an Aggregate counts distinct GUIDs and URLs.
type Mode uint8

const (
	// Exact keeps exact GUID and URL sets — the per-URL download counts
	// double as the URL set — plus one speed sample per completed download,
	// so distinct counts, speed medians and the Zipf fit are exact. Memory
	// grows with the distinct populations; the offline analyzer uses it.
	Exact Mode = iota
	// Bounded counts distinct GUIDs and URLs with HyperLogLog sketches
	// (within ~2%) and keeps no per-record samples, so memory is fixed by the
	// geography. The control plane's live analytics and follow mode use it;
	// the speed medians, Figure 3b and the Zipf fit stay empty.
	Bounded
)

// Tallies are an aggregate's plain sums, kept exactly and merged by
// addition. They are also the raw half of the /v1/analytics document, so a
// fleet view combines control planes without loss.
type Tallies struct {
	Downloads  int64 `json:"downloads"`
	NInfra     int64 `json:"nInfraOnly"`
	NP2P       int64 `json:"nP2P"`
	DoneInfra  int64 `json:"doneInfraOnly"`
	DoneP2P    int64 `json:"doneP2P"`
	AbortInfra int64 `json:"abortInfraOnly"`
	AbortP2P   int64 `json:"abortP2P"`

	BytesAll      int64 `json:"bytesAll"`
	BytesInfra    int64 `json:"bytesInfra"`
	BytesPeers    int64 `json:"bytesPeers"`
	BytesP2PFiles int64 `json:"bytesP2PFiles"`
	BytesPeersP2P int64 `json:"bytesPeersP2P"`

	// EffSum sums each p2p-enabled download's peer share in percent; it is
	// the one float tally, so merged sums agree to rounding only.
	EffSum float64 `json:"effSum"`
	EffN   int64   `json:"effN"`

	IntraASBytes int64 `json:"intraASBytes"`
	InterASBytes int64 `json:"interASBytes"`

	// Streaming-delivery sums over records carrying a stream sub-record.
	StreamDownloads       int64 `json:"streamDownloads"`
	StreamStartupSumMs    int64 `json:"streamStartupSumMs"`
	StreamRebufferEvents  int64 `json:"streamRebufferEvents"`
	StreamRebufferMs      int64 `json:"streamRebufferMs"`
	StreamDeadlineMisses  int64 `json:"streamDeadlineMisses"`
	StreamPiecesPlayed    int64 `json:"streamPiecesPlayed"`
	StreamEdgeRescueBytes int64 `json:"streamEdgeRescueBytes"`
}

func (t *Tallies) add(o *Tallies) {
	t.Downloads += o.Downloads
	t.NInfra += o.NInfra
	t.NP2P += o.NP2P
	t.DoneInfra += o.DoneInfra
	t.DoneP2P += o.DoneP2P
	t.AbortInfra += o.AbortInfra
	t.AbortP2P += o.AbortP2P
	t.BytesAll += o.BytesAll
	t.BytesInfra += o.BytesInfra
	t.BytesPeers += o.BytesPeers
	t.BytesP2PFiles += o.BytesP2PFiles
	t.BytesPeersP2P += o.BytesPeersP2P
	t.EffSum += o.EffSum
	t.EffN += o.EffN
	t.IntraASBytes += o.IntraASBytes
	t.InterASBytes += o.InterASBytes
	t.StreamDownloads += o.StreamDownloads
	t.StreamStartupSumMs += o.StreamStartupSumMs
	t.StreamRebufferEvents += o.StreamRebufferEvents
	t.StreamRebufferMs += o.StreamRebufferMs
	t.StreamDeadlineMisses += o.StreamDeadlineMisses
	t.StreamPiecesPlayed += o.StreamPiecesPlayed
	t.StreamEdgeRescueBytes += o.StreamEdgeRescueBytes
}

// DerivedMetrics are the paper's headline ratios, derived from an
// aggregate's tallies. OfflineSummary and StreamingSummary both embed them,
// so each ratio is computed once for both.
type DerivedMetrics struct {
	Countries                  int     `json:"countries"`
	ASes                       int     `json:"ases"`
	OffloadPct                 float64 `json:"offloadPct"`
	PctBytesP2PFiles           float64 `json:"pctBytesP2PFiles"`
	MeanPeerEfficiencyPct      float64 `json:"meanPeerEfficiencyPct"`
	AggregatePeerEfficiencyPct float64 `json:"aggregatePeerEfficiencyPct"`
	CompletionInfraPct         float64 `json:"completionInfraPct"`
	CompletionP2PPct           float64 `json:"completionP2PPct"`
	AbortInfraPct              float64 `json:"abortInfraPct"`
	AbortP2PPct                float64 `json:"abortP2PPct"`
	IntraASPct                 float64 `json:"intraASPct"`
	HeavyASes                  int     `json:"heavyASes"`
	HeavySharePct              float64 `json:"heavySharePct"`
	StreamStartupMeanMs        float64 `json:"streamStartupMeanMs"`
	StreamDeadlineMissPct      float64 `json:"streamDeadlineMissPct"` // misses per played piece
}

// RegionUnknown is the bucket for records without a region annotation
// (segments written before the region field existed, or IPs EdgeScape could
// not resolve).
const RegionUnknown = "unknown"

func regionName(name string) string {
	if name == "" {
		return RegionUnknown
	}
	return name
}

// fig3aEdges are the object sizes, in GB, at which Figure 3a's CDFs are
// drawn.
var fig3aEdges = LogSpace(0.01, 10, fig3aPoints)

const fig3aPoints = 25

// Download classes: the Figure 3a CDFs and the Figure 7 columns.
const (
	sizeInfra = iota
	sizeP2P
	sizeAll
)

// Aggregate is the one mergeable fold over download records. It is not safe
// for concurrent use; Sharded is its concurrent front.
type Aggregate struct {
	mode Mode
	t    Tallies

	perASUp   map[uint32]int64 // inter-AS upload bytes by uploading AS
	countries map[string]struct{}
	ases      map[uint32]struct{}
	regions   map[string]*regionTally

	// Figure 3a is evaluated only at the fixed edges a plot draws, so a
	// value v counts in the bucket of the smallest edge >= v (the last slot
	// holds values above every edge), and the CDF at edge k is the prefix
	// sum over the total. That is integer arithmetic over the same multiset
	// a sort-based CDF uses, so the points are bit-identical, not
	// approximate. p2pUpTo500MB backs the §4.4 ">500MB" headline, since
	// 0.5GB is not an edge.
	sizes        [3][fig3aPoints + 1]int64
	p2pUpTo500MB int64
	// Figure 7: [size class][infra-only, peer-assisted, all].
	fig7Aborted, fig7Total [numSizeClasses][3]int64

	// Exact mode.
	guids               map[string]struct{}
	perURL              map[string]int
	speedEdge, speedP2P []float64
	// Bounded mode.
	guidHLL, urlHLL *HLL
}

// regionTally is one downloader region's row. inbound holds the bytes its
// downloads received from peers, keyed by the uploaders' region: one column
// of the uploader→downloader region matrix. A region's upload total is
// therefore summed across the other regions' inbound maps, not tallied
// twice.
type regionTally struct {
	downloads, bytesInfra, bytesPeers int64
	inbound                           map[string]int64
}

func (r *regionTally) receive(from string, b int64) {
	if r.inbound == nil {
		r.inbound = map[string]int64{}
	}
	r.inbound[from] += b
}

// NewAggregate returns an empty aggregate counting distinct GUIDs and URLs
// the given way.
func NewAggregate(mode Mode) *Aggregate {
	a := &Aggregate{
		mode:      mode,
		perASUp:   map[uint32]int64{},
		countries: map[string]struct{}{},
		ases:      map[uint32]struct{}{},
		regions:   map[string]*regionTally{},
	}
	if mode == Exact {
		a.guids = map[string]struct{}{}
		a.perURL = map[string]int{}
	} else {
		a.guidHLL, a.urlHLL = NewHLL(), NewHLL()
	}
	return a
}

func (a *Aggregate) region(name string) *regionTally {
	r := a.regions[name]
	if r == nil {
		r = &regionTally{}
		a.regions[name] = r
	}
	return r
}

// Add folds one download record in.
func (a *Aggregate) Add(d *OfflineDownload) {
	t := &a.t
	t.Downloads++
	total := d.BytesInfra + d.BytesPeers
	t.BytesAll += total
	t.BytesInfra += d.BytesInfra
	t.BytesPeers += d.BytesPeers
	col := sizeInfra
	if d.P2PEnabled {
		col = sizeP2P
		t.NP2P++
		t.BytesP2PFiles += total
		t.BytesPeersP2P += d.BytesPeers
		if total > 0 {
			t.EffSum += 100 * float64(d.BytesPeers) / float64(total)
			t.EffN++
		}
	} else {
		t.NInfra++
	}
	switch d.Outcome {
	case "completed":
		if d.P2PEnabled {
			t.DoneP2P++
		} else {
			t.DoneInfra++
		}
		if dur := d.EndMs - d.StartMs; a.mode == Exact && dur > 0 && total > 0 {
			mbps := float64(total) * 8 / float64(dur) / 1000
			if d.BytesPeers == 0 {
				a.speedEdge = append(a.speedEdge, mbps)
			} else if float64(d.BytesPeers) >= 0.5*float64(total) {
				a.speedP2P = append(a.speedP2P, mbps)
			}
		}
	case "aborted":
		if d.P2PEnabled {
			t.AbortP2P++
		} else {
			t.AbortInfra++
		}
	}
	if st := d.Stream; st != nil {
		t.StreamDownloads++
		t.StreamStartupSumMs += st.StartupDelayMs
		t.StreamRebufferEvents += st.RebufferCount
		t.StreamRebufferMs += st.RebufferMs
		t.StreamDeadlineMisses += st.DeadlineMisses
		t.StreamPiecesPlayed += st.PiecesPlayed
		t.StreamEdgeRescueBytes += st.EdgeRescueBytes
	}

	if a.mode == Exact {
		a.guids[d.GUID] = struct{}{}
		a.perURL[d.URLHash]++
	} else {
		a.guidHLL.Add(d.GUID)
		a.urlHLL.Add(d.URLHash)
	}
	a.countries[d.Country] = struct{}{}
	a.ases[d.ASN] = struct{}{}

	gb := float64(d.Size) / 1e9
	k := sort.SearchFloat64s(fig3aEdges, gb)
	a.sizes[col][k]++
	a.sizes[sizeAll][k]++
	if d.P2PEnabled && gb <= 0.5 {
		a.p2pUpTo500MB++
	}
	sc := classifySize(d.Size)
	a.fig7Total[sc][col]++
	a.fig7Total[sc][sizeAll]++
	if d.Outcome == "aborted" {
		a.fig7Aborted[sc][col]++
		a.fig7Aborted[sc][sizeAll]++
	}

	reg := a.region(regionName(d.Region))
	reg.downloads++
	reg.bytesInfra += d.BytesInfra
	reg.bytesPeers += d.BytesPeers
	// Serving peers mostly share one region (the directory is
	// region-partitioned), so consecutive contributions from the same
	// region are summed before they touch the matrix.
	var from string
	var run int64
	for i := range d.FromPeers {
		pc := &d.FromPeers[i]
		if pc.ASN == d.ASN {
			t.IntraASBytes += pc.Bytes
		} else {
			t.InterASBytes += pc.Bytes
			a.perASUp[pc.ASN] += pc.Bytes
		}
		if i > 0 && pc.Region != from {
			reg.receive(regionName(from), run)
			run = 0
		}
		from = pc.Region
		run += pc.Bytes
	}
	if len(d.FromPeers) > 0 {
		reg.receive(regionName(from), run)
	}
}

// Records returns how many downloads have been added.
func (a *Aggregate) Records() int { return int(a.t.Downloads) }

// Merge folds another aggregate of the same mode into this one, as if its
// records had been added here. Everything but the EffSum float tally merges
// exactly; that is what lets sharded and multi-node passes reduce to one
// answer.
func (a *Aggregate) Merge(o *Aggregate) {
	if a.mode != o.mode {
		panic("analysis: merging aggregates of different modes")
	}
	a.t.add(&o.t)
	for asn, b := range o.perASUp {
		a.perASUp[asn] += b
	}
	maps.Copy(a.countries, o.countries)
	maps.Copy(a.ases, o.ases)
	for name, r := range o.regions {
		dst := a.region(name)
		dst.downloads += r.downloads
		dst.bytesInfra += r.bytesInfra
		dst.bytesPeers += r.bytesPeers
		for from, b := range r.inbound {
			dst.receive(from, b)
		}
	}
	for c := range a.sizes {
		for k := range a.sizes[c] {
			a.sizes[c][k] += o.sizes[c][k]
		}
	}
	a.p2pUpTo500MB += o.p2pUpTo500MB
	for sc := range a.fig7Total {
		for c := range a.fig7Total[sc] {
			a.fig7Aborted[sc][c] += o.fig7Aborted[sc][c]
			a.fig7Total[sc][c] += o.fig7Total[sc][c]
		}
	}
	if a.mode == Exact {
		maps.Copy(a.guids, o.guids)
		for u, c := range o.perURL {
			a.perURL[u] += c
		}
		a.speedEdge = append(a.speedEdge, o.speedEdge...)
		a.speedP2P = append(a.speedP2P, o.speedP2P...)
	} else {
		a.guidHLL.Merge(o.guidHLL)
		a.urlHLL.Merge(o.urlHLL)
	}
}

func pct(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func (a *Aggregate) derived() DerivedMetrics {
	t := &a.t
	m := DerivedMetrics{
		Countries:                  len(a.countries),
		ASes:                       len(a.ases),
		OffloadPct:                 pct(t.BytesPeers, t.BytesAll),
		PctBytesP2PFiles:           pct(t.BytesP2PFiles, t.BytesAll),
		AggregatePeerEfficiencyPct: pct(t.BytesPeersP2P, t.BytesP2PFiles),
		CompletionInfraPct:         pct(t.DoneInfra, t.NInfra),
		CompletionP2PPct:           pct(t.DoneP2P, t.NP2P),
		AbortInfraPct:              pct(t.AbortInfra, t.NInfra),
		AbortP2PPct:                pct(t.AbortP2P, t.NP2P),
		IntraASPct:                 pct(t.IntraASBytes, t.IntraASBytes+t.InterASBytes),
		StreamDeadlineMissPct:      pct(t.StreamDeadlineMisses, t.StreamPiecesPlayed),
	}
	if t.EffN > 0 {
		m.MeanPeerEfficiencyPct = t.EffSum / float64(t.EffN)
	}
	if t.StreamDownloads > 0 {
		m.StreamStartupMeanMs = float64(t.StreamStartupSumMs) / float64(t.StreamDownloads)
	}
	m.HeavyASes, m.HeavySharePct = heavyUploaders(a.perASUp)
	return m
}

// heavyUploaders counts the ASes covering 90% of inter-AS upload bytes and
// the share they carry.
func heavyUploaders(perASUp map[uint32]int64) (heavy int, sharePct float64) {
	var ups []int64
	var upTotal int64
	for _, b := range perASUp {
		ups = append(ups, b)
		upTotal += b
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i] > ups[j] })
	var cum int64
	for _, b := range ups {
		if upTotal > 0 && float64(cum) >= 0.9*float64(upTotal) {
			break
		}
		heavy++
		cum += b
	}
	if upTotal > 0 {
		sharePct = 100 * float64(cum) / float64(upTotal)
	}
	return heavy, sharePct
}

// sketches returns the distinct-GUID and distinct-URL sketches; an exact
// aggregate builds them from its sets.
func (a *Aggregate) sketches() (guids, urls *HLL) {
	if a.mode == Bounded {
		return a.guidHLL, a.urlHLL
	}
	guids, urls = NewHLL(), NewHLL()
	for g := range a.guids {
		guids.Add(g)
	}
	for u := range a.perURL {
		urls.Add(u)
	}
	return guids, urls
}

// Summary projects the offline summary. A bounded aggregate reports its
// distinct counts as rounded sketch estimates and no speed medians or Zipf
// fit.
func (a *Aggregate) Summary() OfflineSummary {
	t := &a.t
	s := OfflineSummary{
		Downloads:             int(t.Downloads),
		DerivedMetrics:        a.derived(),
		MedianSpeedEdgeMbps:   Percentile(a.speedEdge, 50),
		MedianSpeedP2PMbps:    Percentile(a.speedP2P, 50),
		StreamingDownloads:    int(t.StreamDownloads),
		StreamRebufferEvents:  t.StreamRebufferEvents,
		StreamRebufferMs:      t.StreamRebufferMs,
		StreamEdgeRescueBytes: t.StreamEdgeRescueBytes,
	}
	if a.mode == Exact {
		s.DistinctGUIDs, s.DistinctURLs = len(a.guids), len(a.perURL)
	} else {
		s.DistinctGUIDs = int(math.Round(a.guidHLL.Estimate()))
		s.DistinctURLs = int(math.Round(a.urlHLL.Estimate()))
	}
	f3b := a.Figure3b()
	if len(f3b.Counts) > 0 {
		s.TopObjectCount = f3b.Counts[0]
	}
	s.ZipfExponent = f3b.PowerLawSlope()
	return s
}

// Streaming projects the live-analytics document served on /v1/analytics.
func (a *Aggregate) Streaming() StreamingSummary {
	g, u := a.sketches()
	s := StreamingSummary{
		Tallies:        a.t,
		CountrySet:     sortedKeys(a.countries),
		ASSet:          sortedKeys(a.ases),
		Regions:        a.regionRows(),
		GUIDSketch:     g.Bytes(),
		URLSketch:      u.Bytes(),
		ActiveGUIDs:    g.Estimate(),
		DistinctURLs:   u.Estimate(),
		DerivedMetrics: a.derived(),
	}
	if len(a.perASUp) > 0 {
		s.InterASUploads = maps.Clone(a.perASUp)
	}
	for to, r := range a.regions {
		for from, b := range r.inbound {
			if s.RegionMatrix == nil {
				s.RegionMatrix = map[string]map[string]int64{}
			}
			if s.RegionMatrix[from] == nil {
				s.RegionMatrix[from] = map[string]int64{}
			}
			s.RegionMatrix[from][to] = b
		}
	}
	return s
}

func sortedKeys[K cmp.Ordered](m map[K]struct{}) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// regionRows returns one row per region that downloaded or uploaded,
// ordered by name.
func (a *Aggregate) regionRows() []RegionAnalytics {
	rows := map[string]*RegionAnalytics{}
	row := func(name string) *RegionAnalytics {
		r := rows[name]
		if r == nil {
			r = &RegionAnalytics{Region: name}
			rows[name] = r
		}
		return r
	}
	for name, r := range a.regions {
		ra := row(name)
		ra.Downloads, ra.BytesInfra, ra.BytesPeers = r.downloads, r.bytesInfra, r.bytesPeers
		for from, b := range r.inbound {
			row(from).BytesUploaded += b
		}
	}
	var out []RegionAnalytics
	for _, r := range rows {
		r.OffloadPct = pct(r.BytesPeers, r.BytesInfra+r.BytesPeers)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// RegionOffload returns the per-region traffic table, largest regions first.
func (a *Aggregate) RegionOffload() []RegionAnalytics {
	out := a.regionRows()
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].BytesInfra+out[i].BytesPeers > out[j].BytesInfra+out[j].BytesPeers
	})
	return out
}

func cdfPoints(buckets *[fig3aPoints + 1]int64) []Point {
	var total int64
	for _, b := range buckets {
		total += b
	}
	out := make([]Point, len(fig3aEdges))
	var cum int64
	for i, x := range fig3aEdges {
		cum += buckets[i]
		y := 0.0
		if total > 0 {
			// Grouped exactly like 100*CDF.FractionBelow so the points are
			// bit-identical to the batch pass, not merely close.
			y = 100 * (float64(cum) / float64(total))
		}
		out[i] = Point{X: x, Y: y}
	}
	return out
}

// Figure3a derives the size-CDF figure from the edge buckets.
func (a *Aggregate) Figure3a() Figure3a {
	var p2pN int64
	for _, b := range a.sizes[sizeP2P] {
		p2pN += b
	}
	frac := 0.0
	if p2pN > 0 {
		frac = float64(a.p2pUpTo500MB) / float64(p2pN)
	}
	return Figure3a{
		InfraOnly:                cdfPoints(&a.sizes[sizeInfra]),
		All:                      cdfPoints(&a.sizes[sizeAll]),
		PeerAssisted:             cdfPoints(&a.sizes[sizeP2P]),
		PctPeerAssistedOver500MB: 100 * (1 - frac),
	}
}

// Figure3b derives the popularity ranking from the per-URL counts; it is
// empty for a bounded aggregate.
func (a *Aggregate) Figure3b() Figure3b {
	counts := make([]int, 0, len(a.perURL))
	for _, c := range a.perURL {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	return Figure3b{Counts: counts}
}

// Figure7 derives the abort-rate table.
func (a *Aggregate) Figure7() Figure7 {
	var out Figure7
	for sc := range a.fig7Total {
		for c, n := range a.fig7Total[sc] {
			out.N[sc][c] = int(n)
			if n > 0 {
				out.PauseRatePct[sc][c] = 100 * float64(a.fig7Aborted[sc][c]) / float64(n)
			}
		}
	}
	return out
}

// RenderFigures prints the figure passes as text.
func (a *Aggregate) RenderFigures() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("figure 3a: %.1f%% of peer-assisted requests are for objects >500MB (paper: 82%%)",
		a.Figure3a().PctPeerAssistedOver500MB)
	f3b := a.Figure3b()
	top := 0
	if len(f3b.Counts) > 0 {
		top = f3b.Counts[0]
	}
	w("figure 3b: %d objects, top object %d downloads, Zipf exponent %.2f",
		len(f3b.Counts), top, f3b.PowerLawSlope())
	f7 := a.Figure7()
	w("figure 7 abort rate %% (infra / p2p / all):")
	for sc := range f7.N {
		w("  %-10s %6.2f / %6.2f / %6.2f  (n=%d)", SizeClass(sc),
			f7.PauseRatePct[sc][0], f7.PauseRatePct[sc][1], f7.PauseRatePct[sc][2], f7.N[sc][2])
	}
	w("per-region offload:")
	for _, row := range a.RegionOffload() {
		w("  %-14s %9d dls  infra %s  peers %s  offload %.1f%%", row.Region,
			row.Downloads, humanBytes(row.BytesInfra), humanBytes(row.BytesPeers), row.OffloadPct)
	}
	return b.String()
}

// Sharded is the concurrency-safe front of an Aggregate: records are routed
// to one of several independently locked aggregates by GUID hash, so
// parallel producers (segment decoders, control-plane session loops) never
// share one mutex. Routing by GUID, not by arrival, makes each shard's
// record multiset a pure function of the input, so the merged answer equals
// a sequential pass (EffSum to rounding).
type Sharded struct {
	shards []aggShard
}

type aggShard struct {
	mu  sync.Mutex
	agg *Aggregate
	// pad to a cache line so neighbouring shard locks don't false-share
	// under parallel Add storms.
	_ [48]byte
}

// NewSharded returns an empty sharded aggregate with four shards per
// GOMAXPROCS.
func NewSharded(mode Mode) *Sharded {
	return newSharded(mode, 4*runtime.GOMAXPROCS(0))
}

func newSharded(mode Mode, shards int) *Sharded {
	s := &Sharded{shards: make([]aggShard, shards)}
	for i := range s.shards {
		s.shards[i].agg = NewAggregate(mode)
	}
	return s
}

// Add folds one record in. Safe for concurrent use; records of the same
// GUID land on the same shard.
func (s *Sharded) Add(d *OfflineDownload) {
	sh := &s.shards[fnv64a(d.GUID)%uint64(len(s.shards))]
	sh.mu.Lock()
	sh.agg.Add(d)
	sh.mu.Unlock()
}

// Aggregate merges the shards into a new aggregate; adding may continue
// concurrently.
func (s *Sharded) Aggregate() *Aggregate {
	out := NewAggregate(s.shards[0].agg.mode)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Merge(sh.agg)
		sh.mu.Unlock()
	}
	return out
}

// DistinctGUIDs counts the distinct GUIDs seen so far without merging the
// rest of the state; the control plane's metrics gauge uses it. The shards
// hold disjoint GUIDs, so exact set sizes simply add.
func (s *Sharded) DistinctGUIDs() float64 {
	var n int
	var g *HLL
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.agg.mode == Exact {
			n += len(sh.agg.guids)
		} else {
			if g == nil {
				g = NewHLL()
			}
			g.Merge(sh.agg.guidHLL)
		}
		sh.mu.Unlock()
	}
	if g != nil {
		return g.Estimate()
	}
	return float64(n)
}
