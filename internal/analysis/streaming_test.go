package analysis

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// synthDownloads fabricates a deterministic, geo-annotated download set with
// peer contributions spanning several regions and ASes.
func synthDownloads(n int, seed int64) []OfflineDownload {
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"NA-East", "NA-West", "EU-West", "AS-NEA", "OC"}
	countries := []string{"US", "US", "DE", "JP", "AU"}
	out := make([]OfflineDownload, 0, n)
	for i := 0; i < n; i++ {
		ri := rng.Intn(len(regions))
		d := OfflineDownload{
			GUID:    fmt.Sprintf("guid-%04x", rng.Intn(n/2+1)),
			Country: countries[ri],
			ASN:     uint32(100 + rng.Intn(40)),
			Region:  regions[ri],
			URLHash: fmt.Sprintf("url-%03d", rng.Intn(200)),
			Size:    int64(rng.Intn(1 << 20)),
			StartMs: int64(i) * 1000,
			EndMs:   int64(i)*1000 + int64(rng.Intn(60_000)),
		}
		d.P2PEnabled = rng.Intn(3) > 0
		switch rng.Intn(10) {
		case 0:
			d.Outcome = "aborted"
		case 1:
			d.Outcome = "failed-system"
		default:
			d.Outcome = "completed"
		}
		d.BytesInfra = int64(rng.Intn(1 << 20))
		if d.P2PEnabled {
			nPeers := rng.Intn(4)
			for p := 0; p < nPeers; p++ {
				pi := rng.Intn(len(regions))
				pc := OfflineContribution{
					GUID:    fmt.Sprintf("guid-%04x", rng.Intn(n/2+1)),
					Country: countries[pi],
					ASN:     uint32(100 + rng.Intn(40)),
					Region:  regions[pi],
					Bytes:   int64(rng.Intn(1 << 18)),
				}
				d.FromPeers = append(d.FromPeers, pc)
				d.BytesPeers += pc.Bytes
			}
		}
		out = append(out, d)
	}
	return out
}

// requireEquivalent asserts the streaming/offline equivalence contract:
// count- and byte-derived metrics match exactly (floats to within float
// summation-order noise), cardinalities to the sketch's error budget.
func requireEquivalent(t *testing.T, off OfflineSummary, st StreamingSummary) {
	t.Helper()
	if int64(off.Downloads) != st.Downloads {
		t.Errorf("Downloads: offline %d, streaming %d", off.Downloads, st.Downloads)
	}
	if off.Countries != st.Countries || off.ASes != st.ASes {
		t.Errorf("geo dims: offline (%d countries, %d ASes), streaming (%d, %d)",
			off.Countries, off.ASes, st.Countries, st.ASes)
	}
	if off.HeavyASes != st.HeavyASes {
		t.Errorf("HeavyASes: offline %d, streaming %d", off.HeavyASes, st.HeavyASes)
	}
	closeEnough := func(name string, a, b float64) {
		t.Helper()
		if a == b {
			return
		}
		denom := math.Max(math.Abs(a), math.Abs(b))
		if math.Abs(a-b)/denom > 1e-9 {
			t.Errorf("%s: offline %v, streaming %v", name, a, b)
		}
	}
	closeEnough("CompletionInfraPct", off.CompletionInfraPct, st.CompletionInfraPct)
	closeEnough("CompletionP2PPct", off.CompletionP2PPct, st.CompletionP2PPct)
	closeEnough("AbortInfraPct", off.AbortInfraPct, st.AbortInfraPct)
	closeEnough("AbortP2PPct", off.AbortP2PPct, st.AbortP2PPct)
	closeEnough("PctBytesP2PFiles", off.PctBytesP2PFiles, st.PctBytesP2PFiles)
	closeEnough("MeanPeerEfficiencyPct", off.MeanPeerEfficiencyPct, st.MeanPeerEfficiencyPct)
	closeEnough("AggregatePeerEfficiencyPct", off.AggregatePeerEfficiencyPct, st.AggregatePeerEfficiencyPct)
	closeEnough("IntraASPct", off.IntraASPct, st.IntraASPct)
	closeEnough("HeavySharePct", off.HeavySharePct, st.HeavySharePct)
	sketchClose := func(name string, exact int, est float64) {
		t.Helper()
		if exact == 0 {
			if est != 0 {
				t.Errorf("%s: offline 0, streaming estimate %.1f", name, est)
			}
			return
		}
		if math.Abs(est-float64(exact))/float64(exact) > 0.02 {
			t.Errorf("%s: offline %d, streaming estimate %.1f (>2%% off)", name, exact, est)
		}
	}
	sketchClose("DistinctGUIDs", off.DistinctGUIDs, st.ActiveGUIDs)
	sketchClose("DistinctURLs", off.DistinctURLs, st.DistinctURLs)
}

// requireSameSummary checks a sharded or merged exact pass against the
// sequential one: integer fields exactly, float fields to 1e-9 relative
// (only the EffSum accumulation order differs).
func requireSameSummary(t *testing.T, got, want OfflineSummary) {
	t.Helper()
	var walk func(path string, g, w reflect.Value)
	walk = func(path string, g, w reflect.Value) {
		for i := 0; i < g.NumField(); i++ {
			name := path + g.Type().Field(i).Name
			switch gf, wf := g.Field(i), w.Field(i); gf.Kind() {
			case reflect.Struct:
				walk(name+".", gf, wf)
			case reflect.Int, reflect.Int64:
				if gf.Int() != wf.Int() {
					t.Errorf("%s: got %d, want %d", name, gf.Int(), wf.Int())
				}
			case reflect.Float64:
				if a, b := gf.Float(), wf.Float(); math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
					t.Errorf("%s: got %v, want %v", name, a, b)
				}
			default:
				t.Fatalf("%s: unhandled kind %s", name, gf.Kind())
			}
		}
	}
	walk("", reflect.ValueOf(got), reflect.ValueOf(want))
}

// equivalenceFixture is the shared input of the equivalence tests: a
// synthetic download set and its sequential SummarizeOffline.
func equivalenceFixture() ([]OfflineDownload, OfflineSummary) {
	dls := synthDownloads(20_000, 7)
	return dls, SummarizeOffline(dls)
}

// shardedRun feeds dls into a Sharded of the given shard count from the
// given number of concurrent producers.
func shardedRun(dls []OfflineDownload, shards, producers int) func(Mode) *Aggregate {
	return func(mode Mode) *Aggregate {
		s := newSharded(mode, shards)
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(dls); i += producers {
					s.Add(&dls[i])
				}
			}(w)
		}
		wg.Wait()
		return s.Aggregate()
	}
}

// equivalenceCase is one way of feeding the fixture into an aggregate.
type equivalenceCase struct {
	name string
	run  func(Mode) *Aggregate
}

// requireEquivalenceCases is the equivalence contract of the one
// aggregate: however the records are fed, the exact-mode summary matches
// the sequential SummarizeOffline, and the bounded-mode document matches it
// too (distinct counts within the sketch budget).
func requireEquivalenceCases(t *testing.T, want OfflineSummary, cases []equivalenceCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSameSummary(t, tc.run(Exact).Summary(), want)
			requireEquivalent(t, want, tc.run(Bounded).Streaming())
		})
	}
}

// TestStreamingEquivalenceSingleShard: one shard fed by one producer.
func TestStreamingEquivalenceSingleShard(t *testing.T) {
	dls, want := equivalenceFixture()
	requireEquivalenceCases(t, want, []equivalenceCase{
		{"1 shard", shardedRun(dls, 1, 1)},
	})
}

// TestStreamingEquivalenceSharded: GUID-routed shards, fed sequentially
// and by concurrent producers.
func TestStreamingEquivalenceSharded(t *testing.T) {
	dls, want := equivalenceFixture()
	requireEquivalenceCases(t, want, []equivalenceCase{
		{"16 shards", shardedRun(dls, 16, 1)},
		{"4 producers", shardedRun(dls, 8, 4)},
	})
}

// TestAggregateEquivalence: records split between two aggregates and
// merged, directly and through the JSON fleet path.
func TestAggregateEquivalence(t *testing.T) {
	dls, want := equivalenceFixture()
	requireEquivalenceCases(t, want, []equivalenceCase{
		{"A∪B merged", func(mode Mode) *Aggregate {
			a, b := NewAggregate(mode), NewAggregate(mode)
			for i := range dls {
				if i < len(dls)/3 {
					a.Add(&dls[i])
				} else {
					b.Add(&dls[i])
				}
			}
			a.Merge(b)
			return a
		}},
	})

	// The fleet path: two documents through JSON and StreamingSummary.Merge
	// must equal merging the aggregates directly.
	t.Run("JSON merge", func(t *testing.T) {
		a, b := NewAggregate(Bounded), NewAggregate(Bounded)
		for i := range dls {
			if i%2 == 0 {
				a.Add(&dls[i])
			} else {
				b.Add(&dls[i])
			}
		}
		var docs [2]StreamingSummary
		for i, agg := range []*Aggregate{a, b} {
			raw, err := json.Marshal(agg.Streaming())
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &docs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := docs[0].Merge(&docs[1]); err != nil {
			t.Fatal(err)
		}
		a.Merge(b)
		direct := a.Streaming()
		if !reflect.DeepEqual(docs[0], direct) {
			t.Errorf("merged documents differ from the merged aggregate:\n%+v\nvs\n%+v", docs[0], direct)
		}
		requireEquivalent(t, want, docs[0])
	})
}

// TestStreamingSummaryMergeAllOrNothing: a document with a malformed
// sketch must not be half-merged — Merge fails and the receiver keeps its
// tallies and headline metrics.
func TestStreamingSummaryMergeAllOrNothing(t *testing.T) {
	var fleet, good, bad StreamingSummary
	good.Downloads, good.BytesAll, good.BytesInfra, good.BytesPeers = 1, 100, 50, 50
	bad.Downloads, bad.BytesAll, bad.BytesInfra = 1, 100, 100
	bad.GUIDSketch = []byte{1, 2, 3}
	if err := fleet.Merge(&good); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Merge(&bad); err == nil {
		t.Fatal("merge accepted a 3-byte GUID sketch")
	}
	if fleet.BytesAll != 100 || fleet.Downloads != 1 || fleet.OffloadPct != 50 {
		t.Errorf("failed merge changed the fleet view: bytesAll %d, downloads %d, offload %.1f%%",
			fleet.BytesAll, fleet.Downloads, fleet.OffloadPct)
	}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a 3-byte GUID sketch")
	}
}

func TestStreamingRegionAggregates(t *testing.T) {
	dls := synthDownloads(5_000, 3)
	s := NewAggregate(Bounded)
	var wantInfra, wantPeers int64
	perRegionPeers := map[string]int64{}
	uploadedTotal := int64(0)
	for i := range dls {
		d := &dls[i]
		s.Add(d)
		wantInfra += d.BytesInfra
		wantPeers += d.BytesPeers
		perRegionPeers[d.Region] += d.BytesPeers
		for _, pc := range d.FromPeers {
			uploadedTotal += pc.Bytes
		}
	}
	sum := s.Streaming()
	if sum.BytesInfra != wantInfra || sum.BytesPeers != wantPeers {
		t.Fatalf("byte totals: got (%d, %d), want (%d, %d)",
			sum.BytesInfra, sum.BytesPeers, wantInfra, wantPeers)
	}
	wantOffload := 100 * float64(wantPeers) / float64(wantInfra+wantPeers)
	if math.Abs(sum.OffloadPct-wantOffload) > 1e-9 {
		t.Errorf("OffloadPct %.6f, want %.6f", sum.OffloadPct, wantOffload)
	}
	var regionPeers, regionUploaded, matrixTotal int64
	for _, r := range sum.Regions {
		if r.BytesPeers != perRegionPeers[r.Region] {
			t.Errorf("region %s peer bytes %d, want %d", r.Region, r.BytesPeers, perRegionPeers[r.Region])
		}
		regionPeers += r.BytesPeers
		regionUploaded += r.BytesUploaded
	}
	for _, row := range sum.RegionMatrix {
		for _, b := range row {
			matrixTotal += b
		}
	}
	if regionPeers != wantPeers {
		t.Errorf("per-region peer bytes sum %d, want %d", regionPeers, wantPeers)
	}
	// Every uploaded byte is attributed to exactly one (from, to) matrix cell
	// and one uploading region.
	if regionUploaded != uploadedTotal || matrixTotal != uploadedTotal {
		t.Errorf("upload attribution: regions %d, matrix %d, want %d",
			regionUploaded, matrixTotal, uploadedTotal)
	}
	if sum.IntraASBytes+sum.InterASBytes != uploadedTotal {
		t.Errorf("AS split %d+%d != %d", sum.IntraASBytes, sum.InterASBytes, uploadedTotal)
	}
}

func TestStreamingSummaryMergeFleet(t *testing.T) {
	all := synthDownloads(12_000, 19)
	// Split the log across two "control planes" and merge their summaries;
	// the fleet view must match one aggregate that saw everything.
	s1, s2, whole := newSharded(Bounded, 2), newSharded(Bounded, 2), newSharded(Bounded, 2)
	for i := range all {
		whole.Add(&all[i])
		if i%2 == 0 {
			s1.Add(&all[i])
		} else {
			s2.Add(&all[i])
		}
	}
	// Round-trip each part through JSON the way the monitor scrapes it.
	var a, b StreamingSummary
	for _, rt := range []struct {
		src StreamingSummary
		dst *StreamingSummary
	}{{s1.Aggregate().Streaming(), &a}, {s2.Aggregate().Streaming(), &b}} {
		raw, err := json.Marshal(rt.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, rt.dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(&b); err != nil {
		t.Fatal(err)
	}
	want := whole.Aggregate().Streaming()
	if a.Downloads != want.Downloads || a.BytesPeers != want.BytesPeers ||
		a.IntraASBytes != want.IntraASBytes || a.InterASBytes != want.InterASBytes {
		t.Fatalf("merged totals diverge: got (%d dl, %d peer, %d intra, %d inter), want (%d, %d, %d, %d)",
			a.Downloads, a.BytesPeers, a.IntraASBytes, a.InterASBytes,
			want.Downloads, want.BytesPeers, want.IntraASBytes, want.InterASBytes)
	}
	if a.ActiveGUIDs != want.ActiveGUIDs {
		t.Errorf("sketch union: merged %.1f, whole %.1f (must be identical registers)",
			a.ActiveGUIDs, want.ActiveGUIDs)
	}
	if a.Countries != want.Countries || a.ASes != want.ASes || a.HeavyASes != want.HeavyASes {
		t.Errorf("merged dims (%d, %d, %d) != whole (%d, %d, %d)",
			a.Countries, a.ASes, a.HeavyASes, want.Countries, want.ASes, want.HeavyASes)
	}
	if len(a.Regions) != len(want.Regions) {
		t.Fatalf("merged regions %d != whole %d", len(a.Regions), len(want.Regions))
	}
	for i := range a.Regions {
		if a.Regions[i] != want.Regions[i] {
			t.Errorf("region %s: merged %+v != whole %+v",
				a.Regions[i].Region, a.Regions[i], want.Regions[i])
		}
	}
}

func TestStreamingUnknownRegionBucket(t *testing.T) {
	s := NewAggregate(Bounded)
	s.Add(&OfflineDownload{GUID: "g", URLHash: "u", BytesInfra: 10, Outcome: "completed"})
	sum := s.Streaming()
	if len(sum.Regions) != 1 || sum.Regions[0].Region != RegionUnknown {
		t.Fatalf("unannotated record regions = %+v, want one %q bucket", sum.Regions, RegionUnknown)
	}
}

func TestStreamingRenderMentionsHeadlines(t *testing.T) {
	dls := synthDownloads(1_000, 5)
	s := NewAggregate(Bounded)
	for i := range dls {
		s.Add(&dls[i])
	}
	out := s.Streaming().Render()
	for _, want := range []string{"offload:", "intra-AS", "region", "NA-East"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}
