package analysis

import (
	"fmt"
	"strings"
)

// StreamingSummary is the live-analytics document served on GET
// /v1/analytics: the Aggregate.Streaming projection. It carries the raw
// mergeable state — tallies, sets, region rows and matrix, HyperLogLog
// sketches — so fleet views combine control planes exactly, plus the
// derived headline metrics.
type StreamingSummary struct {
	Tallies

	InterASUploads map[uint32]int64 `json:"interASUploads,omitempty"`

	CountrySet []string `json:"countrySet,omitempty"`
	ASSet      []uint32 `json:"asSet,omitempty"`

	Regions      []RegionAnalytics           `json:"regions,omitempty"`
	RegionMatrix map[string]map[string]int64 `json:"regionMatrix,omitempty"` // uploader region → downloader region → bytes

	GUIDSketch []byte `json:"guidSketch,omitempty"`
	URLSketch  []byte `json:"urlSketch,omitempty"`

	// Derived from the raw state above.
	ActiveGUIDs  float64 `json:"activeGUIDs"`
	DistinctURLs float64 `json:"distinctURLs"`
	DerivedMetrics
}

// RegionAnalytics is one region's row: its downloads' traffic, and the
// bytes its peers uploaded.
type RegionAnalytics struct {
	Region        string  `json:"region"`
	Downloads     int64   `json:"downloads"`
	BytesInfra    int64   `json:"bytesInfra"`
	BytesPeers    int64   `json:"bytesPeers"`
	BytesUploaded int64   `json:"bytesUploaded"`
	OffloadPct    float64 `json:"offloadPct"`
}

// aggregate decodes the document back into a bounded aggregate. It fails,
// before building anything, on a malformed sketch. A region's upload total
// is recomputed from the matrix, which carries the same bytes.
func (s *StreamingSummary) aggregate() (*Aggregate, error) {
	g, err := HLLFromBytes(s.GUIDSketch)
	if err != nil {
		return nil, err
	}
	u, err := HLLFromBytes(s.URLSketch)
	if err != nil {
		return nil, err
	}
	a := NewAggregate(Bounded)
	a.t = s.Tallies
	a.guidHLL, a.urlHLL = g, u
	for asn, b := range s.InterASUploads {
		a.perASUp[asn] = b
	}
	for _, c := range s.CountrySet {
		a.countries[c] = struct{}{}
	}
	for _, asn := range s.ASSet {
		a.ases[asn] = struct{}{}
	}
	for _, r := range s.Regions {
		reg := a.region(r.Region)
		reg.downloads, reg.bytesInfra, reg.bytesPeers = r.Downloads, r.BytesInfra, r.BytesPeers
	}
	for from, row := range s.RegionMatrix {
		for to, b := range row {
			a.region(to).receive(from, b)
		}
	}
	return a, nil
}

// Validate reports whether the document can be merged: its sketches must
// be well formed.
func (s *StreamingSummary) Validate() error {
	_, err := s.aggregate()
	return err
}

// Merge folds another document into this one — the monitor's fleet view
// over N control planes. Both are decoded into aggregates, merged, and
// projected back: tallies sum, GUID/URL sketches union (a peer reporting
// through two CPs counts once), and the derived metrics are recomputed.
// On a malformed document Merge returns an error and leaves s unchanged.
func (s *StreamingSummary) Merge(o *StreamingSummary) error {
	a, err := s.aggregate()
	if err != nil {
		return err
	}
	b, err := o.aggregate()
	if err != nil {
		return err
	}
	a.Merge(b)
	*s = a.Streaming()
	return nil
}

// humanBytes renders a byte count for the dashboard tables.
func humanBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// Render prints the live-analytics dashboard: the paper's Fig-style headline
// metrics, the per-region offload table (§4), and the AS-locality split
// (§6.1). Both `netsession-analyze -follow` and `netsession-report -live`
// print this block.
func (s StreamingSummary) Render() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("downloads: %d (%d infra-only, %d peer-assisted) by ~%.0f GUIDs over ~%.0f objects (%d countries, %d ASes)",
		s.Downloads, s.NInfra, s.NP2P, s.ActiveGUIDs, s.DistinctURLs, s.Countries, s.ASes)
	w("offload:   %.1f%% of %s served by peers (paper §4: ~70-80%% for p2p-enabled traffic)",
		s.OffloadPct, humanBytes(s.BytesAll))
	w("p2p-enabled files carry %.1f%% of bytes; peer efficiency mean %.1f%%, byte-weighted %.1f%% (paper: 57.4%% / 71.4%%)",
		s.PctBytesP2PFiles, s.MeanPeerEfficiencyPct, s.AggregatePeerEfficiencyPct)
	w("completion: infra-only %.1f%%, peer-assisted %.1f%%; aborted %.1f%% / %.1f%%",
		s.CompletionInfraPct, s.CompletionP2PPct, s.AbortInfraPct, s.AbortP2PPct)
	w("AS locality: intra-AS %s (%.1f%%), inter-AS %s; %d heavy ASes carry %.0f%% of inter-AS bytes",
		humanBytes(s.IntraASBytes), s.IntraASPct, humanBytes(s.InterASBytes),
		s.HeavyASes, s.HeavySharePct)
	if s.StreamDownloads > 0 {
		w("streaming: %d sessions, mean startup %.0fms, %d rebuffers (%dms paused), deadline misses %.2f%%, edge rescued %s",
			s.StreamDownloads, s.StreamStartupMeanMs, s.StreamRebufferEvents,
			s.StreamRebufferMs, s.StreamDeadlineMissPct, humanBytes(s.StreamEdgeRescueBytes))
	}
	if len(s.Regions) > 0 {
		w("")
		w("%-10s %10s %12s %12s %12s %9s", "region", "downloads", "infra-bytes", "peer-bytes", "uploaded", "offload")
		for _, r := range s.Regions {
			w("%-10s %10d %12s %12s %12s %8.1f%%",
				r.Region, r.Downloads, humanBytes(r.BytesInfra),
				humanBytes(r.BytesPeers), humanBytes(r.BytesUploaded), r.OffloadPct)
		}
	}
	return b.String()
}
