package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netsession/internal/content"
	"netsession/internal/telemetry"
)

// span is one call the benchmark made into a layer's public function. ID
// ties the spans of one download or one batch together; Parent is the index
// of the enclosing span, -1 for a root.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil or disabled tracer records nothing and costs one atomic load.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span and returns its handle, -1 when not tracing.
func (t *tracer) begin(layer, name, id string, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(layer, name, id string, parent int, start time.Time, d time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, ID: id, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// layerSelf is one layer's self time: the summed duration of its spans
// minus the parts of each covered by that span's children.
type layerSelf struct {
	layer string
	self  time.Duration
	spans int
}

func (t *tracer) selfTimes() []layerSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	by := make(map[string]*layerSelf)
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		var ivs [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self := s.End - s.Start - unionLen(ivs)
		ls := by[s.Layer]
		if ls == nil {
			ls = &layerSelf{layer: s.Layer}
			by[s.Layer] = ls
		}
		ls.self += time.Duration(self)
		ls.spans++
	}
	out := make([]layerSelf, 0, len(by))
	for _, ls := range by {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore wraps a peer's piece store. It always records when the first
// piece landed and when the first startup-many pieces were contiguous (the
// user-visible first-piece and stream-startup times); when the run is
// traced it also times every Put and Get as content-layer spans.
type timedStore struct {
	content.Store
	tr      *tracer
	id      string
	startup int

	mu         sync.Mutex
	first      time.Time
	startupAt  time.Time
	have       map[int]bool
	contig     int
	parent     int
	puts       int
	putTime    time.Duration
	putSamples []float64
	getSamples []float64
}

func newTimedStore(inner content.Store, tr *tracer, id string, startupPieces int) *timedStore {
	return &timedStore{Store: inner, tr: tr, id: id, startup: startupPieces, have: make(map[int]bool), parent: -1}
}

// setParent makes later Put spans children of the download span.
func (s *timedStore) setParent(i int) {
	s.mu.Lock()
	s.parent = i
	s.mu.Unlock()
}

func (s *timedStore) Put(m *content.Manifest, index int, data []byte) error {
	t0 := time.Now()
	err := s.Store.Put(m, index, data)
	d := time.Since(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.tr != nil && s.tr.on.Load() {
		s.putTime += d
		s.putSamples = append(s.putSamples, float64(d)/1e6)
		s.tr.record("content", "Store.Put", s.id, s.parent, t0, d)
	}
	if err != nil {
		return err
	}
	now := t0.Add(d)
	if s.first.IsZero() {
		s.first = now
	}
	s.have[index] = true
	for s.have[s.contig] {
		s.contig++
	}
	if s.startupAt.IsZero() && s.contig >= s.startup {
		s.startupAt = now
	}
	return nil
}

func (s *timedStore) Get(id content.ObjectID, index int) ([]byte, bool) {
	if s.tr == nil || !s.tr.on.Load() {
		return s.Store.Get(id, index)
	}
	t0 := time.Now()
	data, ok := s.Store.Get(id, index)
	d := time.Since(t0)
	s.tr.record("content", "Store.Get", s.id, -1, t0, d)
	s.mu.Lock()
	s.getSamples = append(s.getSamples, float64(d)/1e6)
	s.mu.Unlock()
	return data, ok
}

// firstPieceAt and startupDoneAt return the recorded instants (zero if the
// event never happened).
func (s *timedStore) firstPieceAt() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

func (s *timedStore) startupDoneAt() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startupAt
}

// fetchTelemetry reads a component's registry snapshot from its
// /v1/telemetry endpoint, the JSON twin of /metrics.
func fetchTelemetry(baseURL string) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := http.Get(baseURL + "/v1/telemetry")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s/v1/telemetry: %s", baseURL, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// histDelta is the histogram observed between two snapshots.
func histDelta(before, after telemetry.Snapshot, key string) telemetry.HistogramSnapshot {
	a := after.Histograms[key]
	b, ok := before.Histograms[key]
	if !ok || len(b.Buckets) != len(a.Buckets) {
		return a
	}
	out := telemetry.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Bounds: a.Bounds}
	out.Buckets = make([]int64, len(a.Buckets))
	for i := range a.Buckets {
		out.Buckets[i] = a.Buckets[i] - b.Buckets[i]
	}
	return out
}

// histQuantile estimates quantile q (0..1) of a bucketed histogram by
// linear interpolation inside the bucket that holds it, the usual
// Prometheus histogram_quantile rule. Inside the first bucket, whose lower
// edge is unknown, it reports the histogram's mean capped at the bucket's
// upper edge, which tracks the data where interpolation from zero would
// read the same constant on every run. ok is false for an empty histogram.
func histQuantile(h telemetry.HistogramSnapshot, q float64) (float64, bool) {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0, false
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == 0 {
				return min(h.Sum/float64(h.Count), h.Bounds[0]), true
			}
			lo := h.Bounds[i-1]
			if i >= len(h.Bounds) {
				return lo, true // +Inf bucket: report its lower edge
			}
			hi := h.Bounds[i]
			return lo + (hi-lo)*(rank-float64(cum))/float64(c), true
		}
		cum += c
	}
	return h.Bounds[len(h.Bounds)-1], true
}
