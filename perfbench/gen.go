package main

import (
	"fmt"
	"math"
	"math/rand"

	"netsession"
	"netsession/internal/trace"
)

// Deterministic input generators. Every input a workload feeds the program
// is drawn here from the run's --seed (and the input round, see
// env.inputRound), so the same seed always produces the same inputs and a
// different seed a different but statistically alike set.

// rngFor derives an independent stream for one generator, seed and round.
func rngFor(seed int64, stream string, round int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

const mib = 1 << 20

// Live catalog geometry: 8-32 MiB objects. Every size appears once per
// catalog, so each seed carries the same bytes; the seed decides which
// object gets which size and which is most popular.
var (
	liveSizes     = []int64{8 * mib, 12 * mib, 16 * mib, 20 * mib, 24 * mib, 32 * mib}
	liveSizesTiny = []int64{1 * mib, 2 * mib}
)

const livePieceSize = 256 << 10

// genCatalog builds the live phase's catalog: one object per size, in a
// seeded order.
func genCatalog(seed int64, sizes []int64) ([]*netsession.Object, error) {
	r := rngFor(seed, "catalog", 0)
	order := r.Perm(len(sizes))
	out := make([]*netsession.Object, len(sizes))
	for i, j := range order {
		obj, err := netsession.NewObject(5001, fmt.Sprintf("perfbench/s%d/object-%d.bin", seed, i),
			1, sizes[j], livePieceSize, true)
		if err != nil {
			return nil, err
		}
		out[i] = obj
	}
	return out, nil
}

// liveRequest is one download: which catalog object, and for streaming
// viewers how many contiguous pieces must be buffered before playback.
type liveRequest struct {
	object        int
	startupPieces int
}

// genRequests draws round's request sequence. Popularity rank r is
// requested with weight 1/(1+r)^alpha, alpha being the simulator's
// catalog skew (trace.DefaultCatalogConfig, from the paper's Figure 3b).
// The number of requests per rank is the Zipf share of n, rounded by
// largest remainder, so every round carries the same mix. A flash crowd
// gives rank 0 all n requests. The rank of each object rotates with the
// round (every object takes every rank over len(catalog) rounds) and the
// seed shuffles the order. Startup buffers cycle through 2, 3 and 4
// pieces the same way.
func genRequests(seed int64, round, n, catalog int, flash bool) []liveRequest {
	r := rngFor(seed, "requests", round)
	alpha := trace.DefaultCatalogConfig().ZipfAlpha
	w := make([]float64, catalog)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += w[i]
	}
	counts := make([]int, catalog)
	rem := make([]float64, catalog)
	left := n
	for i := range w {
		share := float64(n) * w[i] / sum
		counts[i] = int(share)
		rem[i] = share - float64(counts[i])
		left -= counts[i]
	}
	if flash {
		clear(counts)
		counts[0], left = n, 0
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	shift := int(seed%int64(catalog)+int64(catalog)) + round
	out := make([]liveRequest, 0, n)
	for rank, c := range counts {
		for j := 0; j < c; j++ {
			out = append(out, liveRequest{object: (rank + shift) % catalog})
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].startupPieces = 2 + i%3
	}
	return out
}

// Ingest batch mix. A round is made of periods of batchPeriod POSTs: one
// catch-up batch (64-256 records), one byte-identical resend of a batch
// acked at least resendLag POSTs earlier (the uploader's crash-replay
// path), and otherwise a peer flushing after a download (1-8 records).
// Every round carries exactly the same batches; the seed only decides
// their order, which batch is resent and which GUID sends each, so the
// open segment fills identically on every seed and every commit.
const (
	batchPeriod = 20
	resendLag   = 8
)

// batchPlan is one POST of the ingest phase.
type batchPlan struct {
	guid     int // index into the GUID pool
	records  int // records in the batch (0 for a resend)
	resendOf int // index of the batch being resent, -1 for an original
}

// genBatches plans round's POSTs: one period per catch-up batch size in
// large.
func genBatches(seed int64, round, guids int, large []int) []batchPlan {
	r := rngFor(seed, "batches", round)
	var out []batchPlan
	small := 0
	for _, lg := range large {
		sizes := make([]int, 0, batchPeriod-1)
		sizes = append(sizes, lg)
		for len(sizes) < batchPeriod-1 {
			sizes = append(sizes, 1+small%8)
			small++
		}
		r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		resendAt := resendLag + r.Intn(batchPeriod-resendLag)
		for i, n := range sizes {
			if i == resendAt {
				out = append(out, resendPlan(r, out))
			}
			out = append(out, batchPlan{guid: r.Intn(guids), records: n, resendOf: -1})
		}
		if resendAt == len(sizes) {
			out = append(out, resendPlan(r, out))
		}
	}
	return out
}

// resendPlan picks an original at least resendLag POSTs back.
func resendPlan(r *rand.Rand, out []batchPlan) batchPlan {
	j := r.Intn(len(out) - resendLag + 1)
	for out[j].resendOf >= 0 {
		j--
	}
	return batchPlan{guid: out[j].guid, resendOf: j}
}

// simSeed is the simulator seed for a run's seed.
func simSeed(seed int64) int64 { return 1 + rngFor(seed, "sim", 0).Int63n(1<<31) }
