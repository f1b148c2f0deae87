package replay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// Storage grows with its contents, and nothing a caller can observe may
// depend on that: these are the SHA-256 of one fixed script per shard
// count — adds (single, prioritized, batched) from empty through every
// growth step and several wrap-arounds of the ring, a snapshot
// hand-over to a fresh buffer taken mid-growth and again after the
// wrap, and between them every sampled reward, index and weight and the
// effect of every priority write-back. "prioritized" (one shard) was
// recorded at a5d8e5b on the single-tree buffer, where every buffer
// still reserved its whole capacity and its whole sum tree up front.
// "sharded" (four shards) was re-recorded when its sampler moved from
// per-shard RNG streams to the caller's RNG; 91c09c5's sampler with
// only that change gives the same hash. Both hold since the sum tree
// grew with its contents too (package doc, "Capacity is a bound, not a
// reservation", has why no sample can tell).
var growthFingerprints = map[string]string{
	"prioritized": "cc694777b1c86c22d19fc470cb9aca067e7c96ec786049c87cd53630a06c31bc",
	"sharded":     "16dd6bff978aee0d6017db87a5bfdab18273f080fc333534ab68b20055ca1f52",
}

// growthScript runs the fixed script on buf and returns its hash.
// handOver moves the contents into a fresh buffer through a snapshot
// and writes the snapshot's fields to the hash.
func growthScript(t *testing.T, buf *Prioritized, capacity int, handOver func(*Prioritized, func(...float64)) *Prioritized) string {
	t.Helper()
	h := sha256.New()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	const batch = 16
	script := rand.New(rand.NewSource(41)) // what to do next
	sampler := rand.New(rand.NewSource(43))
	samples, indices, weights := make([]Transition, 0, batch), make([]int, 0, batch), make([]float64, 0, batch)
	tdErrs := make([]float64, batch)
	added := 0
	next := func() Transition { added++; return tr(float64(added)) }
	handOvers := []int{capacity / 3, 2*capacity + capacity/2} // mid-growth, after the wrap
	for step := 0; added < 4*capacity; step++ {
		switch script.Intn(4) {
		case 0:
			buf.Add(next())
		case 1:
			buf.AddWithPriority(next(), 3*script.Float64())
		default:
			chunk := make([]Transition, 1+script.Intn(9))
			prios := make([]float64, script.Intn(len(chunk)+1))
			for i := range chunk {
				chunk[i] = next()
			}
			for i := range prios {
				prios[i] = 2 * script.Float64()
			}
			buf.AddBatch(chunk, prios)
		}
		put(float64(buf.Len()))
		if buf.Len() >= batch && step%3 == 0 {
			samples, indices, weights = buf.SampleInto(sampler, batch, samples, indices, weights)
			for i := range samples {
				put(samples[i].Reward, float64(indices[i]), weights[i])
				tdErrs[i] = 4*script.Float64() - 2
			}
			buf.UpdatePrioritiesBatch(indices, tdErrs[:len(indices)])
		}
		if len(handOvers) > 0 && added >= handOvers[0] {
			handOvers = handOvers[1:]
			buf = handOver(buf, put)
		}
	}
	handOver(buf, put)
	return hex.EncodeToString(h.Sum(nil))
}

func TestReplayGrowthParity(t *testing.T) {
	const capacity = 300 // not a power of two: the tree pads to 512
	check := func(name, got string) {
		t.Logf("%s fingerprint %s", name, got)
		if want := growthFingerprints[name]; got != want {
			t.Errorf("%s: growth fingerprint %s, recorded %s", name, got, want)
		}
	}
	// handOver moves b's snapshot into fresh() and hashes the fields
	// read off its layout, each stripe as the record the snapshot structs
	// once held — next, count, β (the buffer's for the single-tree
	// record, zero in a stripe's), the maximal priority, then every
	// row's reward and leaf — the sharded form after the buffer's β and
	// ingest cursor.
	handOver := func(t *testing.T, fresh func() *Prioritized, sharded bool) func(*Prioritized, func(...float64)) *Prioritized {
		return func(b *Prioritized, put func(...float64)) *Prioritized {
			st := snapshot(t, b)
			d := decodeSnapshot(t, st, capacity)
			recBeta := d.beta
			if sharded {
				put(d.beta, float64(d.ingest))
				recBeta = 0
			}
			for k := range d.count {
				put(float64(d.next[k]), float64(d.count[k]), recBeta, d.maxPrior[k])
				for i := range d.rewards[k] {
					put(d.rewards[k][i], d.leaves[k][i])
				}
			}
			p := fresh()
			if err := p.LoadState(st, trDim, trDim); err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	// A one-shard buffer replays the single-tree buffer's script: the
	// same draws from the sampler, and a snapshot whose one record,
	// with the buffer's β, is what the single-tree snapshot held.
	t.Run("prioritized", func(t *testing.T) {
		fresh := func() *Prioritized {
			p, err := NewPrioritized(capacity, 0.6, 0.4, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		check("prioritized", growthScript(t, fresh(), capacity, handOver(t, fresh, false)))
	})
	t.Run("sharded", func(t *testing.T) {
		fresh := func() *Prioritized {
			s, err := NewSharded(capacity, 4, 0.6, 0.4, 1e-3, 7)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		check("sharded", growthScript(t, fresh(), capacity, handOver(t, fresh, true)))
	})
}
