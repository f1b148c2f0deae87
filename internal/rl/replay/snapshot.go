package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// A snapshot moves a buffer's contents through a checkpoint: every
// stripe's transitions with their sum-tree leaves (the priorities
// already raised to α — restored verbatim, the sampling distribution is
// bit-identical without recomputing any math.Pow), β and the ingest
// cursor. Sampling draws from the caller's RNG, so a restored buffer
// given the same RNG draws what the saved one would have. Layout,
// little-endian, at the caller's widths S (state) and A (action):
//
//	uint32 K, the stripe count; float64 β; uint64 the ingest cursor
//	K × (int64 count, int64 next, float64 the maximal raw priority)
//	each stripe's slots [0, count) in order (a ring wraps only when
//	full, so these are the live ones), each a row of 8·(2S+A+2)+1
//	bytes: float64 leaf; float64 × S state, × A action, reward, × S
//	next state; byte done

const (
	snapshotHeaderLen = 4 + 8 + 8
	stripeHeaderLen   = 8 + 8 + 8
)

// rowLen is the bytes one stored transition takes.
func rowLen(stateDim, actionDim int) int { return 8*(2*stateDim+actionDim+2) + 1 }

// AppendState appends the buffer's snapshot, one stripe lock at a time
// (ingest keeps flowing; per-stripe consistency is all a crash-recovery
// checkpoint needs). A transition of other widths is an error.
func (p *Prioritized) AppendState(dst []byte, stateDim, actionDim int) ([]byte, error) {
	le := binary.LittleEndian
	// binary.Append fails only on data of no fixed size.
	f64 := func(vs ...float64) { dst, _ = binary.Append(dst, le, vs) }
	p.sampleMu.Lock()
	beta := p.beta
	p.sampleMu.Unlock()
	dst = le.AppendUint32(dst, uint32(len(p.shards)))
	f64(beta)
	dst = le.AppendUint64(dst, p.ingest.Load())
	headers := len(dst)
	dst = append(dst, make([]byte, stripeHeaderLen*len(p.shards))...)
	for k := range p.shards {
		sh := &p.shards[k]
		sh.mu.Lock()
		h := dst[headers+stripeHeaderLen*k:]
		le.PutUint64(h, uint64(sh.count))
		le.PutUint64(h[8:], uint64(sh.next))
		le.PutUint64(h[16:], math.Float64bits(sh.maxPrior))
		for i, t := range sh.data[:sh.count] {
			if len(t.State) != stateDim || len(t.Action) != actionDim || len(t.NextState) != stateDim {
				sh.mu.Unlock()
				return nil, fmt.Errorf("replay: a stored transition is %d/%d/%d wide, not %d/%d/%d",
					len(t.State), len(t.Action), len(t.NextState), stateDim, actionDim, stateDim)
			}
			f64(sh.tree.get(i))
			f64(t.State...)
			f64(t.Action...)
			f64(t.Reward)
			f64(t.NextState...)
			dst, _ = binary.Append(dst, le, t.Done)
		}
		sh.mu.Unlock()
	}
	return dst, nil
}

// SplitState checks the snapshot at the front of b, bytes from a file,
// for a buffer of capacity transitions at these widths, and returns it,
// its stripe count and the bytes after it, allocating nothing. Every
// stripe's fill level must fit, its cursor be where a ring of that fill
// level has it (next == count until the ring is full, then 0 ≤ next <
// capacity; anything else indexes outside the storage at the next Add),
// its rows be present, every done byte 0 or 1 and no leaf NaN or < 0.
func SplitState(b []byte, capacity, stateDim, actionDim int) (state []byte, stripes int, rest []byte, err error) {
	le := binary.LittleEndian
	if len(b) < snapshotHeaderLen {
		return nil, 0, nil, errors.New("replay: snapshot is truncated")
	}
	k := uint64(le.Uint32(b))
	if k == 0 || k > uint64(capacity) || k > uint64(len(b)-snapshotHeaderLen)/stripeHeaderLen {
		return nil, 0, nil, fmt.Errorf("replay: snapshot of %d stripes for a buffer of capacity %d in %d bytes", k, capacity, len(b))
	}
	stripeCap := (uint64(capacity) + k - 1) / k
	body := b[snapshotHeaderLen+stripeHeaderLen*k:]
	var rows uint64 // at most capacity
	for h := b[snapshotHeaderLen:]; len(h) > len(body); h = h[stripeHeaderLen:] {
		count, next := le.Uint64(h), le.Uint64(h[8:])
		if count > stripeCap || count < stripeCap && next != count || count == stripeCap && next >= stripeCap {
			return nil, 0, nil, fmt.Errorf("replay: snapshot stripe of %d transitions with its cursor at %d does not fit a ring of %d",
				int64(count), int64(next), stripeCap)
		}
		rows += count
	}
	width := uint64(rowLen(stateDim, actionDim))
	if hi, size := bits.Mul64(rows, width); hi != 0 || size > uint64(len(body)) {
		return nil, 0, nil, errors.New("replay: snapshot is truncated")
	}
	for row := body[:rows*width]; len(row) > 0; row = row[width:] {
		if leaf := math.Float64frombits(le.Uint64(row)); math.IsNaN(leaf) || leaf < 0 || row[width-1] > 1 {
			return nil, 0, nil, errors.New("replay: snapshot row with a NaN or negative leaf or a done byte other than 0 or 1")
		}
	}
	end := len(b) - len(body) + int(rows*width)
	return b[:end], int(k), b[end:], nil
}

// LoadState restores a snapshot, checked whole as SplitState checks it
// before the first stripe is written, into this still empty buffer of
// the snapshot's stripe count. A stripe's transitions share one backing
// array, which nothing writes: a slot is only ever replaced whole.
func (p *Prioritized) LoadState(state []byte, stateDim, actionDim int) error {
	if p.count.Load() != 0 {
		return errors.New("replay: restore target already holds experience")
	}
	state, stripes, rest, err := SplitState(state, p.shardCap*len(p.shards), stateDim, actionDim)
	switch {
	case err != nil:
		return err
	case stripes != len(p.shards) || len(rest) != 0:
		return fmt.Errorf("replay: a snapshot of %d stripes and %d bytes more for a buffer of %d", stripes, len(rest), len(p.shards))
	}
	le := binary.LittleEndian
	rows := state[snapshotHeaderLen+stripeHeaderLen*stripes:]
	width, floats := rowLen(stateDim, actionDim), 2*stateDim+actionDim+1
	total := 0
	for k := range p.shards {
		h := state[snapshotHeaderLen+stripeHeaderLen*k:]
		sh := &p.shards[k]
		sh.mu.Lock()
		sh.count, sh.next = int(le.Uint64(h)), int(le.Uint64(h[8:]))
		sh.maxPrior = math.Float64frombits(le.Uint64(h[16:]))
		if sh.count > 0 {
			sh.data = make([]Transition, sh.count)
		}
		vals := make([]float64, sh.count*floats)
		for i := range sh.data {
			row, v := rows[width*i:], vals[floats*i:floats*(i+1):floats*(i+1)]
			sh.tree.set(i, math.Float64frombits(le.Uint64(row)))
			_, _ = binary.Decode(row[8:], le, v) // SplitState saw the row whole
			sh.data[i] = Transition{State: v[:stateDim:stateDim], Action: v[stateDim : stateDim+actionDim : stateDim+actionDim],
				Reward: v[stateDim+actionDim], NextState: v[stateDim+actionDim+1:], Done: row[width-1] == 1}
		}
		rows = rows[width*sh.count:]
		total += sh.count
		sh.mu.Unlock()
	}
	p.sampleMu.Lock()
	p.beta = math.Float64frombits(le.Uint64(state[4:]))
	p.sampleMu.Unlock()
	p.ingest.Store(le.Uint64(state[12:]))
	p.count.Store(int64(total))
	return nil
}
