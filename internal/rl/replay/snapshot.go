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
//	full, so these are the live ones), each a row (below) whose leaf
//	is the slot's sum-tree leaf

const (
	snapshotHeaderLen = 4 + 8 + 8
	stripeHeaderLen   = 8 + 8 + 8
)

// A row is one transition and the float64 in front of it, the leaf:
// a snapshot's sum-tree leaf (the priority raised to α), or the raw
// priority an Ape-X actor pushes (internal/rl/apex). It is the one
// encoding of a transition anywhere, written by AppendRow and read
// and vetted by ReadRows. Little-endian, at widths S (state) and A
// (action), 8·(2S+A+2)+1 bytes:
//
//	float64 leaf | float64 × S state | × A action | reward |
//	× S next state | byte done

// RowLen is the bytes one row takes at these widths.
func RowLen(stateDim, actionDim int) int { return 8*(2*stateDim+actionDim+2) + 1 }

// AppendRow appends t's row with leaf in front. t's State and
// NextState must be equally long: the row records one state width.
func AppendRow(dst []byte, leaf float64, t Transition) []byte {
	dst = appendFloats(dst, leaf)
	dst = appendFloats(dst, t.State...)
	dst = appendFloats(dst, t.Action...)
	dst = appendFloats(dst, t.Reward)
	dst = appendFloats(dst, t.NextState...)
	done := byte(0)
	if t.Done {
		done = 1
	}
	return append(dst, done)
}

func appendFloats(dst []byte, vs ...float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// ReadRows checks that rows is whole rows at these widths and nothing
// else, with every float finite, every leaf non-negative and every
// done byte 0 or 1, naming the first row and field that is not. Then,
// unless put is nil (a check that allocates nothing), it decodes the
// rows in order and hands each to put. A refused run reaches put not
// at all. The transitions share one new backing array and none aliases
// rows, so a caller may keep them after rows is reused.
func ReadRows(rows []byte, stateDim, actionDim int, put func(i int, leaf float64, t Transition)) error {
	width := RowLen(stateDim, actionDim)
	if len(rows)%width != 0 {
		return fmt.Errorf("replay: %d bytes are not whole rows of %d", len(rows), width)
	}
	n := len(rows) / width
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		row := rows[width*i : width*(i+1)]
		for k := 0; 8*k < width-1; k++ {
			bits := le.Uint64(row[8*k:])
			if v := math.Float64frombits(bits); bits&expMask == expMask || k == 0 && v < 0 {
				return fmt.Errorf("replay: row %d: %s is %v", i, fieldName(k, stateDim, actionDim), v)
			}
		}
		if done := row[width-1]; done > 1 {
			return fmt.Errorf("replay: row %d: Done byte is %d, not 0 or 1", i, done)
		}
	}
	if put == nil {
		return nil
	}
	floats := 2*stateDim + actionDim + 1
	vals := make([]float64, n*floats)
	for i := 0; i < n; i++ {
		row, v := rows[width*i:], vals[floats*i:floats*(i+1):floats*(i+1)]
		for k := range v {
			v[k] = math.Float64frombits(le.Uint64(row[8+8*k:]))
		}
		put(i, math.Float64frombits(le.Uint64(row)), Transition{
			State:     v[:stateDim:stateDim],
			Action:    v[stateDim : stateDim+actionDim : stateDim+actionDim],
			Reward:    v[stateDim+actionDim],
			NextState: v[stateDim+actionDim+1:],
			Done:      row[width-1] == 1,
		})
	}
	return nil
}

// expMask is a float64's exponent bits, all set only in NaN and ±Inf.
const expMask = 0x7ff << 52

// fieldName names a row's k-th float by the field it holds; the leaf
// is a priority in both of a row's uses.
func fieldName(k, stateDim, actionDim int) string {
	switch {
	case k == 0:
		return "Priority"
	case k <= stateDim:
		return fmt.Sprintf("State[%d]", k-1)
	case k <= stateDim+actionDim:
		return fmt.Sprintf("Action[%d]", k-1-stateDim)
	case k == stateDim+actionDim+1:
		return "Reward"
	}
	return fmt.Sprintf("NextState[%d]", k-2-stateDim-actionDim)
}

// AppendState appends the buffer's snapshot, one stripe lock at a time
// (ingest keeps flowing; per-stripe consistency is all a crash-recovery
// checkpoint needs). A transition of other widths is an error.
func (p *Prioritized) AppendState(dst []byte, stateDim, actionDim int) ([]byte, error) {
	le := binary.LittleEndian
	p.sampleMu.Lock()
	beta := p.beta
	p.sampleMu.Unlock()
	dst = le.AppendUint32(dst, uint32(len(p.shards)))
	dst = le.AppendUint64(dst, math.Float64bits(beta))
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
			dst = AppendRow(dst, sh.tree.get(i), t)
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
// and its rows be present and pass ReadRows.
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
	width := uint64(RowLen(stateDim, actionDim))
	if hi, size := bits.Mul64(rows, width); hi != 0 || size > uint64(len(body)) {
		return nil, 0, nil, errors.New("replay: snapshot is truncated")
	}
	if err := ReadRows(body[:rows*width], stateDim, actionDim, nil); err != nil {
		return nil, 0, nil, err
	}
	end := len(b) - len(body) + int(rows*width)
	return b[:end], int(k), b[end:], nil
}

// LoadState restores a snapshot, checked whole as SplitState checks it
// before the first stripe is written, into this still empty buffer of
// the snapshot's stripe count. A stripe's transitions share one backing
// array (ReadRows), which nothing writes: a slot is only ever replaced
// whole.
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
	width := RowLen(stateDim, actionDim)
	total := 0
	for k := range p.shards {
		h := state[snapshotHeaderLen+stripeHeaderLen*k:]
		sh := &p.shards[k]
		sh.mu.Lock()
		sh.count, sh.next = int(le.Uint64(h)), int(le.Uint64(h[8:]))
		sh.maxPrior = math.Float64frombits(le.Uint64(h[16:]))
		if sh.count > 0 {
			sh.data = make([]Transition, sh.count)
			sh.tree.grow(sh.count)
		}
		// SplitState passed these rows.
		_ = ReadRows(rows[:width*sh.count], stateDim, actionDim, func(i int, leaf float64, t Transition) {
			sh.tree.set(i, leaf)
			sh.data[i] = t
		})
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
