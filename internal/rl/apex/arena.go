package apex

// txnArena is the pooled backing store for an actor's staged
// transitions: one flat chunk holds the state/action/next-state rows
// of a whole PushEvery window.
//
// Lifecycle is tied to Flush and to whether the learner RETAINS pushed
// slices (LearnerAPI.RetainsExperience):
//
//   - Retaining learner (in-process: the replay buffer aliases pushed
//     slices forever): flushed chunks are handed off and a fresh chunk
//     backs the next window — ONE allocation per PushEvery steps,
//     which amortizes to 0 allocs/op.
//   - Non-retaining learner (RPC: batches are encoded as rows on the
//     wire): flushed chunks return to a free list and the steady state
//     allocates nothing at all.
//
// An arena belongs to one actor goroutine; no synchronization.
type txnArena struct {
	stateDim  int
	actionDim int
	rowLen    int // 2·stateDim + actionDim floats per transition
	rowsCap   int // transitions per chunk (the flush window)
	chunk     []float64
	used      int         // rows consumed in chunk
	overflow  [][]float64 // full chunks of the current window (early-flush slip)
	free      [][]float64 // recycled chunks (non-retaining learners only)
}

func newTxnArena(stateDim, actionDim, rows int) *txnArena {
	if rows < 1 {
		rows = 1
	}
	return &txnArena{
		stateDim:  stateDim,
		actionDim: actionDim,
		rowLen:    2*stateDim + actionDim,
		rowsCap:   rows,
	}
}

// next carves the three rows of one transition out of the current
// chunk: state, next-state, action. The full-capacity slice bounds
// keep an append on one row from bleeding into its neighbors.
func (ar *txnArena) next() (state, action, next []float64) {
	if ar.chunk == nil || ar.used == ar.rowsCap {
		if ar.chunk != nil {
			ar.overflow = append(ar.overflow, ar.chunk)
		}
		if n := len(ar.free); n > 0 {
			ar.chunk = ar.free[n-1]
			ar.free = ar.free[:n-1]
		} else {
			ar.chunk = make([]float64, ar.rowsCap*ar.rowLen)
		}
		ar.used = 0
	}
	base := ar.used * ar.rowLen
	ar.used++
	row := ar.chunk[base : base+ar.rowLen]
	sd := ar.stateDim
	state = row[:sd:sd]
	next = row[sd : 2*sd : 2*sd]
	action = row[2*sd : ar.rowLen : ar.rowLen]
	return state, action, next
}

// release ends a flush window. When the consumer retains the pushed
// slices the chunks are abandoned to it; otherwise they are recycled
// for the next window.
func (ar *txnArena) release(retained bool) {
	if !retained {
		if ar.chunk != nil {
			ar.free = append(ar.free, ar.chunk)
		}
		ar.free = append(ar.free, ar.overflow...)
	}
	ar.chunk = nil
	ar.used = 0
	ar.overflow = ar.overflow[:0]
}
