package apex

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"greennfv/internal/rl/replay"
	"greennfv/internal/rpcutil"
)

// rpcRowLen is one push row at rpcBatch's widths (4-wide states,
// 3-wide actions).
var rpcRowLen = replay.RowLen(4, 3)

// layoutSample is a learner message and the length of its layout.
type layoutSample struct {
	m    rpcutil.Wire
	size int
}

// layoutSamples are one or two of each learner message.
func layoutSamples() []layoutSample {
	batch := rpcBatch(3)
	batch[1].Reward, batch[1].Priority, batch[2].Done = -0.25, 0, true
	return []layoutSample{
		{&RegisterArgs{ActorID: 3}, 8},
		{&RegisterReply{Version: 7, Epoch: 1 << 40}, 16},
		{&PushArgs{Batch: batch, ActorID: 2, Epoch: 5, Version: -1}, pushHeaderLen + 3*rpcRowLen},
		{&PushArgs{ActorID: 2, Epoch: 5, Version: 6}, pushHeaderLen},
		{&PushReply{Accepted: 3, Drain: true}, 9},
		{&PullArgs{HaveVersion: 4, ActorID: 1, Epoch: 2}, 24},
		{&PullReply{Version: 4, ActorBytes: []byte("GNFVPRM1 frame")}, 8 + len("GNFVPRM1 frame")},
		{&PullReply{Version: 4}, 8},
	}
}

// pushWire is a sound three-row push's layout (rpcBatch widths) with
// mutate applied to a copy.
func pushWire(mutate func(b []byte)) []byte {
	b := (&PushArgs{Batch: rpcBatch(3), ActorID: 0, Epoch: 1, Version: 1}).AppendWire(nil)
	mutate(b)
	return b
}

// rowFloat writes v into float k of row i of a push layout: 0 is the
// priority, then the state, the action, the reward and the next state.
func rowFloat(i, k int, v float64) func(b []byte) {
	return func(b []byte) {
		binary.LittleEndian.PutUint64(b[pushHeaderLen+rpcRowLen*i+8*k:], math.Float64bits(v))
	}
}

// pushRefusal is a push layout the learner refuses and the words its
// error must contain.
type pushRefusal struct {
	name string
	wire []byte
	want []string
}

// pushRefusals are one refused push per region of the layout.
func pushRefusals() []pushRefusal {
	nan := math.NaN()
	whole := pushWire(func([]byte) {})
	emptyPush := (&PushArgs{Epoch: 1}).AppendWire(nil)
	emptyPush[24] = 4
	wide := rpcBatch(2)
	for i := range wide {
		wide[i].State, wide[i].NextState = append(wide[i].State, 5), append(wide[i].NextState, 5)
	}
	return []pushRefusal{
		{"header cut short", whole[:pushHeaderLen-1], []string{"header"}},
		{"last row cut short", whole[:len(whole)-1], []string{"3 rows"}},
		{"n past the end", pushWire(func(b []byte) { b[32] = 4 }), []string{"4 rows"}},
		{"n huge", pushWire(func(b []byte) { binary.LittleEndian.PutUint32(b[32:], math.MaxUint32) }), []string{"rows"}},
		{"widths huge", pushWire(func(b []byte) { binary.LittleEndian.PutUint32(b[24:], math.MaxUint32) }), []string{"rows"}},
		{"a trailing byte", append(append([]byte(nil), whole...), 0), []string{"3 rows"}},
		{"rows without widths", pushWire(func(b []byte) { b[24], b[28] = 0, 0 }), []string{"0/0 wide"}},
		{"widths without rows", emptyPush, []string{"0 rows 4/0 wide"}},
		{"NaN priority", pushWire(rowFloat(1, 0, nan)), []string{"row 1", "Priority"}},
		{"NaN state", pushWire(rowFloat(1, 1, nan)), []string{"row 1", "State[0]"}},
		{"NaN action", pushWire(rowFloat(1, 5, nan)), []string{"row 1", "Action[0]"}},
		{"NaN reward", pushWire(rowFloat(1, 8, nan)), []string{"row 1", "Reward"}},
		{"NaN next state", pushWire(rowFloat(1, 12, nan)), []string{"row 1", "NextState[3]"}},
		{"infinite priority", pushWire(rowFloat(1, 0, math.Inf(1))), []string{"row 1", "Priority"}},
		{"negative priority", pushWire(rowFloat(1, 0, -1)), []string{"row 1", "Priority is -1"}},
		{"done = 2", pushWire(func(b []byte) { b[pushHeaderLen+2*rpcRowLen-1] = 2 }), []string{"row 1", "Done"}},
		{"S×A not the learner's", (&PushArgs{Batch: wide, Epoch: 1}).AppendWire(nil), []string{"5-wide states", "learner of 4 and 3"}},
	}
}

// TestLearnerMessageLayouts pins the six messages' layouts: each is its
// stated length and reads back into a fresh receiver and into one
// holding another message; a fixed-length one cut anywhere or followed
// by a byte is refused and leaves the receiver as it was; and a push
// that is malformed in any region is refused, by its layout or by the
// learner, naming what is wrong, before it reaches the statistics or
// the replay.
func TestLearnerMessageLayouts(t *testing.T) {
	samples := layoutSamples()
	for _, s := range samples {
		wire := s.m.AppendWire(nil)
		if len(wire) != s.size {
			t.Errorf("%T %+v is %d bytes, want %d", s.m, s.m, len(wire), s.size)
		}
		fresh := reflect.New(reflect.TypeOf(s.m).Elem()).Interface().(rpcutil.Wire)
		if err := fresh.ReadWire(wire); err != nil || !reflect.DeepEqual(fresh, s.m) {
			t.Errorf("%T %+v read back as %+v, %v", s.m, s.m, fresh, err)
		}
		if err := fresh.ReadWire(wire); err != nil || !reflect.DeepEqual(fresh, s.m) {
			t.Errorf("%T %+v read over itself as %+v, %v", s.m, s.m, fresh, err)
		}
		if prefixed := s.m.AppendWire([]byte("xy")); !bytes.Equal(prefixed[2:], wire) {
			t.Errorf("%T.AppendWire does not append", s.m)
		}
		// A PullReply's frame runs to the end of the body: only its
		// version can be cut, and a byte after it is the frame's.
		cuts, trailing := len(wire), true
		if _, ok := s.m.(*PullReply); ok {
			cuts, trailing = 8, false
		}
		for cut := 0; cut < cuts; cut++ {
			if err := fresh.ReadWire(wire[:cut]); err == nil || !reflect.DeepEqual(fresh, s.m) {
				t.Errorf("%T cut at %d of %d: %v, receiver %+v", s.m, cut, len(wire), err, fresh)
			}
		}
		if err := fresh.ReadWire(append(wire[:len(wire):len(wire)], 0)); trailing && (err == nil || !reflect.DeepEqual(fresh, s.m)) {
			t.Errorf("%T with a trailing byte: %v, receiver %+v", s.m, err, fresh)
		}
	}
	if err := new(PushReply).ReadWire([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2}); err == nil {
		t.Error("PushReply with drain byte 2 was read")
	}

	learner := rpcLearner(t)
	svc := NewLearnerService(learner, testFleet)
	if err := svc.Register(&RegisterArgs{}, &RegisterReply{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range pushRefusals() {
		var args PushArgs
		err := args.ReadWire(tc.wire)
		if err == nil {
			err = svc.Push(&args, &PushReply{})
		} else if args.Batch != nil {
			t.Errorf("%s: a refused layout left %d rows in the receiver", tc.name, len(args.Batch))
		}
		if err == nil {
			t.Errorf("%s: push accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not say %q", tc.name, err, w)
			}
		}
	}
	if stats, got := svc.ActorStats()[0], learner.Agent().BufferLen(); stats.Pushes != 0 || got != 0 {
		t.Errorf("refused pushes reached the learner: stats %+v, replay %d", stats, got)
	}
	var args PushArgs
	if err := args.ReadWire(pushWire(func([]byte) {})); err != nil {
		t.Fatal(err)
	}
	if err := svc.Push(&args, &PushReply{}); err != nil || learner.Agent().BufferLen() != 3 {
		t.Errorf("sound push: %v, replay %d", err, learner.Agent().BufferLen())
	}
}

// FuzzPushWire: whatever bytes a push body holds, PushArgs.ReadWire
// never panics, and what it accepts holds only finite floats and
// non-negative priorities and writes back byte for byte. Seeds (f.Add)
// are sound pushes and TestLearnerMessageLayouts's refusals.
func FuzzPushWire(f *testing.F) {
	for _, s := range layoutSamples() {
		if p, ok := s.m.(*PushArgs); ok {
			f.Add(p.AppendWire(nil))
		}
	}
	for _, tc := range pushRefusals() {
		f.Add(tc.wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var args PushArgs
		if err := args.ReadWire(data); err != nil {
			if args.Batch != nil {
				t.Fatal("a refused push left rows in the receiver")
			}
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for i, e := range args.Batch {
			for _, v := range append(append(append([]float64{e.Reward}, e.State...), e.Action...), e.NextState...) {
				if !finite(v) {
					t.Fatalf("row %d holds %v", i, v)
				}
			}
			if !finite(e.Priority) || e.Priority < 0 {
				t.Fatalf("row %d has priority %v", i, e.Priority)
			}
		}
		if again := args.AppendWire(nil); !bytes.Equal(again, data) {
			t.Fatal("an accepted push does not write back byte for byte")
		}
	})
}
