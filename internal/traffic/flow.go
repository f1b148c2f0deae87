package traffic

import (
	"errors"
	"fmt"
	"math/rand"
)

// Flow is one synthesized traffic stream: a five-tuple, a frame size
// and an arrival process, mirroring a MoonGen flow script.
type Flow struct {
	Name       string
	Tuple      FiveTuple
	FrameBytes int
	Arrival    Arrival
}

// Validate reports whether the flow is fully specified.
func (f *Flow) Validate() error {
	if f.Arrival == nil {
		return fmt.Errorf("traffic: flow %q has no arrival process", f.Name)
	}
	if f.FrameBytes < MinFrame || f.FrameBytes > MaxFrame {
		return fmt.Errorf("traffic: flow %q frame size %d outside [%d,%d]",
			f.Name, f.FrameBytes, MinFrame, MaxFrame)
	}
	return nil
}

// SimpleFlow is a convenience constructor for a CBR UDP flow with a
// deterministic tuple derived from id.
func SimpleFlow(id int, pps float64, frameBytes int) (*Flow, error) {
	arr, err := NewCBR(pps)
	if err != nil {
		return nil, err
	}
	f := &Flow{
		Name: fmt.Sprintf("flow%d", id),
		Tuple: FiveTuple{
			SrcIP:   [4]byte{10, 0, byte(id >> 8), byte(id)},
			DstIP:   [4]byte{10, 1, byte(id >> 8), byte(id)},
			SrcPort: uint16(1024 + id),
			DstPort: 9,
			Proto:   ProtoUDP,
		},
		FrameBytes: frameBytes,
		Arrival:    arr,
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Event is one generated packet: its arrival time and frame bytes.
type Event struct {
	Time  float64
	Flow  *Flow
	Frame []byte
}

// Generator multiplexes several flows into a single time-ordered
// packet event stream, the software stand-in for a MoonGen transmit
// port. It is deterministic for a given seed.
type Generator struct {
	flows []*Flow
	rng   *rand.Rand
	// nextAt[i] is the absolute time of flow i's next packet.
	nextAt []float64
	// scratch per-flow frame buffers, recycled across events.
	frames [][]byte
	now    float64
}

// NewGenerator builds a generator over the flows with a deterministic
// seed. Flows must validate.
func NewGenerator(seed int64, flows ...*Flow) (*Generator, error) {
	if len(flows) == 0 {
		return nil, errors.New("traffic: generator needs at least one flow")
	}
	g := &Generator{
		flows:  flows,
		rng:    rand.New(rand.NewSource(seed)),
		nextAt: make([]float64, len(flows)),
		frames: make([][]byte, len(flows)),
	}
	for i, f := range flows {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		g.nextAt[i] = f.Arrival.Next(g.rng)
		frame, err := BuildFrame(nil, f.Tuple, f.FrameBytes)
		if err != nil {
			return nil, err
		}
		g.frames[i] = frame
	}
	return g, nil
}

// Next returns the next packet event in time order. The returned
// frame buffer is reused on the following call for the same flow;
// copy it if it must outlive the iteration.
func (g *Generator) Next() Event {
	best := 0
	for i := 1; i < len(g.nextAt); i++ {
		if g.nextAt[i] < g.nextAt[best] {
			best = i
		}
	}
	ev := Event{Time: g.nextAt[best], Flow: g.flows[best], Frame: g.frames[best]}
	g.now = g.nextAt[best]
	g.nextAt[best] += g.flows[best].Arrival.Next(g.rng)
	return ev
}
