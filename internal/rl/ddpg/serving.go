package ddpg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"

	"greennfv/internal/atomicio"
	"greennfv/internal/nn"
)

// The policy section opens every checkpoint (doc.go, "Checkpoint"): the
// Config and the actor's parameter frame behind a length and CRC32 of
// everything after them. A server reads it and nothing after it, and
// keeps its policy-only form, the section with nothing after it.

// servingMagic opens a serving checkpoint and its policy-only form.
const servingMagic = "GNFVPOL1"

// sectionHeaderLen is the magic and the sum.
const sectionHeaderLen = len(servingMagic) + 8 + 4

// errNotServing is what a file without the section gets.
var errNotServing = errors.New("ddpg: no GNFVPOL1 policy section")

// appendConfig appends cfg in the section's layout.
func appendConfig(dst []byte, cfg Config) []byte {
	le := binary.LittleEndian
	i64 := func(v int) { dst = le.AppendUint64(dst, uint64(int64(v))) }
	f64 := func(v float64) { dst = le.AppendUint64(dst, math.Float64bits(v)) }
	i64(cfg.StateDim)
	i64(cfg.ActionDim)
	dst = le.AppendUint32(dst, uint32(len(cfg.Hidden)))
	for _, h := range cfg.Hidden {
		i64(h)
	}
	for _, v := range []float64{cfg.ActorLR, cfg.CriticLR, cfg.Gamma, cfg.Tau} {
		f64(v)
	}
	i64(cfg.BatchSize)
	i64(cfg.BufferCap)
	prioritized := byte(0)
	if cfg.Prioritized {
		prioritized = 1
	}
	dst = append(dst, prioritized)
	for _, v := range []float64{cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, cfg.OUTheta, cfg.OUSigma, cfg.NoiseDecay} {
		f64(v)
	}
	return le.AppendUint64(dst, uint64(cfg.Seed))
}

// reader reads a checkpoint's fixed-width fields off the front of b; a
// read past the end leaves ok false and reads zeros from then on.
type reader struct {
	b  []byte
	ok bool
}

func (r *reader) take(n int) []byte {
	if !r.ok || len(r.b) < n {
		r.ok = false
		return make([]byte, n)
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) i64() int64  { return int64(binary.LittleEndian.Uint64(r.take(8))) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) f64s(ps ...*float64) {
	for _, p := range ps {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(r.take(8)))
	}
}

// readConfig is appendConfig's inverse, returning the bytes after the
// config. The width count is checked against the bytes present before
// the widths are allocated.
func readConfig(b []byte) (Config, []byte, error) {
	r := reader{b: b, ok: true}
	var cfg Config
	cfg.StateDim, cfg.ActionDim = int(r.i64()), int(r.i64())
	hidden := uint64(r.u32())
	if !r.ok || hidden*8 > uint64(len(r.b)) {
		return Config{}, nil, errors.New("ddpg: serving checkpoint config is truncated")
	}
	cfg.Hidden = make([]int, hidden)
	for i := range cfg.Hidden {
		cfg.Hidden[i] = int(r.i64())
	}
	r.f64s(&cfg.ActorLR, &cfg.CriticLR, &cfg.Gamma, &cfg.Tau)
	cfg.BatchSize, cfg.BufferCap = int(r.i64()), int(r.i64())
	prioritized := r.take(1)[0]
	r.f64s(&cfg.PERAlpha, &cfg.PERBeta, &cfg.PERBetaInc, &cfg.OUTheta, &cfg.OUSigma, &cfg.NoiseDecay)
	cfg.Seed = r.i64()
	if !r.ok {
		return Config{}, nil, errors.New("ddpg: serving checkpoint config is truncated")
	}
	if prioritized > 1 {
		return Config{}, nil, fmt.Errorf("ddpg: serving checkpoint config: Prioritized byte %d", prioritized)
	}
	cfg.Prioritized = prioritized == 1
	return cfg, r.b, nil
}

// beginSection appends the section of an encoded config and the actor
// frame, its sum left to sealSection once whatever follows is appended.
// dst must hold nothing before the section.
func beginSection(dst, config, frame []byte) []byte {
	dst = append(dst, servingMagic...)
	dst = append(dst, make([]byte, sectionHeaderLen-len(servingMagic))...)
	dst = append(dst, config...)
	return append(dst, frame...)
}

// sealSection writes the sum of every byte after the section header.
func sealSection(b []byte) []byte {
	le := binary.LittleEndian
	body := b[sectionHeaderLen:]
	le.PutUint64(b[len(servingMagic):], uint64(len(body)))
	le.PutUint32(b[len(servingMagic)+8:], crc32.ChecksumIEEE(body))
	return b
}

// appendSection is a whole checkpoint in one new slice: the section,
// then state (empty for the policy-only form), the sum covering both.
func appendSection(config, frame, state []byte) []byte {
	b := make([]byte, 0, sectionHeaderLen+len(config)+len(frame)+len(state))
	return sealSection(append(beginSection(b, config, frame), state...))
}

// section is a serving checkpoint read and checked up to the end of the
// policy section: its sum, config and the frame's extent.
type section struct {
	cfg    Config
	config []byte // the config's bytes as written
	frame  []byte // the actor frame, its length implied by cfg
	state  []byte // everything after the frame: the training state, if any
}

// actorSizes and criticSizes are the MLP layer sizes cfg builds.
func actorSizes(cfg Config) []int {
	return append(append([]int{cfg.StateDim}, cfg.Hidden...), cfg.ActionDim)
}

func criticSizes(cfg Config) []int {
	return append(append([]int{cfg.StateDim + cfg.ActionDim}, cfg.Hidden...), 1)
}

// readSection checks data's magic and sum, reads the config and
// validates it as New does, and finds the actor frame — comparing the
// frame length the config implies with the bytes present before
// anything is sized by it. It allocates only the config's widths.
func readSection(data []byte) (*section, error) {
	if len(data) < sectionHeaderLen || string(data[:len(servingMagic)]) != servingMagic {
		return nil, errNotServing
	}
	le := binary.LittleEndian
	want := atomicio.Sum{Len: le.Uint64(data[len(servingMagic):]), CRC: le.Uint32(data[len(servingMagic)+8:])}
	body := data[sectionHeaderLen:]
	if got := atomicio.SumOf(body); got != want {
		return nil, fmt.Errorf("ddpg: serving checkpoint is truncated or corrupt: %d bytes with CRC %08x after the header, which records %d with %08x",
			got.Len, got.CRC, want.Len, want.CRC)
	}
	cfg, rest, err := readConfig(body)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ddpg: serving checkpoint config: %w", err)
	}
	n, ok := nn.MLPFrameLen(actorSizes(cfg))
	if !ok || n > len(rest) {
		return nil, fmt.Errorf("ddpg: serving checkpoint config implies an actor of layer sizes %v, whose frame the %d bytes present cannot hold",
			actorSizes(cfg), len(rest))
	}
	return &section{cfg: cfg, config: body[:len(body)-len(rest)], frame: rest[:n], state: rest[n:]}, nil
}

// policyOnly is the section's policy-only form, in one new slice.
func (s *section) policyOnly() []byte {
	return appendSection(s.config, s.frame, nil)
}

// newPolicy builds a policy of cfg's topology whose weights draw from
// rng; trainable gives the network gradient buffers (an Agent's).
func newPolicy(cfg Config, rng *rand.Rand, trainable bool) (Policy, error) {
	actor, err := nn.NewMLP(actorSizes(cfg), nn.ReLU, nn.Tanh, rng, trainable)
	if err != nil {
		return Policy{}, err
	}
	return Policy{Actor: actor, stateDim: cfg.StateDim, actionDim: cfg.ActionDim}, nil
}

// LoadPolicy reads a checkpoint's policy section and nothing after it
// (doc.go, "Serving checkpoint"): an inference-only policy, the Config
// and the policy-only form (a new slice), which LoadPolicy reads back
// to the same policy. data may be either form.
func LoadPolicy(data []byte) (*Policy, Config, []byte, error) {
	s, err := readSection(data)
	if err != nil {
		return nil, Config{}, nil, err
	}
	p, err := newPolicy(s.cfg, rand.New(rand.NewSource(s.cfg.Seed)), false)
	if err != nil {
		return nil, Config{}, nil, fmt.Errorf("ddpg: serving checkpoint config: %w", err)
	}
	if err := p.Actor.LoadParams(s.frame); err != nil {
		return nil, Config{}, nil, fmt.Errorf("ddpg: serving checkpoint actor: %w", err)
	}
	return &p, s.cfg, s.policyOnly(), nil
}

// LoadAgentBytes builds a fresh agent from a checkpoint: ReadCheckpoint
// reads and checks it whole, so the training state's lengths bound what
// the Config builds before New sizes anything by it, then everything
// but the replay contents and the RNG stream position is restored.
// Inference touches neither, so a replay snapshot is checked and
// skipped and the RNG stays at its seed position (LoadState is the
// resume path). A policy-only form has no training state and is
// refused.
func LoadAgentBytes(data []byte) (*Agent, error) {
	c, err := ReadCheckpoint(data)
	if err != nil {
		return nil, err
	}
	a, err := New(c.cfg)
	if err != nil {
		return nil, fmt.Errorf("ddpg: checkpoint config: %w", err)
	}
	if err := a.applyState(c, false); err != nil {
		return nil, err
	}
	return a, nil
}
