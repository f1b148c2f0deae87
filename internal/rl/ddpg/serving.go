package ddpg

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"

	"greennfv/internal/atomicio"
	"greennfv/internal/nn"
)

// The serving checkpoint is what a controller serves: a policy section
// — the Config and the actor's parameter frame — followed by the
// training state SaveState(w, false) writes, byte for byte. A server
// reads the section and nothing after it; LoadAgent reads both. The
// section's policy-only form, the same section with nothing after it,
// is what a serving controller keeps and persists. Layout, little-endian:
//
//	magic      "GNFVPOL1"
//	sum        uint64 length, uint32 IEEE CRC32 of every byte after the sum
//	config     int64 StateDim, ActionDim; uint32 len(Hidden), int64 each
//	           width; float64 ActorLR, CriticLR, Gamma, Tau; int64
//	           BatchSize, BufferCap; byte Prioritized (0 or 1); float64
//	           PERAlpha, PERBeta, PERBetaInc, OUTheta, OUSigma, NoiseDecay;
//	           int64 Seed
//	frame      the actor's nn parameter frame, its length implied by the
//	           config's topology
//	state      optional: SaveState(w, false)'s gob stream

// servingMagic opens a serving checkpoint and its policy-only form.
const servingMagic = "GNFVPOL1"

// sectionHeaderLen is the magic and the sum.
const sectionHeaderLen = len(servingMagic) + 8 + 4

// errNotServing is what a file without the section gets — a bare
// SaveState blob, which is what SaveCheckpoint wrote before the section
// existed, among them.
var errNotServing = errors.New("ddpg: no GNFVPOL1 policy section: not a serving checkpoint, or one written before the section existed (re-save the policy with greennfv -save-policy)")

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

// configReader reads the section's config fields off the front of b;
// a read past the end leaves ok false and reads zeros from then on.
type configReader struct {
	b  []byte
	ok bool
}

func (r *configReader) take(n int) []byte {
	if !r.ok || len(r.b) < n {
		r.ok = false
		return make([]byte, n)
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *configReader) i64() int64  { return int64(binary.LittleEndian.Uint64(r.take(8))) }
func (r *configReader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *configReader) f64s(ps ...*float64) {
	for _, p := range ps {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(r.take(8)))
	}
}

// readConfig is appendConfig's inverse, returning the bytes after the
// config. The width count is checked against the bytes present before
// the widths are allocated.
func readConfig(b []byte) (Config, []byte, error) {
	r := configReader{b: b, ok: true}
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

// appendSection appends a serving checkpoint: the section of an encoded
// config and the actor frame, then state (empty for the policy-only
// form), the sum covering all three.
func appendSection(dst, config, frame, state []byte) []byte {
	start := len(dst)
	dst = append(dst, servingMagic...)
	dst = append(dst, make([]byte, sectionHeaderLen-len(servingMagic))...)
	dst = append(dst, config...)
	dst = append(dst, frame...)
	dst = append(dst, state...)
	body := dst[start+sectionHeaderLen:]
	le := binary.LittleEndian
	le.PutUint64(dst[start+len(servingMagic):], uint64(len(body)))
	le.PutUint32(dst[start+len(servingMagic)+8:], crc32.ChecksumIEEE(body))
	return dst
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
	return appendSection(make([]byte, 0, sectionHeaderLen+len(s.config)+len(s.frame)), s.config, s.frame, nil)
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

// SaveServing writes the serving checkpoint: the policy section — the
// Config and the actor's parameter frame behind a length and CRC32 of
// everything after them — then exactly the bytes SaveState(w, false)
// writes. This is the file greennfv -save-policy writes and greennfvd
// serves; LoadPolicy reads its section, LoadAgent the whole file.
func (a *Agent) SaveServing(w io.Writer) error {
	frame, err := a.ActorBytes()
	if err != nil {
		return err
	}
	state, err := a.StateBytes(false)
	if err != nil {
		return err
	}
	_, err = w.Write(appendSection(nil, appendConfig(nil, a.cfg), frame, state))
	return err
}

// LoadPolicy reads a serving checkpoint's policy section and nothing
// after it: the sum over the whole file (a CRC pass, no decoding), the
// Config — validated as New validates it, and checked to imply an actor
// whose frame the bytes present can hold before anything is allocated
// for it — and the actor frame, which LoadParams checks against that
// topology in full. It returns an inference-only policy, the Config and
// the policy-only form (a new slice), which LoadPolicy reads back to
// the same policy. data may be either form.
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

// LoadAgent builds a fresh agent from a serving checkpoint: the policy
// section is read and checked as LoadPolicy does, the Config builds the
// agent, then everything in the training state except replay contents
// and the RNG stream position is restored. Inference never touches the
// replay buffer or the RNG, so a carried replay snapshot is skipped
// rather than required to fit and the RNG stays at its seed position
// (resuming training from the result would not reproduce the saved
// agent's sampling; LoadState is that path). A training state whose
// Config or actor differs from the section's is refused, as is a
// policy-only form: it has no training state to build an agent from.
func LoadAgent(r io.Reader) (*Agent, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ddpg: read checkpoint: %w", err)
	}
	return LoadAgentBytes(data)
}

// LoadAgentBytes is LoadAgent from a byte slice.
func LoadAgentBytes(data []byte) (*Agent, error) {
	s, err := readSection(data)
	if err != nil {
		return nil, err
	}
	if len(s.state) == 0 {
		return nil, errors.New("ddpg: a policy-only checkpoint carries no training state")
	}
	// The state holds the actor's and the critic's frames twice each
	// (networks and targets). So a config whose two frames outgrow half
	// the state is refused before New sizes anything by it. (Halving the
	// state, not doubling the sum: two lengths up to MaxInt each fit in
	// a uint64, twice their sum may not.)
	critic, ok := nn.MLPFrameLen(criticSizes(s.cfg))
	if !ok || uint64(len(s.frame))+uint64(critic) > uint64(len(s.state))/2 {
		return nil, fmt.Errorf("ddpg: serving checkpoint config implies networks the %d-byte training state cannot hold", len(s.state))
	}
	var st agentState
	if err := gob.NewDecoder(bytes.NewReader(s.state)).Decode(&st); err != nil {
		return nil, fmt.Errorf("ddpg: decode checkpoint: %w", err)
	}
	if !bytes.Equal(appendConfig(nil, st.Cfg), s.config) {
		return nil, fmt.Errorf("ddpg: checkpoint training state config %+v differs from its policy section's %+v", st.Cfg, s.cfg)
	}
	a, err := New(st.Cfg)
	if err != nil {
		return nil, fmt.Errorf("ddpg: checkpoint config: %w", err)
	}
	if err := a.applyState(&st, false); err != nil {
		return nil, err
	}
	if !bytes.Equal(a.Actor.ParamFrame(), s.frame) {
		return nil, errors.New("ddpg: checkpoint policy section's actor differs from its training state's")
	}
	return a, nil
}
