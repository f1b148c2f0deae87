package ddpg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"

	"greennfv/internal/atomicio"
	"greennfv/internal/nn"
)

// The policy section opens every checkpoint (doc.go, "Checkpoint"): the
// Config and the actor's parameter frame behind a length and CRC32 of
// everything after them. A server decodes it and nothing after it — the
// rest passes through the sum and is dropped — and keeps its
// policy-only form, the section with nothing after it.

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

// configHeadLen is the config's bytes before the widths (StateDim,
// ActionDim, the width count); configTailLen the bytes after them.
const (
	configHeadLen = 8 + 8 + 4
	configTailLen = 4*8 + 2*8 + 1 + 6*8 + 8
)

// configLen is the length of the config b opens with, as its width
// count implies; ok is false when b is shorter than the count's end or
// the config would run past the left bytes the file holds from b on.
func configLen(b []byte, left int64) (n int, ok bool) {
	if len(b) < configHeadLen {
		return 0, false
	}
	widths := uint64(binary.LittleEndian.Uint32(b[configHeadLen-4:]))
	if total := configHeadLen + 8*widths + configTailLen; total <= uint64(max(left, 0)) {
		return int(total), true
	}
	return 0, false
}

// errConfigTruncated is the refusal of a config the bytes cannot hold.
var errConfigTruncated = errors.New("ddpg: serving checkpoint config is truncated")

// readConfig is appendConfig's inverse, returning the bytes after the
// config. The width count is checked against the bytes present before
// the widths are allocated.
func readConfig(b []byte) (Config, []byte, error) {
	n, ok := configLen(b, int64(len(b)))
	if !ok {
		return Config{}, nil, errConfigTruncated
	}
	r := reader{b: b[:n], ok: true}
	var cfg Config
	cfg.StateDim, cfg.ActionDim = int(r.i64()), int(r.i64())
	cfg.Hidden = make([]int, r.u32())
	for i := range cfg.Hidden {
		cfg.Hidden[i] = int(r.i64())
	}
	r.f64s(&cfg.ActorLR, &cfg.CriticLR, &cfg.Gamma, &cfg.Tau)
	cfg.BatchSize, cfg.BufferCap = int(r.i64()), int(r.i64())
	prioritized := r.take(1)[0]
	r.f64s(&cfg.PERAlpha, &cfg.PERBeta, &cfg.PERBetaInc, &cfg.OUTheta, &cfg.OUSigma, &cfg.NoiseDecay)
	cfg.Seed = r.i64()
	if prioritized > 1 {
		return Config{}, nil, fmt.Errorf("ddpg: serving checkpoint config: Prioritized byte %d", prioritized)
	}
	cfg.Prioritized = prioritized == 1
	return cfg, b[n:], nil
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

// The section's checks, which both readers make, each reporting the
// first that fails in this order: the magic (readHeader), the sum over
// every byte after the header (sumError), the config's length
// (configLen, inside readConfig), the Config as New validates it and
// the actor frame's length against the bytes left (actorFrameLen).

// readHeader checks that hdr, a file's first bytes, opens the section,
// and returns the sum the header records for the rest of the file.
func readHeader(hdr []byte) (atomicio.Sum, error) {
	if len(hdr) < sectionHeaderLen || string(hdr[:len(servingMagic)]) != servingMagic {
		return atomicio.Sum{}, errNotServing
	}
	le := binary.LittleEndian
	return atomicio.Sum{Len: le.Uint64(hdr[len(servingMagic):]), CRC: le.Uint32(hdr[len(servingMagic)+8:])}, nil
}

// sumError is the refusal of a file whose bytes after the header do
// not have the sum the header records.
func sumError(got, want atomicio.Sum) error {
	return fmt.Errorf("ddpg: serving checkpoint is truncated or corrupt: %d bytes with CRC %08x after the header, which records %d with %08x",
		got.Len, got.CRC, want.Len, want.CRC)
}

// actorFrameLen validates cfg as New does and returns the length of the
// actor frame it implies, in checked arithmetic, refusing one longer
// than the left bytes after the config.
func actorFrameLen(cfg Config, left int64) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, fmt.Errorf("ddpg: serving checkpoint config: %w", err)
	}
	n, ok := nn.MLPFrameLen(actorSizes(cfg))
	if !ok || int64(n) > left {
		return 0, fmt.Errorf("ddpg: serving checkpoint config implies an actor of layer sizes %v, whose frame the %d bytes present cannot hold",
			actorSizes(cfg), left)
	}
	return n, nil
}

// readSection checks a whole checkpoint in memory up to the end of its
// policy section, sum first, and returns its parts as slices of data.
// It allocates only the config's widths.
func readSection(data []byte) (*section, error) {
	want, err := readHeader(data)
	if err != nil {
		return nil, err
	}
	body := data[sectionHeaderLen:]
	if got := atomicio.SumOf(body); got != want {
		return nil, sumError(got, want)
	}
	cfg, rest, err := readConfig(body)
	if err != nil {
		return nil, err
	}
	n, err := actorFrameLen(cfg, int64(len(rest)))
	if err != nil {
		return nil, err
	}
	return &section{cfg: cfg, config: body[:len(body)-len(rest)], frame: rest[:n], state: rest[n:]}, nil
}

// PolicyReader reads checkpoints' policy sections from streams
// (Read): each section into one exact-size slice, everything after the
// section through the reader's 8 KB buffer, and every byte after the
// header into the sum as it passes. The section's checks come before
// the sum's, so a refusal found there is held until the sum is known: a
// file whose sum fails gets the sum's refusal, as it does from
// readSection. A caller that reads many checkpoints, as a serving
// controller's boot and reloads do, keeps one and so allocates the
// buffer once. Nothing of one read reaches the next; a PolicyReader is
// not goroutine-safe.
type PolicyReader struct {
	r    io.Reader
	left int64  // bytes of the file not yet read
	crc  uint32 // of the bytes read after the header
	err  error  // the first failed read; every later read is skipped
	buf  [8 << 10]byte
}

// fill reads len(p) bytes into p and adds them to the sum.
func (s *PolicyReader) fill(p []byte) {
	if s.err != nil {
		return
	}
	if _, err := io.ReadFull(s.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		s.err = fmt.Errorf("ddpg: read serving checkpoint: %w", err)
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	s.left -= int64(len(p))
}

// header reads the section header and returns the sum it records.
func (s *PolicyReader) header() (atomicio.Sum, error) {
	hdr := s.buf[:sectionHeaderLen]
	if s.left < int64(len(hdr)) {
		return atomicio.Sum{}, errNotServing
	}
	if s.fill(hdr); s.err != nil {
		return atomicio.Sum{}, s.err
	}
	s.crc = 0
	return readHeader(hdr)
}

// section reads the config and the actor frame into the policy-only
// form, its sum not yet written. A refused section stops the reading
// where it was found, and drain sums the rest.
func (s *PolicyReader) section() (Config, []byte, error) {
	head := s.buf[:configHeadLen]
	if s.left < int64(len(head)) {
		return Config{}, nil, errConfigTruncated
	}
	s.fill(head)
	n, ok := configLen(head, s.left+configHeadLen)
	if !ok {
		return Config{}, nil, errConfigTruncated
	}
	config := make([]byte, n)
	copy(config, head)
	s.fill(config[configHeadLen:])
	if s.err != nil {
		return Config{}, nil, s.err
	}
	cfg, _, err := readConfig(config)
	if err != nil {
		return Config{}, nil, err
	}
	frameLen, err := actorFrameLen(cfg, s.left)
	if err != nil {
		return Config{}, nil, err
	}
	form := make([]byte, sectionHeaderLen+n+frameLen)
	copy(form, servingMagic)
	copy(form[sectionHeaderLen:], config)
	s.fill(form[sectionHeaderLen+n:])
	return cfg, form, nil
}

// drain reads the rest of the file through buf into the sum.
func (s *PolicyReader) drain() {
	for s.left > 0 && s.err == nil {
		s.fill(s.buf[:min(s.left, int64(len(s.buf)))])
	}
}

// The actor's activations: ReLU between its layers, Tanh at the output
// (actions live in [-1, 1]).
const (
	actorHidden = nn.ReLU
	actorOut    = nn.Tanh
)

// newPolicy builds a policy of cfg's topology whose weights draw from
// rng.
func newPolicy(cfg Config, rng *rand.Rand) (Policy, error) {
	actor, err := nn.NewMLP(actorSizes(cfg), actorHidden, actorOut, rng)
	if err != nil {
		return Policy{}, err
	}
	return Policy{Actor: actor, stateDim: cfg.StateDim, actionDim: cfg.ActionDim}, nil
}

// checkActorFrame reports why frame is not the parameter frame of cfg's
// actor (nn.CheckMLPFrame): the refusal LoadParams would give it on a
// network of that topology, with no network built.
func checkActorFrame(cfg Config, frame []byte) error {
	return nn.CheckMLPFrame(frame, actorSizes(cfg), actorHidden, actorOut)
}

// PolicyFromFrame builds the inference-only policy of cfg's topology
// whose actor is frame — the parameter frame ActorBytes writes, or the
// one ActorFrame finds in a policy-only form — its weights decoded
// straight from the frame: no random draw, no gradient buffers. It
// refuses a frame of another topology as LoadParams would. Each caller
// that runs inference concurrently builds its own.
func PolicyFromFrame(cfg Config, frame []byte) (*Policy, error) {
	actor, err := nn.MLPFromFrame(frame, actorSizes(cfg), actorHidden, actorOut)
	if err != nil {
		return nil, fmt.Errorf("ddpg: actor frame: %w", err)
	}
	return &Policy{Actor: actor, stateDim: cfg.StateDim, actionDim: cfg.ActionDim}, nil
}

// Read reads a checkpoint's policy section from r, which holds size
// bytes, without keeping anything after it (doc.go, "Serving
// checkpoint"), and builds nothing from it: it returns the checked
// Config and the policy-only form, which Read reads back to the same
// two; PolicyFromFrame builds a policy from them. r may hold either
// form. The magic, the config's width count and the actor frame's length
// are checked against size before anything is sized by them; the section
// is read into the form, one slice of exactly its size sealed in place,
// and every byte after it passes through the sum in the reader's buffer.
// The actor frame's header is checked against the Config's topology last.
func (s *PolicyReader) Read(r io.Reader, size int64) (Config, []byte, error) {
	// Every field but buf is reset; buf is written before it is read.
	s.r, s.left, s.crc, s.err = r, size, 0, nil
	defer func() { s.r, s.err = nil, nil }() // keep neither the caller's reader nor its error
	want, err := s.header()
	if err != nil {
		return Config{}, nil, err
	}
	cfg, form, refused := s.section()
	s.drain()
	if s.err != nil {
		return Config{}, nil, s.err
	}
	if got := (atomicio.Sum{Len: uint64(size - int64(sectionHeaderLen)), CRC: s.crc}); got != want {
		return Config{}, nil, sumError(got, want)
	}
	if refused != nil {
		return Config{}, nil, refused
	}
	if err := checkActorFrame(cfg, ActorFrame(form)); err != nil {
		return Config{}, nil, actorFrameError(err)
	}
	return cfg, sealSection(form), nil
}

// actorFrameError is the refusal of a section whose actor frame does
// not fit its Config's topology.
func actorFrameError(err error) error {
	return fmt.Errorf("ddpg: serving checkpoint actor: %w", err)
}

// LoadPolicy is Read over a checkpoint in memory, through the
// whole-slice reader (readSection, the same checks in the same order
// with the same refusals): no stream and no buffer, only the form and
// the config's widths.
func LoadPolicy(data []byte) (Config, []byte, error) {
	s, err := readSection(data)
	if err != nil {
		return Config{}, nil, err
	}
	if err := checkActorFrame(s.cfg, s.frame); err != nil {
		return Config{}, nil, actorFrameError(err)
	}
	form := make([]byte, 0, sectionHeaderLen+len(s.config)+len(s.frame))
	return s.cfg, sealSection(beginSection(form, s.config, s.frame)), nil
}

// ActorFrame is the actor's parameter frame inside a policy-only form,
// sharing its bytes: what PolicyFromFrame builds a policy from and a
// replica reads in place through LoadParams. It is nil when form does
// not hold a config's length after the header.
func ActorFrame(form []byte) []byte {
	if len(form) < sectionHeaderLen {
		return nil
	}
	n, ok := configLen(form[sectionHeaderLen:], int64(len(form)-sectionHeaderLen))
	if !ok {
		return nil
	}
	return form[sectionHeaderLen+n:]
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
