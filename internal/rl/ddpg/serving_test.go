package ddpg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"greennfv/internal/nn"
)

// servingWith is a's policy section with the given bytes behind it:
// the policy-only form when state is nil, and otherwise a file only a
// test makes.
func servingWith(t testing.TB, a *Agent, state []byte) []byte {
	t.Helper()
	frame, err := a.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	return appendSection(appendConfig(nil, a.cfg), frame, state)
}

// trainingState is the part of a checkpoint after its policy section.
func trainingState(t testing.TB, blob []byte) []byte {
	t.Helper()
	s, err := readSection(blob)
	if err != nil {
		t.Fatal(err)
	}
	return s.state
}

// servingAgent is an agent of cfg after a few updates, and the serving
// checkpoint SaveState(w, false) writes for it.
func servingAgent(t testing.TB, cfg Config) (*Agent, []byte) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(a, cfg, 64, 71)
	for i := 0; i < 5; i++ {
		a.Learn()
	}
	var buf bytes.Buffer
	if err := a.SaveState(&buf, false); err != nil {
		t.Fatal(err)
	}
	return a, buf.Bytes()
}

// TestStateLayout pins the checkpoint layout (doc.go, "Checkpoint")
// length by length: the policy section — what LoadPolicy returns as the
// policy-only form, which loads back to itself and from which no agent
// can be built — then the training state: its magic, the critic and
// both target frames, two optimizer records (f64 moments only: no f32
// step ran), the noise, sigma, the RNG position, LearnSteps and the
// replay flag, and with the replay the snapshot's header and its rows.
func TestStateLayout(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.BufferCap = 256
	a, file := servingAgent(t, cfg)
	if state, err := a.StateBytes(false); err != nil || !bytes.Equal(file, state) {
		t.Fatalf("SaveState(w, false) is not StateBytes(false): %v", err)
	}
	_, got, form, err := LoadPolicy(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cfg) {
		t.Errorf("LoadPolicy config %+v, want %+v", got, cfg)
	}
	frame, _ := a.ActorBytes()
	if want := servingWith(t, a, nil); !bytes.Equal(form, want) || len(form) != sectionHeaderLen+len(appendConfig(nil, cfg))+len(frame) {
		t.Fatalf("policy-only form is %d bytes, want the %d-byte section alone", len(form), len(want))
	}
	_, _, again, err := LoadPolicy(form)
	if err != nil || !bytes.Equal(again, form) {
		t.Fatalf("the policy-only form does not load back to itself: %v", err)
	}
	if _, err := LoadAgentBytes(form); err == nil {
		t.Error("LoadAgent built an agent from a policy-only form")
	}

	rest := file[len(form):]
	criticLen, _ := nn.MLPFrameLen(criticSizes(cfg))
	actorParams, _ := nn.MLPParams(actorSizes(cfg))
	criticParams, _ := nn.MLPParams(criticSizes(cfg))
	want := len(stateMagic) + criticLen + len(frame) + criticLen +
		16 + 16*actorParams + 16 + 16*criticParams +
		8*cfg.ActionDim + 8 + 8 + 8 + 1
	if len(rest) != want || !bytes.HasPrefix(rest, []byte(stateMagic)) || rest[len(rest)-1] != 0 {
		t.Fatalf("the training state is %d bytes, want the %d of the layout, magic first, no replay flag last", len(rest), want)
	}
	if !bytes.Equal(rest[len(stateMagic):len(stateMagic)+criticLen], a.Critic.ParamFrame()) {
		t.Error("the critic's frame does not follow the magic")
	}
	if got := binary.LittleEndian.Uint64(rest[len(rest)-9:]); got != uint64(a.LearnSteps()) {
		t.Errorf("LearnSteps reads %d, want %d", got, a.LearnSteps())
	}

	withReplay, err := a.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}
	row := 8*(2+2*cfg.StateDim+cfg.ActionDim) + 1
	if n := len(withReplay) - len(file); n != 20+24+a.BufferLen()*row || withReplay[len(file)-1] != 1 {
		t.Errorf("the replay adds %d bytes, want a one-stripe header and %d rows of %d", n, a.BufferLen(), row)
	}
}

// TestConfigCodecCoversEveryField: the section's config layout carries
// every Config field, each to its own place — a field added to Config
// and not to appendConfig/readConfig fails here, not in a served file.
func TestConfigCodecCoversEveryField(t *testing.T) {
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(100 + i))
		case reflect.Float64:
			f.SetFloat(0.5 + float64(i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int{7, 8, 9}))
		default:
			t.Fatalf("Config.%s is a %v: teach appendConfig and readConfig about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	enc := appendConfig(nil, cfg)
	got, rest, err := readConfig(append(enc, 0xAB))
	if err != nil || !reflect.DeepEqual(got, cfg) || !bytes.Equal(rest, []byte{0xAB}) {
		t.Fatalf("readConfig(appendConfig(%+v)) = %+v, rest %v, %v", cfg, got, rest, err)
	}
	for n := range enc {
		if _, _, err := readConfig(enc[:n]); err == nil {
			t.Fatalf("a config cut to %d of %d bytes was read", n, len(enc))
		}
	}
}

// TestLoadPolicyMatchesLoadAgent: the policy LoadPolicy reads from the
// section acts bit for bit like the agent LoadAgent decodes from the
// training state, and like the agent that saved both.
func TestLoadPolicyMatchesLoadAgent(t *testing.T) {
	orig, file := servingAgent(t, DefaultConfig(6, 4))
	p, _, _, err := LoadPolicy(file)
	if err != nil {
		t.Fatal(err)
	}
	a, err := LoadAgentBytes(file)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	state := make([]float64, 6)
	got := make([]float64, 4)
	for trial := 0; trial < 20; trial++ {
		for j := range state {
			state[j] = 2 * rng.NormFloat64()
		}
		if err := p.Greedy(state, got); err != nil {
			t.Fatal(err)
		}
		for name, ref := range map[string]*Agent{"LoadAgent": a, "saved agent": orig} {
			want := greedy(t, ref, state)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("state %d: LoadPolicy acts %v, %s %v", trial, got, name, want)
				}
			}
		}
	}
}

// TestLoadPolicyRefusesDamage: the sum covers the whole file, so every
// truncation and one flipped byte anywhere — header, config, actor
// frame or the training state LoadPolicy never decodes — is refused by
// both readers.
func TestLoadPolicyRefusesDamage(t *testing.T) {
	a, file := servingAgent(t, DefaultConfig(6, 4))
	for n := 0; n < len(file); n += 1024 {
		if _, _, _, err := LoadPolicy(file[:n]); err == nil {
			t.Fatalf("LoadPolicy accepted the first %d of %d bytes", n, len(file))
		}
		if _, err := LoadAgentBytes(file[:n]); err == nil {
			t.Fatalf("LoadAgent accepted the first %d of %d bytes", n, len(file))
		}
	}
	configEnd := sectionHeaderLen + len(appendConfig(nil, a.cfg))
	frame, _ := a.ActorBytes()
	stateAt := configEnd + len(frame)
	for part, at := range map[string]int{
		"sum":    len(servingMagic) + 9,
		"config": sectionHeaderLen + 3,
		"frame":  configEnd + len(frame)/2,
		"state":  stateAt + (len(file)-stateAt)/2,
	} {
		bad := bytes.Clone(file)
		bad[at] ^= 0x10
		if _, _, _, err := LoadPolicy(bad); err == nil {
			t.Errorf("LoadPolicy accepted a flipped byte in the %s", part)
		}
		if _, err := LoadAgentBytes(bad); err == nil {
			t.Errorf("LoadAgent accepted a flipped byte in the %s", part)
		}
	}
}

// gobState is a training state as the agent wrote it before the
// GNFVAGT1 layout: the critic, actor target and critic target as gob
// network encodings, one after another (all-zero networks of a's
// shapes). Nothing writes that form any more; it is built here so that
// the readers' refusal of it stays pinned.
func gobState(t testing.TB, a *Agent) []byte {
	var b []byte
	for _, sizes := range [][]int{criticSizes(a.cfg), actorSizes(a.cfg), criticSizes(a.cfg)} {
		b = append(b, gobNetwork(t, sizes)...)
	}
	return b
}

// agentReadersRefuse: LoadAgentBytes and LoadStateBytes both refuse
// data with an error that says want, and the refusal leaves a as it
// was.
func agentReadersRefuse(t *testing.T, a *Agent, name string, data []byte, want string) {
	t.Helper()
	if _, err := LoadAgentBytes(data); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: LoadAgentBytes returned %v, want an error saying %q", name, err, want)
	}
	before, err := a.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.LoadStateBytes(data); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: LoadStateBytes returned %v, want an error saying %q", name, err, want)
	}
	if after, _ := a.StateBytes(false); !bytes.Equal(before, after) {
		t.Errorf("%s: a refused training state changed the agent", name)
	}
}

// TestLoadRefusesPreSectionCheckpoint: a bare training state — what
// the serving checkpoint was before the policy section, in today's
// layout or as gob networks — gets errNotServing from every reader.
func TestLoadRefusesPreSectionCheckpoint(t *testing.T) {
	a, file := servingAgent(t, frameConfig())
	for name, bare := range map[string][]byte{"bare state": trainingState(t, file), "bare gob state": gobState(t, a)} {
		if _, _, _, err := LoadPolicy(bare); !errors.Is(err, errNotServing) {
			t.Errorf("%s: LoadPolicy returned %v, want %v", name, err, errNotServing)
		}
		agentReadersRefuse(t, a, name, bare, errNotServing.Error())
	}
}

// TestLoadRefusesGobNetworks: a policy section followed by a training
// state the agent readers do not read — gob networks from before the
// GNFVAGT1 layout, or a state under another magic — still serves, since
// LoadPolicy reads nothing after the section, while LoadAgentBytes and
// LoadStateBytes refuse it and leave the agent as it was.
func TestLoadRefusesGobNetworks(t *testing.T) {
	a, file := servingAgent(t, frameConfig())
	foreign := bytes.Clone(trainingState(t, file))
	foreign[len(stateMagic)-1]++
	frame, _ := a.ActorBytes()
	for name, state := range map[string][]byte{"gob networks": gobState(t, a), "unknown state magic": foreign} {
		data := servingWith(t, a, state)
		p, cfg, _, err := LoadPolicy(data)
		if err != nil {
			t.Errorf("%s: the policy section no longer serves: %v", name, err)
		} else if !reflect.DeepEqual(cfg, frameConfig()) || !bytes.Equal(p.Actor.ParamFrame(), frame) {
			t.Errorf("%s: LoadPolicy's Config or actor differs from the section's", name)
		}
		agentReadersRefuse(t, a, name, data, "not a "+stateMagic+" training state")
	}
}

// allocated is the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadRefusesOversizedConfig: a Config is read from the file, and
// what it implies is compared with the bytes present before anything is
// sized by it — with arithmetic that cannot wrap. Each hostile file,
// sum intact, is refused for under 1 MB of allocation.
func TestLoadRefusesOversizedConfig(t *testing.T) {
	small, file := servingAgent(t, frameConfig())
	frame, _ := small.ActorBytes()
	state := trainingState(t, file)
	hostile := func(edit func(*Config)) Config {
		cfg := small.cfg
		edit(&cfg)
		return cfg
	}
	const budget = 1 << 20
	for name, cfg := range map[string]Config{
		"hidden 2^19":        hostile(func(c *Config) { c.Hidden = []int{1 << 19} }),
		"hidden 2^32 × 2^32": hostile(func(c *Config) { c.Hidden = []int{1 << 32, 1 << 32} }), // In·Out wraps to 0
		"hidden 2^31 × 2^31": hostile(func(c *Config) { c.Hidden = []int{1 << 31, 1 << 31} }),
		"state dim 2^62":     hostile(func(c *Config) { c.StateDim = 1 << 62 }),
		"negative width":     hostile(func(c *Config) { c.Hidden = []int{4, -3} }),
		"buffer beyond 2^40": hostile(func(c *Config) { c.BufferCap = math.MaxInt }),
	} {
		blob := appendSection(appendConfig(nil, cfg), frame, state)
		var perr, aerr error
		if n := allocated(func() { _, _, _, perr = LoadPolicy(blob) }); perr == nil || n > budget {
			t.Errorf("%s: LoadPolicy returned %v after allocating %d bytes", name, perr, n)
		}
		if n := allocated(func() { _, aerr = LoadAgentBytes(blob) }); aerr == nil || n > budget {
			t.Errorf("%s: LoadAgentBytes returned %v after allocating %d bytes", name, aerr, n)
		}
	}

	// An actor whose frame is all present beside a critic the training
	// state cannot hold: only LoadAgent builds a critic, and it must
	// refuse before New sizes one (~1 M parameters here) by the Config.
	cfg := hostile(func(c *Config) { c.StateDim, c.Hidden, c.ActionDim = 1, []int{64, 1}, 1<<14 })
	actorLen, _ := nn.MLPFrameLen(actorSizes(cfg)) // 264 KB
	blob := appendSection(appendConfig(nil, cfg), make([]byte, actorLen), state)
	var aerr error
	if n := allocated(func() { _, aerr = LoadAgentBytes(blob) }); aerr == nil || n > budget {
		t.Errorf("wide critic: LoadAgentBytes returned %v after allocating %d bytes", aerr, n)
	}

	// Two frames that fit four times the training state's length — the
	// slack gob's variable-length floats once needed — but not the state
	// itself. The state is padded to 256 KB, so New would build ~850 KB
	// of frames' parameters several times over (weights, gradients,
	// targets, Adam moments) before anything read them.
	cfg = hostile(func(c *Config) { c.Hidden = []int{8192} })
	actorLen, _ = nn.MLPFrameLen(actorSizes(cfg))
	criticLen, _ := nn.MLPFrameLen(criticSizes(cfg))
	padded := make([]byte, 256<<10)
	copy(padded, state)
	if two := actorLen + criticLen; two <= len(padded)/2 || two > 4*len(padded) {
		t.Fatalf("frames of %d bytes beside a %d-byte state no longer sit between the two bounds", two, len(padded))
	}
	blob = appendSection(appendConfig(nil, cfg), make([]byte, actorLen), padded)
	if n := allocated(func() { _, aerr = LoadAgentBytes(blob) }); aerr == nil || n > budget {
		t.Errorf("frames beyond the state: LoadAgentBytes returned %v after allocating %d bytes", aerr, n)
	}
}

// FuzzLoadPolicy: no input panics LoadPolicy, and an accepted input's
// policy-only form loads back to itself, the same Config and the same
// actor bits. Each input also runs again under a sum rewritten to match
// it, so mutations reach the config and frame checks behind the CRC.
// Seeds (f.Add, a small topology so inputs stay a few KB): a serving
// checkpoint, its policy-only form, its training state alone, and the
// checkpoint cut at the end of its actor frame.
func FuzzLoadPolicy(f *testing.F) {
	_, file := servingAgent(f, frameConfig())
	_, _, form, err := LoadPolicy(file)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(form)
	f.Add(trainingState(f, file))
	f.Add(file[:len(form)])
	check := func(t *testing.T, data []byte) {
		p, cfg, form, err := LoadPolicy(data)
		if err != nil {
			return
		}
		q, again, form2, err := LoadPolicy(form)
		if err != nil {
			t.Fatalf("an accepted file's policy-only form was refused: %v", err)
		}
		if !bytes.Equal(form2, form) || !bytes.Equal(appendConfig(nil, again), appendConfig(nil, cfg)) {
			t.Fatal("the policy-only form does not load back to itself")
		}
		if !bytes.Equal(p.Actor.ParamFrame(), q.Actor.ParamFrame()) {
			t.Fatal("the policy-only form loads other actor bits")
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= sectionHeaderLen {
			check(t, appendSection(data[sectionHeaderLen:], nil, nil))
		}
	})
}
