package apex

import (
	"bytes"
	"strings"
	"testing"
)

// A spec is the one thing cmd/apexactor reads off the wire before it
// has a learner to talk to, so a payload the model would refuse has to
// come back as an error from BuildEnv — env.New evaluates once at
// construction and treats a model error there as a bug (it panics).
// The same flow table runs through env.New directly in
// env.TestNewRejectsHostileFlows.
func TestBuildEnvRejectsHostileFlows(t *testing.T) {
	for _, c := range []struct{ name, json string }{
		{"runt frame", `{"flows":[{"pps":1e6,"frame_bytes":32,"burstiness":1}],"push_every":1,"sync_every":1}`},
		{"jumbo frame", `{"flows":[{"pps":1e6,"frame_bytes":9000,"burstiness":1}],"push_every":1,"sync_every":1}`},
		{"negative frame", `{"flows":[{"pps":1e6,"frame_bytes":-64}],"push_every":1,"sync_every":1}`},
		{"zero pps", `{"flows":[{"pps":0,"frame_bytes":512}],"push_every":1,"sync_every":1}`},
		{"negative pps", `{"flows":[{"pps":-5,"frame_bytes":512}],"push_every":1,"sync_every":1}`},
		{"rates overflow", `{"flows":[{"pps":1.5e308,"frame_bytes":64},{"pps":1.5e308,"frame_bytes":64}],"push_every":1,"sync_every":1}`},
		{"burstiness overflow", `{"flows":[{"pps":1e300,"frame_bytes":64,"burstiness":1e300}],"push_every":1,"sync_every":1}`},
		{"jitter 1", `{"load_jitter":1,"push_every":1,"sync_every":1}`},
		{"negative jitter", `{"load_jitter":-0.1,"push_every":1,"sync_every":1}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := DecodeActorSpec(strings.NewReader(c.json))
			if err != nil {
				return // rejected even earlier: fine
			}
			if e, err := spec.BuildEnv(0); err == nil {
				t.Errorf("BuildEnv accepted the spec (state dim %d)", e.StateDim())
			}
		})
	}
}

// FuzzDecodeActorSpec: whatever JSON arrives on an actor's stdin,
// decode → BuildEnv → one step returns an environment or an error and
// never panics. Seeds in testdata/fuzz/FuzzDecodeActorSpec.
func FuzzDecodeActorSpec(f *testing.F) {
	var valid bytes.Buffer
	if err := testSpec().Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeActorSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		e, err := spec.BuildEnv(1)
		if err != nil {
			return
		}
		if _, _, _, err := e.Step(make([]float64, e.ActionDim())); err != nil {
			t.Fatalf("built environment does not step: %v", err)
		}
	})
}
