package rpcutil_test

import (
	"maps"
	"slices"
	"testing"

	"greennfv/internal/rl/apex"
	"greennfv/internal/rpcutil"
	"greennfv/internal/serve"
)

// TestServiceMessagesAreLaidOut keeps gob off both planes and their
// protocol where it was: the training plane's and the serving plane's
// handler tables — what apex.Serve and Controller.Start serve — hold
// the method names peers call, and every handler in them makes
// arguments and replies that implement Wire, so no call of either
// plane crosses as a gob body.
func TestServiceMessagesAreLaidOut(t *testing.T) {
	for _, plane := range []struct {
		handlers map[string]rpcutil.Handler
		names    []string
	}{
		{apex.NewLearnerService(nil, 1).Handlers(), []string{"Learner.Pull", "Learner.Push", "Learner.Register"}},
		{new(serve.Controller).Handlers(), []string{"Controller.Register", "Controller.Report"}},
	} {
		if got := slices.Sorted(maps.Keys(plane.handlers)); !slices.Equal(got, plane.names) {
			t.Errorf("methods %q, want %q: a peer calls them by these names", got, plane.names)
		}
		for name, h := range plane.handlers {
			args, reply := h.Messages()
			for _, msg := range []any{args, reply} {
				if _, ok := msg.(rpcutil.Wire); !ok {
					t.Errorf("%s: %T does not implement rpcutil.Wire, so it would cross as gob", name, msg)
				}
			}
		}
	}
}
