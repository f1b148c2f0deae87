package rpcutil_test

import (
	"reflect"
	"testing"

	"greennfv/internal/rl/apex"
	"greennfv/internal/rpcutil"
	"greennfv/internal/serve"
)

// TestServiceMessagesAreLaidOut keeps gob off both planes: every RPC
// method of the training plane's and the serving plane's services —
// every exported func(*A, *R) error, the shape Serve registers — takes
// and returns types that implement Wire, so no call of either plane
// crosses as a gob body.
func TestServiceMessagesAreLaidOut(t *testing.T) {
	wire := reflect.TypeOf((*rpcutil.Wire)(nil)).Elem()
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for _, rcvr := range []any{&apex.LearnerService{}, &serve.ControllerService{}} {
		rt, methods := reflect.TypeOf(rcvr), 0
		for i := 0; i < rt.NumMethod(); i++ {
			m := rt.Method(i).Type
			if m.NumIn() != 3 || m.In(1).Kind() != reflect.Pointer || m.In(2).Kind() != reflect.Pointer ||
				m.NumOut() != 1 || m.Out(0) != errType {
				continue
			}
			methods++
			for _, msg := range []reflect.Type{m.In(1), m.In(2)} {
				if !msg.Implements(wire) {
					t.Errorf("%v.%s: %v does not implement rpcutil.Wire, so it would cross as gob", rt, rt.Method(i).Name, msg)
				}
			}
		}
		if methods == 0 {
			t.Errorf("%v has no RPC methods: the gate checks nothing", rt)
		}
	}
}
