package faultrpc_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greennfv/internal/faultrpc"
	"greennfv/internal/rpcutil"
)

// Echo is the RPC receiver behind the proxy.
type Echo struct{ calls atomic.Int64 }

// Ping counts a call and echoes its argument.
func (e *Echo) Ping(in *int, out *int) error {
	e.calls.Add(1)
	*out = *in
	return nil
}

// proxyFixture stands an rpcutil server up behind a FaultProxy.
func proxyFixture(t *testing.T, seed int64) (*Echo, *faultrpc.FaultProxy) {
	t.Helper()
	echo := &Echo{}
	srv, err := rpcutil.Serve("Echo", echo, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	proxy, err := faultrpc.NewFaultProxy(srv.Addr(), seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return echo, proxy
}

// ping dials through the proxy afresh — what a client that lost its
// connection does — and makes one call, up to tries times.
func ping(addr string, tries int) error {
	var err error
	for i := 0; i < tries; i++ {
		var conn *rpcutil.Conn
		if conn, err = rpcutil.Dial(addr, time.Second); err != nil {
			continue
		}
		in, out := 7, 0
		err = conn.Call("Echo.Ping", &in, &out)
		conn.Close()
		if err == nil {
			return nil
		}
	}
	return err
}

// TestFaultProxyTransparent pins that a rule-free proxy is invisible
// to the RPC layer: calls work through it and arrive upstream.
func TestFaultProxyTransparent(t *testing.T) {
	echo, proxy := proxyFixture(t, 1)
	conn, err := rpcutil.Dial(proxy.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		in, out := i, -1
		if err := conn.Call("Echo.Ping", &in, &out); err != nil || out != i {
			t.Fatalf("ping %d through proxy: got %d, %v", i, out, err)
		}
	}
	if echo.calls.Load() != 3 {
		t.Errorf("server saw %d calls through proxy, want 3", echo.calls.Load())
	}
	if st := proxy.Stats(); st.Accepted == 0 {
		t.Errorf("proxy stats show no accepted connections: %+v", st)
	}
}

// TestFaultProxyDropsAndRetry pins the retry story end to end: with
// the proxy killing every new connection, a client exhausts its
// redials and fails; once the fault is lifted the next call recovers.
func TestFaultProxyDropsAndRetry(t *testing.T) {
	echo, proxy := proxyFixture(t, 2)
	proxy.SetRule(faultrpc.FaultRule{DropProb: 1})
	if err := ping(proxy.Addr(), 3); err == nil {
		t.Fatal("call through a fully lossy proxy succeeded")
	}
	if st := proxy.Stats(); st.Dropped == 0 {
		t.Errorf("no connections dropped: %+v", st)
	}

	proxy.SetRule(faultrpc.FaultRule{})
	if err := ping(proxy.Addr(), 1); err != nil {
		t.Fatalf("call after fault lifted: %v", err)
	}
	if echo.calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1", echo.calls.Load())
	}
}

// TestFaultProxyDelay pins the delay rule: calls still succeed, just
// slower, and the proxy counts them.
func TestFaultProxyDelay(t *testing.T) {
	_, proxy := proxyFixture(t, 3)
	proxy.SetRule(faultrpc.FaultRule{DelayProb: 1, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := ping(proxy.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("delayed connection completed in %v, want >= 20ms", elapsed)
	}
	if st := proxy.Stats(); st.Delayed == 0 {
		t.Errorf("no connections delayed: %+v", st)
	}
}

// TestFaultProxyPartition pins partition semantics: existing
// connections are severed and new ones refused until the partition
// heals, after which a client recovers by redialing.
func TestFaultProxyPartition(t *testing.T) {
	echo, proxy := proxyFixture(t, 4)
	conn, err := rpcutil.Dial(proxy.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in, out := 1, 0
	if err := conn.Call("Echo.Ping", &in, &out); err != nil {
		t.Fatal(err)
	}

	proxy.Partition(true)
	if err := conn.Call("Echo.Ping", &in, &out); err == nil {
		t.Fatal("call on a connection the partition severed succeeded")
	}
	if err := ping(proxy.Addr(), 3); err == nil {
		t.Fatal("call across a partition succeeded")
	}
	if st := proxy.Stats(); st.Refused == 0 {
		t.Errorf("partition refused no connections: %+v", st)
	}

	proxy.Partition(false)
	if err := ping(proxy.Addr(), 1); err != nil {
		t.Fatalf("call after partition healed: %v", err)
	}
	if echo.calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2", echo.calls.Load())
	}
}

// TestFaultProxyCloseUnderChurn hammers the proxy with concurrent
// dials — under a rule that parks every connection in a drop or delay
// sleep — while Close runs. The race detector covers close ordering
// (no double-close, no copy goroutine racing forget); the test itself
// pins that Close returns promptly instead of waiting out the
// injected delay, and that a dial landing mid-shutdown cannot wedge
// the proxy or leak a goroutine past wg.Wait.
func TestFaultProxyCloseUnderChurn(t *testing.T) {
	_, proxy := proxyFixture(t, 5)
	proxy.SetRule(faultrpc.FaultRule{DropProb: 0.3, DelayProb: 0.7, Delay: 5 * time.Second})
	addr := proxy.Addr()

	var dialers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		dialers.Add(1)
		go func() {
			defer dialers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return // listener closed: shutdown reached us
				}
				conn.Write([]byte("x"))
				conn.Close()
			}
		}()
	}
	// Let connections pile up inside the fault sleeps.
	time.Sleep(10 * time.Millisecond)

	start := time.Now()
	if err := proxy.Close(); err != nil {
		t.Fatalf("close under churn: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close took %v — blocked behind the injected 5s delay", elapsed)
	}
	close(stop)
	dialers.Wait()

	if err := proxy.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
