package faultrpc

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultRule parameterizes the proxy's per-connection fault draws.
type FaultRule struct {
	// DropProb is the probability that an accepted connection is cut
	// after a short delay instead of proxied — the client's next read
	// or write on it fails mid-call.
	DropProb float64
	// DelayProb is the probability that a connection's setup is held
	// for Delay before any bytes flow.
	DelayProb float64
	Delay     time.Duration
}

// FaultProxyStats counts injected faults.
type FaultProxyStats struct {
	Accepted, Dropped, Delayed, Refused int64
}

// FaultProxy is a TCP proxy in front of an rpcutil.Server that injects
// faults per FaultRule. Zero-valued rules proxy transparently.
//
// Teardown contract: a connection is closed exactly once, by whoever
// removes it from the tracking set — so Close (or Partition) racing a
// finishing per-connection goroutine cannot double-close; and the
// injected drop/delay sleeps are interruptible, so Close never waits
// out a fault schedule to return.
type FaultProxy struct {
	target   string
	listener net.Listener
	wg       sync.WaitGroup
	done     chan struct{} // closed by Close; interrupts fault sleeps

	mu          sync.Mutex
	rng         *rand.Rand
	rule        FaultRule
	partitioned bool
	conns       map[net.Conn]struct{}
	closed      bool

	accepted, dropped, delayed, refused atomic.Int64
}

// NewFaultProxy listens on an ephemeral loopback port and forwards
// connections to target, applying fault rules drawn from an RNG
// seeded with seed.
func NewFaultProxy(target string, seed int64) (*FaultProxy, error) {
	if target == "" {
		return nil, errors.New("faultrpc: fault proxy needs a target address")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultrpc: fault proxy listen: %w", err)
	}
	p := &FaultProxy{
		target:   target,
		listener: ln,
		done:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(seed)),
		conns:    make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address — what actors should dial.
func (p *FaultProxy) Addr() string { return p.listener.Addr().String() }

// SetRule replaces the fault rule (applies to new connections).
func (p *FaultProxy) SetRule(r FaultRule) {
	p.mu.Lock()
	p.rule = r
	p.mu.Unlock()
}

// Partition, when on, severs every live connection and refuses new
// ones until turned off — a full network partition between the
// clients and the server.
func (p *FaultProxy) Partition(on bool) {
	p.mu.Lock()
	p.partitioned = on
	var victims []net.Conn
	if on {
		victims = p.takeConnsLocked()
	}
	p.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// takeConnsLocked empties the tracking set and hands ownership of the
// connections (and their close) to the caller. Caller holds mu.
func (p *FaultProxy) takeConnsLocked() []net.Conn {
	victims := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		victims = append(victims, c)
	}
	p.conns = make(map[net.Conn]struct{})
	return victims
}

// Stats returns the injected-fault counters.
func (p *FaultProxy) Stats() FaultProxyStats {
	return FaultProxyStats{
		Accepted: p.accepted.Load(),
		Dropped:  p.dropped.Load(),
		Delayed:  p.delayed.Load(),
		Refused:  p.refused.Load(),
	}
}

// Close stops the proxy and severs every connection. It interrupts
// in-flight fault sleeps, so it returns promptly even under a long
// Delay rule, and it is safe against dials landing mid-shutdown.
func (p *FaultProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	victims := p.takeConnsLocked()
	p.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	err := p.listener.Close()
	p.wg.Wait()
	return err
}

// acceptLoop draws one fault decision per accepted connection.
func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		p.mu.Lock()
		if p.closed || p.partitioned {
			refused := p.partitioned
			p.mu.Unlock()
			conn.Close()
			if refused {
				p.refused.Add(1)
				continue
			}
			return
		}
		rule := p.rule
		drop := rule.DropProb > 0 && p.rng.Float64() < rule.DropProb
		delay := rule.DelayProb > 0 && p.rng.Float64() < rule.DelayProb
		p.conns[conn] = struct{}{}
		p.mu.Unlock()

		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.forget(conn)
			if drop {
				// Cut after a beat: long enough for the client to have
				// committed a request onto the wire, short enough to
				// fail it mid-call. The deferred forget does the close.
				p.dropped.Add(1)
				p.pause(time.Millisecond)
				return
			}
			if delay {
				p.delayed.Add(1)
				if !p.pause(rule.Delay) {
					return // proxy closing; forget tears the conn down
				}
			}
			p.proxy(conn)
		}()
	}
}

// pause sleeps for d unless the proxy closes first, reporting whether
// the full pause elapsed — so Close is never blocked behind an
// injected fault delay.
func (p *FaultProxy) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.done:
		return false
	}
}

// track registers conn for teardown. It reports false — without
// registering — when the proxy is closed or partitioned; the caller
// then owns closing conn.
func (p *FaultProxy) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.partitioned {
		return false
	}
	p.conns[conn] = struct{}{}
	return true
}

// forget removes conn from the tracking set and, if it was still
// tracked, closes it. Removal transfers close ownership: if Close or
// Partition already took the connection, they closed it, and forget
// must not close it again.
func (p *FaultProxy) forget(conn net.Conn) {
	p.mu.Lock()
	_, mine := p.conns[conn]
	delete(p.conns, conn)
	p.mu.Unlock()
	if mine {
		conn.Close()
	}
}

// proxy shuttles bytes both ways until either side closes.
func (p *FaultProxy) proxy(client net.Conn) {
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		return // target down: client sees the severed connection
	}
	if !p.track(upstream) {
		upstream.Close()
		return
	}
	defer p.forget(upstream)

	// Either direction finishing severs both conns via forget (which
	// is exactly-once), unblocking the other copy. The copy goroutine
	// is joined before proxy returns, so Close's wg.Wait observes it
	// transitively.
	done := make(chan struct{})
	go func() {
		io.Copy(upstream, client)
		p.forget(upstream)
		p.forget(client)
		close(done)
	}()
	io.Copy(client, upstream)
	p.forget(upstream)
	p.forget(client)
	<-done
}
