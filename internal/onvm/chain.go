package onvm

import (
	"errors"
	"fmt"
	"strings"
)

// Chain is a service chain: network functions in series, each with
// its own RX ring, exactly as the paper's testbed deploys them
// ("Network functions are chained with a series connection").
type Chain struct {
	name string
	nfs  []*NF
}

// ChainConfig sizes a chain's per-NF resources.
type ChainConfig struct {
	// RingCap is each NF's RX ring capacity (power of two).
	RingCap int
	// Batch is the initial dequeue burst size for every NF.
	Batch int
}

// NewChain wires handlers into a chain. The first handler receives
// RX traffic; the last handler's survivors count as completed.
func NewChain(name string, cfg ChainConfig, handlers ...Handler) (*Chain, error) {
	if name == "" {
		return nil, errors.New("onvm: chain needs a name")
	}
	if len(handlers) == 0 {
		return nil, errors.New("onvm: chain needs at least one NF")
	}
	c := &Chain{name: name}
	for _, h := range handlers {
		nf, err := NewNF(h, cfg.RingCap, cfg.Batch)
		if err != nil {
			return nil, fmt.Errorf("onvm: chain %s: %w", name, err)
		}
		c.nfs = append(c.nfs, nf)
	}
	for i := 0; i < len(c.nfs)-1; i++ {
		c.nfs[i].next = c.nfs[i+1]
	}
	return c, nil
}

// Name reports the chain name.
func (c *Chain) Name() string { return c.name }

// Len reports the number of NFs.
func (c *Chain) Len() int { return len(c.nfs) }

// NFs returns the chain's NF instances in order.
func (c *Chain) NFs() []*NF { return c.nfs }

// Head returns the first NF (the chain's ingress).
func (c *Chain) Head() *NF { return c.nfs[0] }

// Tail returns the last NF.
func (c *Chain) Tail() *NF { return c.nfs[len(c.nfs)-1] }

// Completed reports packets that made it through the whole chain.
func (c *Chain) Completed() uint64 { return c.Tail().Stats().TxPackets.Load() }

// String renders the chain topology.
func (c *Chain) String() string {
	names := make([]string, len(c.nfs))
	for i, nf := range c.nfs {
		names[i] = nf.Name()
	}
	return c.name + "[" + strings.Join(names, " -> ") + "]"
}
