// The replicated data path: write fan-out with W-of-R direct-ack
// quorums and hint buffering, and read replica selection with
// fall-through.
//
// Freshness invariant: after a write completes, every owner either (a)
// directly acknowledged the data, (b) has a pending hint for the key,
// or (c) had its hint shed into the shed-range union (and, in
// write-back mode, its acked bit cleared). Reads exclude (b), (c), and
// — for dirty keys — nodes without the acked bit, so a successful read
// can never return data older than the last acknowledged write.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/appliance"
	"repro/internal/block"
)

// mergeCap bounds how many bytes of adjacent blocks a single extent
// accumulates when batching per node.
const mergeCap = 512 * 1024

// nodePlan is one node's share of an op: the ref indices routed to it.
type nodePlan struct {
	n    *node
	idxs []int
}

// fanOut runs send once per plan, concurrently, and waits for all of
// them. The last plan runs on the calling goroutine, so a one-node op —
// every read of a healthy ring — starts no goroutine.
func fanOut(plans map[int]*nodePlan, send func(p *nodePlan)) {
	var wg sync.WaitGroup
	var last *nodePlan
	for _, p := range plans {
		if last != nil {
			wg.Add(1)
			go func(p *nodePlan) {
				defer wg.Done()
				send(p)
			}(last)
		}
		last = p
	}
	if last != nil {
		send(last)
	}
	wg.Wait()
}

// planFor lazily creates the plan entry for a node.
func planFor(plans map[int]*nodePlan, n *node) *nodePlan {
	p := plans[n.id]
	if p == nil {
		p = &nodePlan{n: n}
		plans[n.id] = p
	}
	return p
}

// buildExtents turns a node's ref indices into wire extents, merging
// runs of adjacent blocks whose buffer slices are contiguous (same
// source segment, consecutive keys, adjacent indices).
func buildExtents(refs []blockRef, idxs []int) []appliance.Extent {
	exts := make([]appliance.Extent, 0, len(idxs))
	prev := -2
	for _, i := range idxs {
		r := refs[i]
		if i == prev+1 {
			pr := refs[prev]
			last := &exts[len(exts)-1]
			if r.seg == pr.seg && r.key == pr.key+1 &&
				len(last.Data)+block.Size <= mergeCap &&
				cap(last.Data) >= len(last.Data)+block.Size {
				last.Data = last.Data[:len(last.Data)+block.Size]
				prev = i
				continue
			}
		}
		exts = append(exts, appliance.Extent{
			Server: r.key.Server(),
			Volume: r.key.Volume(),
			Off:    r.key.Offset(),
			Data:   r.data,
		})
		prev = i
	}
	return exts
}

// sendExtents ships extents to one node, chunked under the wire
// protocol's extent-count and byte limits; single extents go scalar.
func sendExtents(n *node, exts []appliance.Extent, write bool) error {
	for len(exts) > 0 {
		count, bytes := 0, 0
		for count < len(exts) && count < appliance.MaxVecExtents {
			if bytes+len(exts[count].Data) > appliance.MaxIOBytes {
				break
			}
			bytes += len(exts[count].Data)
			count++
		}
		if count == 0 {
			count = 1 // a single over-budget extent cannot happen (≤ mergeCap)
		}
		chunk := exts[:count]
		var err error
		switch {
		case len(chunk) == 1 && write:
			err = n.cl.WriteAt(chunk[0].Server, chunk[0].Volume, chunk[0].Data, chunk[0].Off)
		case len(chunk) == 1:
			err = n.cl.ReadAt(chunk[0].Server, chunk[0].Volume, chunk[0].Data, chunk[0].Off)
		case write:
			err = n.cl.WriteBatch(chunk)
		default:
			err = n.cl.ReadBatch(chunk)
		}
		if err != nil {
			return err
		}
		exts = exts[count:]
	}
	return nil
}

// hintBlockLocked buffers ref for n and clears n's acked bit — the node
// no longer holds the freshest copy until the hint drains. Caller holds
// ref's stripe lock.
func (c *Client) hintBlockLocked(n *node, ref blockRef) {
	data := append([]byte(nil), ref.data...)
	n.offerHint(ref.key, data, c.cfg.HandoffMax)
	c.hinted.Add(1)
	c.markAcked(ref.key, n.id, false)
}

// effectiveQuorum is W clamped to the live ring size.
func (c *Client) effectiveQuorum(topo *topology) int {
	need := c.cfg.WriteQuorum
	if rs := len(topo.ring.ids); need > rs {
		need = rs
	}
	return need
}

// writeRefs fans the blocks out to their owners: direct batched writes
// to serving nodes, hints for the rest. Per block, at least
// effectiveQuorum owners must acknowledge directly or the op fails with
// ErrWriteQuorum (hinted copies are still delivered eventually either
// way). The refs' stripe locks are held across the fan-out, serializing
// same-key writes, hint supersede, drain, and re-replication against
// each other.
func (c *Client) writeRefs(refs []blockRef) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if len(refs) == 0 {
		return nil
	}
	topo := c.topo.Load()
	unlock := c.lockStripes(refs)
	defer unlock()

	plans := make(map[int]*nodePlan)
	var owners []int
	lastGroup := ^uint64(0)
	for i, ref := range refs {
		if g := c.group(ref.key); g != lastGroup {
			owners = topo.ownersFor(c, ref.key, owners)
			lastGroup = g
		}
		for _, id := range owners {
			n := topo.nodes[id]
			if n.serving() {
				p := planFor(plans, n)
				p.idxs = append(p.idxs, i)
			} else {
				c.hintBlockLocked(n, ref)
			}
		}
	}

	acks := make([]int, len(refs))
	var mu sync.Mutex // serializes ack/hint/dirty bookkeeping across node goroutines
	fanOut(plans, func(p *nodePlan) {
		err := sendExtents(p.n, buildExtents(refs, p.idxs), true)
		c.recordResult(p.n, err)
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			for _, i := range p.idxs {
				acks[i]++
				c.markAcked(refs[i].key, p.n.id, true)
				// Any pending hint predates this write: superseded.
				p.n.dropHint(refs[i].key)
			}
			return
		}
		for _, i := range p.idxs {
			c.hintBlockLocked(p.n, refs[i])
		}
	})
	c.writeBlocks.Add(int64(len(refs)))

	need := c.effectiveQuorum(topo)
	for i, a := range acks {
		if a < need {
			c.quorumFailures.Add(1)
			c.kickRepair()
			return fmt.Errorf("%w: block %v got %d/%d direct acks", ErrWriteQuorum, refs[i].key, a, need)
		}
	}
	return nil
}

// readEligible reports whether node id may serve key right now: it must
// be serving, hold no pending hint or shed range covering the key, and
// — for a write-back-dirty key — carry the acked bit.
func (c *Client) readEligible(n *node, key block.Key) bool {
	if !n.serving() {
		return false
	}
	if n.pendingHint(key) || n.inShed(key) {
		return false
	}
	return c.ackedBit(key, n.id)
}

// readRefs fills every ref from the first eligible replica in its
// preference order, falling through to the next replica when a node
// fails mid-read. Takes no stripe locks: eligibility checks are
// point-in-time, and the freshness invariant (see package comment)
// makes any eligible replica safe.
func (c *Client) readRefs(refs []blockRef) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if len(refs) == 0 {
		return nil
	}
	topo := c.topo.Load()
	pending := make([]int, len(refs))
	for i := range pending {
		pending[i] = i
	}
	tried := make([]uint64, len(refs))

	for pass := 0; len(pending) > 0; pass++ {
		if pass > c.cfg.Replicas {
			return fmt.Errorf("%w: exhausted %d fall-through passes", ErrNoReplica, pass)
		}
		plans := make(map[int]*nodePlan)
		var owners []int
		lastGroup := ^uint64(0)
		for _, i := range pending {
			ref := refs[i]
			if g := c.group(ref.key); g != lastGroup {
				owners = topo.ownersFor(c, ref.key, owners)
				lastGroup = g
			}
			chosen := -1
			for _, id := range owners {
				if tried[i]&(1<<uint(id)) != 0 {
					continue
				}
				if c.readEligible(topo.nodes[id], ref.key) {
					chosen = id
					break
				}
			}
			if chosen < 0 {
				return fmt.Errorf("%w: block %v (every owner down, hinted, shed, or behind)", ErrNoReplica, ref.key)
			}
			tried[i] |= 1 << uint(chosen)
			p := planFor(plans, topo.nodes[chosen])
			p.idxs = append(p.idxs, i)
		}

		var mu sync.Mutex
		var failed []int
		fanOut(plans, func(p *nodePlan) {
			err := sendExtents(p.n, buildExtents(refs, p.idxs), false)
			c.recordResult(p.n, err)
			if err != nil {
				mu.Lock()
				failed = append(failed, p.idxs...)
				mu.Unlock()
			}
		})
		if len(failed) > 0 {
			c.fallthroughs.Add(int64(len(failed)))
			sortInts(failed)
		}
		pending = failed
	}
	c.readBlocks.Add(int64(len(refs)))
	return nil
}
