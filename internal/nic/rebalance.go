package nic

import "sync/atomic"

// This file is the device half of adaptive RSS rebalancing (DESIGN.md
// §16): per-bucket load counters the rebalancer reads, and the queued,
// producer-applied Reta.Assign swap that anchors each redirection-table
// change to an exact ring-tail snapshot so the control plane can tell
// when every frame dispatched under the old assignment has drained.

// AssignReq states. A request is applied exactly once, by the producer
// (or by ApplyAssignsClosed after the producer has finished), unless
// the control plane cancels it first.
const (
	assignPending int32 = iota
	assignApplied
	assignCanceled
)

// AssignReq is one queued redirection-table assignment. The control
// plane creates it with RequestAssign, the producer applies it between
// frames, and the snapshot fields become valid once Applied reports
// true.
type AssignReq struct {
	Bucket int
	Queue  int16

	state atomic.Int32
	// Valid after Applied(): the queue the bucket moved from and the
	// source ring's tail cursor at the swap. Every frame of the bucket
	// enqueued under the old assignment sits below tailSnap; once the
	// source core's head cursor reaches it, the old ring has drained.
	srcQueue int16
	tailSnap uint64
	epoch    uint64
}

// Applied reports whether the producer has executed the swap; the
// snapshot accessors are only meaningful afterwards.
func (r *AssignReq) Applied() bool { return r.state.Load() == assignApplied }

// SrcQueue reports the queue the bucket was assigned to before the
// swap. Valid only after Applied.
func (r *AssignReq) SrcQueue() int16 { return r.srcQueue }

// TailSnap reports the source ring's tail cursor at the instant of the
// swap. Valid only after Applied.
func (r *AssignReq) TailSnap() uint64 { return r.tailSnap }

// Epoch reports the redirection-table epoch the swap produced. Valid
// only after Applied.
func (r *AssignReq) Epoch() uint64 { return r.epoch }

// RequestAssign queues a redirection-table swap moving bucket to queue.
// The producer applies it at its next DeliverBurst/FlushPending
// call; poll Applied (the plane does, with its usual ack-wait loop). If
// the producer has already closed the port, apply the queue with
// ApplyAssignsClosed. Safe from any goroutine.
func (n *NIC) RequestAssign(bucket int, queue int16) *AssignReq {
	r := &AssignReq{Bucket: bucket, Queue: queue}
	n.assignMu.Lock()
	n.assignQ = append(n.assignQ, r)
	n.assignMu.Unlock()
	n.assignFlag.Store(true)
	return r
}

// CancelAssign withdraws a queued request, reporting whether the cancel
// won the race: false means the producer already applied it (or it was
// canceled before) and the caller must treat the swap as real.
func (n *NIC) CancelAssign(r *AssignReq) bool {
	return r.state.CompareAndSwap(assignPending, assignCanceled)
}

// ApplyAssignsClosed applies queued assignment requests after Close —
// the producer is gone, so it is safe from the control plane's
// goroutine. Reports false (doing nothing) while the port is open.
func (n *NIC) ApplyAssignsClosed() bool {
	if !n.closed.Load() {
		return false
	}
	n.applyAssigns()
	return true
}

// applyAssigns drains the request queue on the producer (or, after
// Close, the control plane). Each applied swap first publishes any
// staged burst for the bucket's current queue, so the tail snapshot
// covers every frame dispatched under the old assignment.
func (n *NIC) applyAssigns() {
	n.assignMu.Lock()
	reqs := n.assignQ
	n.assignQ = nil
	n.assignFlag.Store(false)
	n.assignMu.Unlock()
	for _, r := range reqs {
		src := n.reta.Assigned(r.Bucket)
		if int(src) < len(n.pending) && len(n.pending[src]) > 0 {
			n.flushQueue(int(src))
		}
		// The snapshot fields must be visible before the applied state
		// (the plane reads them only after observing Applied).
		r.srcQueue = src
		r.tailSnap = n.rings[src].Tail()
		r.epoch = n.retaEpoch.Add(1)
		if !r.state.CompareAndSwap(assignPending, assignApplied) {
			continue // canceled while queued: leave the table alone
		}
		n.reta.Assign(r.Bucket, r.Queue)
	}
}

// RetaSize reports the redirection table's entry count.
func (n *NIC) RetaSize() int { return n.reta.Size() }

// RetaEntry reports bucket's live dispatch target (SinkQueue if sunk).
func (n *NIC) RetaEntry(bucket int) int16 { return n.reta.Entry(bucket) }

// RetaAssigned reports bucket's queue assignment looking through any
// sink diversion.
func (n *NIC) RetaAssigned(bucket int) int16 { return n.reta.Assigned(bucket) }

// RetaEpoch reports how many assignment swaps have been applied.
func (n *NIC) RetaEpoch() uint64 { return n.retaEpoch.Load() }

// BucketPackets snapshots the per-bucket RSS frame counters into out
// (allocating when out is short) and returns it. The rebalancer diffs
// consecutive snapshots for a windowed load signal. Safe from any
// goroutine.
func (n *NIC) BucketPackets(out []uint64) []uint64 {
	if cap(out) < len(n.bucketPkts) {
		out = make([]uint64, len(n.bucketPkts))
	}
	out = out[:len(n.bucketPkts)]
	for i := range n.bucketPkts {
		out[i] = n.bucketPkts[i].Load()
	}
	return out
}
