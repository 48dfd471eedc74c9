package core

import (
	"sync/atomic"
	"time"

	"retina/internal/conntrack"
	"retina/internal/overload"
)

// RETA bucket migration, the core half (DESIGN.md §16). The control
// plane moves a redirection-table bucket from a source queue to a
// destination queue in three phases:
//
//  1. Fence: the Migration is posted to the destination core, which
//     acks it at a burst boundary and then stops dequeuing — frames the
//     swapped bucket sends its way must not be processed before the
//     bucket's connections arrive (per-flow FIFO would break).
//  2. Swap: the NIC producer applies Reta.Assign between frames and
//     snapshots the source ring's tail cursor. The plane then posts the
//     Migration to the source core.
//  3. Handoff: the source core keeps processing until its ring head
//     passes the tail snapshot (every frame dispatched under the old
//     assignment has then been processed), extracts the bucket's
//     connections with their buffer accounting released, and publishes
//     the package; the fenced destination imports it — re-reserving
//     budgets, re-scheduling deadlines, preserving IDs — and resumes.
//
// Cancellation is a CAS race: the plane may withdraw a migration until
// the source commits to extraction; afterwards the handoff always
// completes. An abandoned migration leaves every connection where it
// was.

// Migration lifecycle states.
const (
	migPosted int32 = iota
	migAcked
	migExtracted
	migImported
	migCanceled
)

// Migration is one bucket move in flight, shared by the control plane
// and the two involved cores.
type Migration struct {
	// Bucket is the redirection-table index being moved; RetaSize the
	// table's entry count (bucket membership is RSSHash mod RetaSize).
	Bucket   int
	RetaSize int
	// SrcID/DstID are the core (= queue) indices on each side.
	SrcID int
	DstID int
	// TailSnap is the source ring's tail cursor at the RETA swap,
	// written by the plane (from the applied AssignReq) before the
	// Migration is posted to the source core.
	TailSnap uint64

	state atomic.Int32
	pkg   atomic.Pointer[MigrationPackage]
	moved atomic.Int64
}

// NewMigration builds a migration moving bucket (of a retaSize-entry
// table) from core src to core dst.
func NewMigration(bucket, retaSize, src, dst int) *Migration {
	return &Migration{Bucket: bucket, RetaSize: retaSize, SrcID: src, DstID: dst}
}

// Acked reports whether the destination core has fenced.
func (m *Migration) Acked() bool { return m.state.Load() >= migAcked && m.state.Load() != migCanceled }

// Extracted reports whether the source core has committed the handoff.
func (m *Migration) Extracted() bool {
	s := m.state.Load()
	return s == migExtracted || s == migImported
}

// Imported reports whether the destination core has finished the import.
func (m *Migration) Imported() bool { return m.state.Load() == migImported }

// Cancel withdraws the migration if the source core has not yet
// committed to extraction, reporting whether the cancel won; false
// means the handoff is under way and will complete.
func (m *Migration) Cancel() bool {
	return m.state.CompareAndSwap(migPosted, migCanceled) ||
		m.state.CompareAndSwap(migAcked, migCanceled)
}

// Moved reports how many connections the destination imported (valid
// once Imported).
func (m *Migration) Moved() int64 { return m.moved.Load() }

// MigrationPackage carries the extracted connections (value copies of
// the source table's entries, including their subscription state
// pointers) from source to destination core.
type MigrationPackage struct {
	Conns []conntrack.Conn
}

// PostMigration hands a migration to this core; the core goroutine
// picks it up at its next burst boundary. Safe from any goroutine.
func (c *Core) PostMigration(m *Migration) {
	c.migMu.Lock()
	c.migQ = append(c.migQ, m)
	c.migMu.Unlock()
	c.migFlag.Store(true)
}

// MigrationErrors reports import anomalies (a migrated tuple already
// tracked at the destination — impossible under flow-consistent RSS,
// so any nonzero value is a protocol bug a differential run surfaces).
func (c *Core) MigrationErrors() uint64 { return c.migErrs.Load() }

// handleMigrations drains posted migrations at a burst boundary. An
// import blocks here (the fence) until the source publishes the
// package; an export is remembered and completed once the ring drains.
func (c *Core) handleMigrations(queue RxRing) {
	c.migMu.Lock()
	q := c.migQ
	c.migQ = nil
	c.migFlag.Store(false)
	c.migMu.Unlock()
	for _, m := range q {
		switch {
		case m.DstID == c.ID:
			if m.state.CompareAndSwap(migPosted, migAcked) {
				c.runImport(m, queue)
			}
		case m.SrcID == c.ID:
			c.exportMig = m
			c.maybeCompleteExport(queue)
		}
	}
}

// ringCursor is the optional drain-detection view of an RxRing
// (*nic.Ring implements it; test fakes need not — an empty fake has
// trivially drained).
type ringCursor interface{ Head() uint64 }

// maybeCompleteExport finishes a pending export once every frame
// enqueued under the old assignment has been processed: the ring's head
// cursor has reached the swap's tail snapshot and the current burst is
// done (maybeCompleteExport only runs at burst boundaries).
func (c *Core) maybeCompleteExport(queue RxRing) {
	m := c.exportMig
	if m == nil {
		return
	}
	if m.state.Load() == migCanceled {
		c.exportMig = nil
		return
	}
	if cur, ok := queue.(ringCursor); ok && cur.Head() < m.TailSnap {
		return // pre-swap frames still queued
	}
	c.exportMig = nil
	if !m.state.CompareAndSwap(migAcked, migExtracted) {
		return // canceled in the meantime
	}
	pkg := &MigrationPackage{}
	size := uint32(m.RetaSize)
	bucket := uint32(m.Bucket)
	c.table.ExtractIf(func(conn *conntrack.Conn) bool {
		return conn.RSSHash%size == bucket
	}, func(conn *conntrack.Conn) {
		c.releaseForExport(conn)
		pkg.Conns = append(pkg.Conns, *conn)
		// Drop the source-side alias to the (shared, now
		// destination-owned) subscription state: stale shed-queue
		// entries must not follow it once the importer starts mutating.
		conn.UserData = nil
	})
	m.pkg.Store(pkg)
}

// releaseForExport returns the connection's buffer reservations to this
// core's accountant and removes it from the pending-shed queue; the
// importer re-reserves the same amounts, so budgets stay exact on both
// sides.
func (c *Core) releaseForExport(conn *conntrack.Conn) {
	cs, ok := conn.UserData.(*connState)
	if !ok || cs == nil {
		return
	}
	for _, class := range overload.Classes() {
		if b := cs.held(class); b > 0 {
			c.acct.Release(class, b)
		}
	}
	c.shed.leave(cs)
}

// runImport is the destination fence: the core stops dequeuing and
// waits (still acking program swaps) until the source publishes the
// package or the plane cancels, then imports and resumes.
func (c *Core) runImport(m *Migration, queue RxRing) {
	for {
		if m.state.Load() == migCanceled {
			return
		}
		if pkg := m.pkg.Load(); pkg != nil {
			m.moved.Store(int64(c.importPackage(pkg)))
			m.state.Store(migImported)
			return
		}
		c.pickup()
		if queue == nil || !queue.Wait() {
			// Ring closed (end of run) or no ring: the package is still
			// coming — the source publishes on its own exit path — so
			// poll gently instead of spinning.
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// importPackage inserts every migrated connection into this core's
// table: budgets force-reserved (the exporter released the same bytes),
// reassembly hooks re-pointed at this core's accountant, pending-shed
// membership re-established, deadlines re-scheduled, IDs preserved.
// Connections already past their deadline on this table's clock expire
// immediately through the normal record-delivery path.
func (c *Core) importPackage(pkg *MigrationPackage) int {
	n := 0
	for i := range pkg.Conns {
		ex := &pkg.Conns[i]
		cs, _ := ex.UserData.(*connState)
		if cs != nil {
			for _, class := range overload.Classes() {
				if b := cs.held(class); b > 0 {
					c.acct.ForceReserve(class, b)
				}
			}
			if cs.reasm != nil {
				cs.reasm.SetBudget(c.reasmHooks)
			}
		}
		conn, _, err := c.table.Inject(ex, c.onExpire)
		if err != nil {
			// Unreachable under flow-consistent RSS; deliver the
			// connection's records rather than losing them silently and
			// leave the witness counter for the differential to flag.
			c.migErrs.Add(1)
			c.onExpire(ex, conntrack.ExpireInactivityTimeout)
			continue
		}
		if conn == nil {
			continue // expired on arrival via onExpire
		}
		if cs != nil && cs.held(overload.ClassPacketBuf) > 0 {
			c.shed.join(conn, cs)
		}
		n++
	}
	return n
}
