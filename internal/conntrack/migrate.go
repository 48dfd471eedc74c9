package conntrack

import "fmt"

// Connection migration between per-core tables (DESIGN.md §16): when
// the adaptive rebalancer moves a RETA bucket from one queue to
// another, the source core extracts every connection whose flow hashes
// into the bucket and the destination core injects them, preserving
// tuple, ID, counters, and subscription state. Both tables stay
// invariant-clean: the census extends to
//
//	created + migratedIn == live + expired + migratedOut
//
// and stale timer-wheel entries left behind by extraction resolve to
// nil through the id-index exactly like entries orphaned by Remove.

// ExtractIf removes every connection matching pred from the table,
// invoking out on each (with the connection still intact) so the caller
// can copy it into a migration package and transfer its buffer
// accounting. Extracted connections count under migratedOut, not any
// expiry reason. Timer entries are not unscheduled — the wheel's lazy
// revalidation skips them once the id-index no longer resolves the ID.
// Returns the number extracted. Core-goroutine only.
func (t *Table) ExtractIf(pred func(*Conn) bool, out func(*Conn)) int {
	var victims []*Conn
	t.each(func(c *Conn) {
		if pred(c) {
			victims = append(victims, c)
		}
	})
	for _, c := range victims {
		if out != nil {
			out(c)
		}
		if t.idx.remove(c) {
			t.migratedOut.Add(1)
		}
	}
	t.count.Store(int64(t.idx.size()))
	return len(victims)
}

// Inject inserts a connection extracted from another core's table,
// preserving its identity: same canonical key, same never-reused ID
// (globally unique by Config.IDBase/IDStride), all counters and
// UserData carried over. The expiry deadline is re-derived from the
// connection's LastTick and rescheduled on this table's wheel. A
// connection already past its deadline on this table's clock never
// enters the store: it is expired immediately through onExpire, keeping
// the missed-expiry invariant (no live connection with deadline ≤ now).
// Inject deliberately ignores MaxConns — a migration must not lose
// connections; the next admission sees the bound and sheds normally.
//
// Returns the table-owned connection (nil when the import expired on
// arrival, ok=true) and an error if the tuple is already tracked here —
// flow-consistent RSS makes that impossible, so it indicates a protocol
// bug and the caller should surface it. Core-goroutine only.
func (t *Table) Inject(ex *Conn, onExpire func(*Conn, ExpireReason)) (c *Conn, ok bool, err error) {
	dup, h, _ := t.find(&ex.ckey)
	if dup != nil {
		return nil, false, fmt.Errorf("conntrack: inject %v: tuple already tracked (id %d vs imported %d)",
			ex.Tuple, dup.ID, ex.ID)
	}
	t.migratedIn.Add(1)
	if d := t.deadline(ex); d > 0 && d <= t.now {
		reason := ExpireEstablishTimeout
		if ex.Established {
			reason = ExpireInactivityTimeout
		}
		if onExpire != nil {
			onExpire(ex, reason)
		}
		t.expired[reason].Add(1)
		return nil, true, nil
	}
	c = t.idx.alloc(ex.ckey, h, ex.ID)
	*c = *ex
	t.count.Store(int64(t.idx.size()))
	t.scheduleExpiry(c)
	return c, true, nil
}

// Migrations reports how many connections this table has received from
// and handed to bucket migrations. Safe from monitoring goroutines.
func (t *Table) Migrations() (in, out uint64) {
	return t.migratedIn.Load(), t.migratedOut.Load()
}
