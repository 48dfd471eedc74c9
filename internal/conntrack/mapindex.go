package conntrack

import (
	"fmt"
	"sync/atomic"

	"retina/internal/layers"
)

// mapIndex is the Go-map connection store the flat index replaced, kept
// as the differential-testing oracle (Config.Backend = BackendMap, or
// build tag conntrack_map). Its behavior is the reference: the flat
// index must be observationally identical on every Table operation.
type mapIndex struct {
	conns map[layers.FiveTuple]*Conn
	ids   map[uint64]*Conn
	liveA atomic.Uint64
}

func newMapIndex() *mapIndex {
	return &mapIndex{
		conns: make(map[layers.FiveTuple]*Conn),
		ids:   make(map[uint64]*Conn),
	}
}

// find resolves ft in either direction by its canonical copy. The map
// needs no hash, so h is always 0.
func (m *mapIndex) find(ft *layers.FiveTuple) (c *Conn, h uint64, canonical bool) {
	key, canonical := ft.Canonical()
	return m.conns[key], 0, canonical
}

func (m *mapIndex) alloc(key layers.FiveTuple, _ uint64, id uint64) *Conn {
	c := &Conn{ckey: key, ID: id}
	m.conns[key] = c
	m.ids[id] = c
	m.liveA.Store(uint64(len(m.conns)))
	return c
}

func (m *mapIndex) remove(c *Conn) bool {
	if cur, ok := m.conns[c.ckey]; !ok || cur != c {
		return false
	}
	delete(m.conns, c.ckey)
	delete(m.ids, c.ID)
	m.liveA.Store(uint64(len(m.conns)))
	return true
}

func (m *mapIndex) byID(id uint64) *Conn { return m.ids[id] }

func (m *mapIndex) size() int { return len(m.conns) }

func (m *mapIndex) each(fn func(*Conn)) {
	for _, c := range m.conns {
		fn(c)
	}
}

func (m *mapIndex) stats() IndexStats {
	return IndexStats{Backend: BackendMap, Live: int(m.liveA.Load())}
}

func (m *mapIndex) check() error {
	if len(m.conns) != len(m.ids) {
		return fmt.Errorf("map: %d conns but %d id entries", len(m.conns), len(m.ids))
	}
	for key, c := range m.conns {
		if c.ckey != key {
			return fmt.Errorf("map: conn %d keyed at %v but ckey is %v", c.ID, key, c.ckey)
		}
		if byID, ok := m.ids[c.ID]; !ok || byID != c {
			return fmt.Errorf("map: conn %d missing or mismatched in id map", c.ID)
		}
	}
	return nil
}
