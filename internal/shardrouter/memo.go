package shardrouter

import (
	"hash/fnv"
	"sync"
)

// This file is the shard side's memo table. A shard's endpoint closure
// and delivery tables are pure functions of (snapshot, request), so a
// shard snapshot memoizes them for its own lifetime: the first query
// pinned to a snapshot computes them, every later query pinned to the
// same snapshot reads them back. A write publishes a new snapshot with
// an empty memo, so nothing is ever keyed by epoch or invalidated — the
// memo dies with its snapshot. A snapshot can outlive many requests
// whose keys differ (a router's spec lists change with every map
// version, a client picks the tags), so each table has a size bound.

// HashSpecs content-hashes ordered spec lists (FNV-1a, with separators
// so list boundaries are unambiguous); a shard keys its closure memo
// by it.
func HashSpecs(lists ...[]string) uint64 {
	h := fnv.New64a()
	for _, l := range lists {
		for _, s := range l {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// Memo is a memo table with singleflight fills: concurrent callers
// missing on the same key share one fill instead of each computing it.
// Its zero value is ready to use and unbounded. It must not be copied
// after first use.
type Memo[K comparable, V any] struct {
	// Max, when positive, bounds the entries: a fill for a new key
	// first drops arbitrary others until fewer than Max remain. With
	// Max 1 the memo keeps only the latest key.
	Max int

	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the memoized value for k, running fill on the first call.
// hit is false exactly for the caller whose fill produced the value;
// callers that waited on another's fill count as hits — they computed
// nothing. A failed fill is not memoized (the error may be the caller's
// own context cancellation): its waiters, and later callers, each try
// to fill again.
func (m *Memo[K, V]) Do(k K, fill func() (V, error)) (v V, hit bool, err error) {
	for {
		m.mu.Lock()
		if m.cells == nil {
			m.cells = make(map[K]*memoCell[V])
		}
		c, ok := m.cells[k]
		if !ok {
			for old := range m.cells {
				if m.Max <= 0 || len(m.cells) < m.Max {
					break
				}
				delete(m.cells, old) // its waiters hold the cell itself
			}
			c = &memoCell[V]{done: make(chan struct{})}
			m.cells[k] = c
			m.mu.Unlock()
			c.v, c.err = fill()
			if c.err != nil {
				m.mu.Lock()
				if m.cells[k] == c {
					delete(m.cells, k)
				}
				m.mu.Unlock()
			}
			close(c.done)
			return c.v, false, c.err
		}
		m.mu.Unlock()
		<-c.done
		if c.err == nil {
			return c.v, true, nil
		}
	}
}

// Len reports how many entries the memo holds, fills in flight
// included.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}
