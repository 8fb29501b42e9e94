package shardrouter

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// This file is the router's epoch-keyed RPC result cache. A shard's
// closure matrix and delivery tables are pure functions of (shard
// snapshot, endpoint/spec set): once a query has pinned a cut, every
// later query pinned to the same cut can reuse them without an RPC.
// Keys carry the shard's (scope, epoch) — a write to a shard advances
// its epoch and silently strands that shard's entries (LRU pressure
// reclaims them) — plus a content hash of the spec lists, so a map
// mutation that does not change a shard's endpoint set keeps that
// shard's entries live.

// closureKey identifies one shard's closure matrix within a pinned
// cut: the From×To distance matrix between the shard's cross-link
// endpoints.
type closureKey struct {
	shard    int
	scope    uint64
	epoch    uint64
	withDist bool
	specs    uint64 // hashSpecs(from, to)
}

// deliverKey identifies one shard's delivery tables for a // step:
// per in-endpoint, the tag-matching local candidates it reaches.
type deliverKey struct {
	shard  int
	scope  uint64
	epoch  uint64
	ranked bool
	tag    string
	specs  uint64 // hashSpecs(inSpecs)
}

// hashSpecs content-hashes ordered spec lists (FNV-1a, with
// separators so list boundaries are unambiguous).
func hashSpecs(lists ...[]string) uint64 {
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

// rpcCache is an LRU-bounded cache with singleflight deduplication:
// concurrent queries missing on the same key share one fetch instead
// of issuing duplicate RPCs. A zero max disables storage (every
// lookup misses) while keeping the counters meaningful.
type rpcCache struct {
	max int

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	items   map[any]*list.Element
	flights map[any]*cacheFlight

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry struct {
	key any
	val any
}

type cacheFlight struct {
	done chan struct{}
	val  any
	err  error
}

func newRPCCache(max int) *rpcCache {
	c := &rpcCache{max: max}
	if max > 0 {
		c.ll = list.New()
		c.items = make(map[any]*list.Element)
		c.flights = make(map[any]*cacheFlight)
	}
	return c
}

func (c *rpcCache) enabled() bool { return c.max > 0 }

// peek reports whether key is cached without touching the counters or
// the recency order — the router uses it to predict, before the seed
// round, whether a piggybacked closure will be needed. Correctness
// never depends on the guess.
func (c *rpcCache) peek(key any) (any, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// get is a counted lookup: a hit bumps recency.
func (c *rpcCache) get(key any) (any, bool) {
	if !c.enabled() {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).val, true
	}
	c.misses.Add(1)
	return nil, false
}

// put stores a value fetched outside do (e.g. piggybacked on another
// RPC). It does not count a miss — callers that fetched should call
// noteMiss once.
func (c *rpcCache) put(key, val any) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	c.putLocked(key, val)
	c.mu.Unlock()
}

// noteMiss records a fetch that bypassed do (a piggybacked fill), so
// hit-rate accounting covers every resolution exactly once.
func (c *rpcCache) noteMiss() { c.misses.Add(1) }

func (c *rpcCache) putLocked(key, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// do returns the cached value for key or runs fetch exactly once
// across concurrent callers (singleflight). Waiters served by the
// leader's fetch count as hits — they paid no RPC. A leader failure
// is not propagated to waiters (it may be the leader's own context
// cancellation); each waiter then fetches independently.
func (c *rpcCache) do(key any, fetch func() (any, error)) (any, error) {
	if !c.enabled() {
		c.misses.Add(1)
		return fetch()
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val // put may overwrite it once unlocked
		c.mu.Unlock()
		c.hits.Add(1)
		return val, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			c.hits.Add(1)
			return fl.val, nil
		}
		c.misses.Add(1)
		v, err := fetch()
		if err == nil {
			c.put(key, v)
		}
		return v, err
	}
	fl := &cacheFlight{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	fl.val, fl.err = fetch()

	c.mu.Lock()
	delete(c.flights, key)
	if fl.err == nil {
		c.putLocked(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}
