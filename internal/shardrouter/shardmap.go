// Package shardrouter implements the distributed query tier over
// sharded HOPI primaries: a persisted, versioned document→shard
// assignment derived from the paper's document-graph partitioning
// (§4.3), a router that sends writes to their shard and fans //
// queries out to every shard concurrently, and the PSG-style semijoin
// (§4.1) that joins cross-shard results at the serving tier from
// shipped frontier arrivals at cross-link endpoints.
//
// The router owns what a single index keeps implicitly: which shard
// holds each document (with a monotone insertion ordinal that defines
// the canonical global result order), and the cross-shard links, whose
// endpoints are exactly the nodes of the partition skeleton graph the
// join runs over. Shard-local evaluation — including shard-local
// cycles and ranked scoring — is delegated to each shard's own engine
// through the Conn interface, so the unified proper-path/self-match
// semantics of the single-index evaluator are preserved verbatim.
package shardrouter

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hopi/internal/partition"
	"hopi/internal/xmlmodel"
)

// DocEntry is one document's placement: its shard and its global
// insertion ordinal. Ordinals are monotone and never reused (mirroring
// the collection's tombstoned document slots), so sorting final
// matches by (ordinal, local element index) reproduces the single
// index's ascending-global-ID result order.
type DocEntry struct {
	Shard   int    `json:"shard"`
	Ordinal uint64 `json:"ordinal"`
}

// CrossLink is a link whose endpoints live on different shards. The
// router owns these: they are never part of any shard's local index,
// and their endpoints are the PSG nodes of the cross-shard join.
// Duplicates are legal, matching the collection's link-list semantics.
type CrossLink struct {
	FromDoc   string `json:"fromDoc"`
	FromLocal int32  `json:"fromLocal"`
	ToDoc     string `json:"toDoc"`
	ToLocal   int32  `json:"toLocal"`
}

// FromSpec and ToSpec render the endpoints in the "doc:local" element
// address syntax the shard wire protocol uses.
func (l CrossLink) FromSpec() string { return fmt.Sprintf("%s:%d", l.FromDoc, l.FromLocal) }
func (l CrossLink) ToSpec() string   { return fmt.Sprintf("%s:%d", l.ToDoc, l.ToLocal) }

// ShardMap is the versioned document→shard assignment plus the
// router-owned cross-shard link table. Values are treated as immutable
// once published: every mutation goes through Clone, bumps Version,
// and replaces the published pointer, so concurrent queries always see
// a consistent map. Version participates in resume-token validation —
// any change to the map retires outstanding router tokens, exactly as
// a maintenance batch retires single-index tokens.
type ShardMap struct {
	Version     uint64              `json:"version"`
	NumShards   int                 `json:"numShards"`
	NextOrdinal uint64              `json:"nextOrdinal"`
	Docs        map[string]DocEntry `json:"docs"`
	CrossLinks  []CrossLink         `json:"crossLinks"`
}

// NewShardMap returns an empty map for a fixed shard count.
func NewShardMap(numShards int) *ShardMap {
	return &ShardMap{Version: 1, NumShards: numShards, Docs: map[string]DocEntry{}}
}

// BuildConfig parameterizes BuildShardMap with the same knobs the
// index build uses for partitioning (hopi.Options carries them).
type BuildConfig struct {
	// Weights selects the document-edge weight scheme (WeightLinks
	// needs no skeleton propagation and is the default).
	Weights partition.WeightScheme
	// SkeletonDepth bounds the A*D / A+D weight propagation; 0 means
	// partition.DefaultSkeletonDepth.
	SkeletonDepth int
	// ClosureBudget caps each partition's transitive-closure size
	// during growth; 0 picks a budget that aims for ~4 partitions per
	// shard, giving the bin-packing room to balance.
	ClosureBudget int64
	// Seed drives the partitioner's randomized seed order.
	Seed int64
}

// BuildShardMap derives a document→shard assignment for an existing
// collection: partition the document graph with the paper's
// closure-budget partitioner (so tightly linked documents land in the
// same partition and few links cross), then bin-pack the partitions
// onto NumShards shards, largest first onto the least-loaded shard (by
// element count). Documents keep their collection order as ordinals,
// and every link crossing shards becomes a router-owned CrossLink.
func BuildShardMap(c *xmlmodel.Collection, numShards int, cfg BuildConfig) (*ShardMap, error) {
	if numShards <= 0 {
		return nil, fmt.Errorf("shardrouter: shard count must be positive, got %d", numShards)
	}
	var weights map[[2]int32]float64
	if cfg.Weights != partition.WeightLinks {
		depth := cfg.SkeletonDepth
		if depth <= 0 {
			depth = partition.DefaultSkeletonDepth
		}
		weights = partition.DocEdgeWeights(c, cfg.Weights, depth)
	}
	budget := cfg.ClosureBudget
	if budget <= 0 {
		// Aim for several partitions per shard so bin-packing has
		// freedom — a partition's closure is bounded by its element
		// count squared, so (els/8n)² keeps even a worst-case-dense
		// partition under an eighth of a shard's share. The exact
		// budget only affects balance, not correctness.
		els := int64(c.NumElements())
		budget = els * els / int64(64*numShards*numShards)
		if budget < 1 {
			budget = 1
		}
	}
	p := partition.ClosureBudget(c, budget, weights, cfg.Seed)

	// Bin-pack partitions onto shards: largest (element count) first,
	// each onto the currently least-loaded shard (ties to the lowest
	// shard index, deterministically).
	type bin struct {
		part []int
		els  int
	}
	bins := make([]bin, 0, p.NumParts())
	for _, docs := range p.Parts {
		b := bin{part: docs}
		for _, d := range docs {
			b.els += c.Docs[d].Len()
		}
		bins = append(bins, b)
	}
	sort.SliceStable(bins, func(i, j int) bool { return bins[i].els > bins[j].els })
	load := make([]int, numShards)
	shardOf := make([]int, len(c.Docs))
	for i := range shardOf {
		shardOf[i] = -1
	}
	for _, b := range bins {
		best := 0
		for s := 1; s < numShards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += b.els
		for _, d := range b.part {
			shardOf[d] = best
		}
	}

	m := NewShardMap(numShards)
	for _, di := range c.LiveDocIndexes() {
		name := c.Docs[di].Name
		if name == "" {
			return nil, fmt.Errorf("shardrouter: document %d has no name; sharded routing addresses documents by name", di)
		}
		if _, dup := m.Docs[name]; dup {
			return nil, fmt.Errorf("shardrouter: duplicate document name %q", name)
		}
		m.Docs[name] = DocEntry{Shard: shardOf[di], Ordinal: uint64(di)}
	}
	m.NextOrdinal = uint64(len(c.Docs))
	for _, l := range c.Links {
		fd, fl := c.LocalID(l.From)
		td, tl := c.LocalID(l.To)
		if shardOf[fd] != shardOf[td] {
			m.CrossLinks = append(m.CrossLinks, CrossLink{
				FromDoc: c.Docs[fd].Name, FromLocal: fl,
				ToDoc: c.Docs[td].Name, ToLocal: tl,
			})
		}
	}
	return m, nil
}

// SplitCollection materializes each shard's local collection from the
// full one: the shard's documents in ordinal order plus every link
// whose endpoints both live on the shard. Cross-shard links are left
// to the map's CrossLinks table. Documents are cloned — the shard
// collections own their state independently.
func SplitCollection(c *xmlmodel.Collection, m *ShardMap) []*xmlmodel.Collection {
	out := make([]*xmlmodel.Collection, m.NumShards)
	for i := range out {
		out[i] = xmlmodel.NewCollection()
	}
	live := c.LiveDocIndexes()
	shardDoc := make(map[int]int, len(live)) // collection doc idx → shard-local doc idx
	for _, di := range live {
		e, ok := m.Docs[c.Docs[di].Name]
		if !ok {
			continue
		}
		shardDoc[di] = out[e.Shard].AddDocument(c.Docs[di].Clone())
	}
	for _, l := range c.Links {
		fd, fl := c.LocalID(l.From)
		td, tl := c.LocalID(l.To)
		fe, okF := m.Docs[c.Docs[fd].Name]
		te, okT := m.Docs[c.Docs[td].Name]
		if !okF || !okT || fe.Shard != te.Shard {
			continue
		}
		sc := out[fe.Shard]
		sc.AddLink(sc.GlobalID(shardDoc[fd], fl), sc.GlobalID(shardDoc[td], tl))
	}
	return out
}

// Clone returns a deep copy for copy-on-write mutation. The caller
// mutates the copy, bumps Version, and publishes it.
func (m *ShardMap) Clone() *ShardMap {
	n := &ShardMap{
		Version:     m.Version,
		NumShards:   m.NumShards,
		NextOrdinal: m.NextOrdinal,
		Docs:        make(map[string]DocEntry, len(m.Docs)),
		CrossLinks:  append([]CrossLink(nil), m.CrossLinks...),
	}
	for k, v := range m.Docs {
		n.Docs[k] = v
	}
	return n
}

// Save writes the map as JSON via an atomic rename, so a crash during
// persistence never leaves a torn map file.
func (m *ShardMap) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".shardmap-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadShardMap reads a map saved with Save.
func LoadShardMap(path string) (*ShardMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m ShardMap
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shardrouter: parse shard map %s: %w", path, err)
	}
	if m.NumShards <= 0 {
		return nil, fmt.Errorf("shardrouter: shard map %s: bad shard count %d", path, m.NumShards)
	}
	if m.Docs == nil {
		m.Docs = map[string]DocEntry{}
	}
	return &m, nil
}
