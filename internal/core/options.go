// Package core assembles the HOPI index from its substrates: it runs
// the divide-and-conquer build pipeline (partition the document-level
// graph, compute per-partition 2-hop covers, join them over the
// partition-level skeleton graph), answers reachability and distance
// queries, and maintains the index incrementally under insertions,
// deletions, and modifications (§6).
package core

import (
	"fmt"
	"time"

	"hopi/internal/partition"
)

// Partitioner selects the §3.3/§4.3 partitioning strategy.
type Partitioner int

const (
	// PartWhole builds one cover for the entire element graph — the
	// centralized baseline of §7.2 (no partitioning, maximal
	// compression, prohibitive build cost).
	PartWhole Partitioner = iota
	// PartSingle puts every document in its own partition — the
	// "naive" run of Table 2.
	PartSingle
	// PartNodeCapped is the original HOPI partitioner: partitions are
	// capped by summed element count (the paper's Px runs, cap x·10⁴).
	PartNodeCapped
	// PartClosureBudget is the §4.3 partitioner: partitions grow until
	// their transitive closure reaches the connection budget (the
	// paper's Nx runs, budget x·10⁵).
	PartClosureBudget
)

// String names the partitioner for experiment tables.
func (p Partitioner) String() string {
	switch p {
	case PartWhole:
		return "whole"
	case PartSingle:
		return "single"
	case PartNodeCapped:
		return "node-capped"
	case PartClosureBudget:
		return "closure-budget"
	}
	return "unknown"
}

// JoinAlgorithm selects how partition covers are merged.
type JoinAlgorithm int

const (
	// JoinNewHBar is the §4.1 structurally recursive join with the H̄
	// cover (link targets as centers, Corollary 1) — the paper's
	// recommended algorithm.
	JoinNewHBar JoinAlgorithm = iota
	// JoinNewFullPSG is the Theorem 1 variant that computes a real
	// 2-hop cover over the PSG; kept for ablation.
	JoinNewFullPSG
	// JoinOldIncremental is the original per-link join of §3.3, the
	// baseline of Table 2.
	JoinOldIncremental
)

// String names the join for experiment tables.
func (j JoinAlgorithm) String() string {
	switch j {
	case JoinNewHBar:
		return "new(hbar)"
	case JoinNewFullPSG:
		return "new(full-psg)"
	case JoinOldIncremental:
		return "old"
	}
	return "unknown"
}

// Options configures an index build.
type Options struct {
	Partitioner   Partitioner
	NodeCap       int   // PartNodeCapped: max elements per partition
	ClosureBudget int64 // PartClosureBudget: max closure connections

	Join JoinAlgorithm

	// Weights selects the document-level edge weights (§4.3).
	Weights partition.WeightScheme
	// SkeletonDepth bounds the skeleton-graph BFS for A*D / A+D
	// weights; 0 means partition.DefaultSkeletonDepth.
	SkeletonDepth int

	// WithDistance builds a distance-aware index (§5).
	WithDistance bool
	// PreselectCenters applies §4.2: cross-partition link targets are
	// used as centers before density-driven selection.
	PreselectCenters bool

	// Seed makes builds deterministic.
	Seed int64
	// Workers bounds the goroutines of the build's two parallel
	// phases: the per-partition cover computations and the §4.1 join
	// (its H̄ traversals and its per-partition gathers); 0 means
	// GOMAXPROCS. The index does not depend on it.
	Workers int
}

// Validate rejects inconsistent option sets.
func (o *Options) Validate() error {
	if o.Partitioner == PartNodeCapped && o.NodeCap <= 0 {
		return fmt.Errorf("core: NodeCap must be positive for node-capped partitioning")
	}
	if o.Partitioner == PartClosureBudget && o.ClosureBudget <= 0 {
		return fmt.Errorf("core: ClosureBudget must be positive for closure-budget partitioning")
	}
	return nil
}

func (o *Options) skeletonDepth() int {
	if o.SkeletonDepth > 0 {
		return o.SkeletonDepth
	}
	return partition.DefaultSkeletonDepth
}

// BuildStats reports what a build did — the raw material of Table 2.
type BuildStats struct {
	Partitions       int
	CrossLinks       int
	PartitionEntries int // Σ per-partition cover sizes before joining
	CoverEntries     int // final |L|
	PartitionTime    time.Duration
	CoverTime        time.Duration
	JoinTime         time.Duration
	TotalTime        time.Duration
	LargestPartition int // elements
	// LargestClosureBytes is the size of the largest partition's
	// closure, the cover kernel's input: its reach rows, plus a rank per
	// row word and a length per connection when distance-aware.
	LargestClosureBytes int64
	PreselectedCenter   int // number of preselected centers across partitions
	// What the greedy cover kernel did, summed over the partition
	// covers (twohop.Stats). Fixed by collection, options and seed: a
	// changed count means a changed selection order.
	CoverCenters    int
	CoverPops       int
	CoverRecomputes int
	// DistinctLists is how many distinct non-empty Lin and Lout lists
	// the interned cover stores (twohop.Cover.Intern); 0 after the old
	// join, which does not intern.
	DistinctLists int
}
