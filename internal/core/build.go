package core

import (
	"runtime"
	"sync"
	"time"

	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/psg"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// Build constructs a HOPI index for the collection:
//
//  1. weight the document-level graph (§4.3),
//  2. partition it so every partition's closure fits the budget,
//  3. compute a 2-hop cover per partition — concurrently, optionally
//     preselecting cross-link targets as centers (§4.2),
//  4. join the partition covers (§4.1 new algorithm or §3.3 old one).
func Build(c *xmlmodel.Collection, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()

	// Step 1+2: partitioning.
	tPart := time.Now()
	var weights map[[2]int32]float64
	if opts.Weights != partition.WeightLinks {
		weights = partition.DocEdgeWeights(c, opts.Weights, opts.skeletonDepth())
	}
	var p *partition.Partitioning
	switch opts.Partitioner {
	case PartWhole:
		p = partition.Whole(c)
	case PartSingle:
		p = partition.Single(c)
	case PartNodeCapped:
		p = partition.NodeCapped(c, opts.NodeCap, weights, opts.Seed)
	case PartClosureBudget:
		p = partition.ClosureBudget(c, opts.ClosureBudget, weights, opts.Seed)
	}
	partTime := time.Since(tPart)

	// Step 3: per-partition covers.
	tCov := time.Now()
	pc := buildPartitionCovers(c, p, opts)
	parts := pc.parts
	covTime := time.Since(tCov)
	partEntries := 0
	for _, pd := range parts {
		partEntries += pd.Cover.Size()
	}

	// Step 4: join.
	tJoin := time.Now()
	partOf := func(id int32) int { return p.PartOfID(c, id) }
	var (
		cover    *twohop.Cover
		distinct int
	)
	switch opts.Join {
	case JoinNewHBar, JoinNewFullPSG:
		cover, distinct = psg.JoinNewInterned(c, p.CrossLinks, partOf, parts, psg.NewJoinOptions{
			WithDist: opts.WithDistance, FullPSGCover: opts.Join == JoinNewFullPSG, Seed: opts.Seed, Workers: opts.Workers,
		})
	case JoinOldIncremental:
		cover = psg.JoinOld(c, p.CrossLinks, parts, opts.WithDistance)
	}
	joinTime := time.Since(tJoin)

	return newIndex(c, cover, opts,
		BuildStats{
			Partitions:          p.NumParts(),
			CrossLinks:          len(p.CrossLinks),
			PartitionEntries:    partEntries,
			CoverEntries:        cover.Size(),
			PartitionTime:       partTime,
			CoverTime:           covTime,
			JoinTime:            joinTime,
			TotalTime:           time.Since(start),
			LargestPartition:    pc.largest,
			LargestClosureBytes: pc.largestBytes,
			PreselectedCenter:   pc.preselected,
			CoverCenters:        pc.kernel.Centers,
			CoverPops:           pc.kernel.Pops,
			CoverRecomputes:     pc.kernel.Recomputes,
			DistinctLists:       distinct,
		}), nil
}

// partitionCovers is what buildPartitionCovers returns: the covers and
// what it took to build them.
type partitionCovers struct {
	parts        []*psg.PartitionData
	kernel       twohop.Stats // the greedy kernel's counters, summed over the partitions
	preselected  int          // preselected centers
	largest      int          // elements of the largest partition
	largestBytes int64        // bytes of the largest partition's closure
}

// buildPartitionCovers computes the per-partition 2-hop covers
// concurrently ("all these computations can be done concurrently",
// §4.1): opts.Workers goroutines pull partition indices from a channel.
func buildPartitionCovers(c *xmlmodel.Collection, p *partition.Partitioning, opts Options) partitionCovers {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// cross-link targets per partition for §4.2 preselection
	var targetsByPart map[int][]int32
	if opts.PreselectCenters {
		targetsByPart = map[int][]int32{}
		for _, l := range p.CrossLinks {
			pi := p.PartOfID(c, l.To)
			targetsByPart[pi] = append(targetsByPart[pi], l.To)
		}
	}
	links := partition.NewLinkIndex(c)
	parts := make([]*psg.PartitionData, p.NumParts())
	stats := make([]twohop.Stats, p.NumParts())
	closureBytes := make([]int64, p.NumParts())
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := range next {
				g, globals := links.ElementSubgraph(p.Parts[pi])
				pd := psg.NewPartitionData(p.Parts[pi], g, globals, nil)
				tOpts := twohop.Options{Seed: opts.Seed + int64(pi)}
				for _, t := range targetsByPart[pi] {
					tOpts.Preselect = append(tOpts.Preselect, pd.Local[t])
				}
				if opts.WithDistance {
					dc := graph.NewDistClosure(g)
					closureBytes[pi] = dc.Bytes()
					pd.Cover, stats[pi] = twohop.BuildDistanceAware(dc, tOpts)
				} else {
					cl := graph.NewClosure(g)
					closureBytes[pi] = cl.Bytes()
					pd.Cover, stats[pi] = twohop.Build(cl, tOpts)
				}
				parts[pi] = pd
			}
		}()
	}
	for pi := range p.Parts {
		next <- pi
	}
	close(next)
	wg.Wait()
	pc := partitionCovers{parts: parts}
	for pi, pd := range parts {
		pc.kernel.Centers += stats[pi].Centers
		pc.kernel.Pops += stats[pi].Pops
		pc.kernel.Recomputes += stats[pi].Recomputes
		pc.preselected += len(targetsByPart[pi])
		if len(pd.Globals) > pc.largest {
			pc.largest, pc.largestBytes = len(pd.Globals), closureBytes[pi]
		}
	}
	return pc
}
