package experiments

import (
	"fmt"
	"strings"
	"time"

	"hopi/internal/core"
	"hopi/internal/partition"
)

// INEXResult reproduces the §7.2 INEX paragraph: cover entries and
// entries per node for the link-free tree collection (paper:
// 33,701,084 entries over 12M elements — "less than three index
// entries per node").
type INEXResult struct {
	Docs           int
	Elements       int
	CoverEntries   int
	EntriesPerNode float64
	BuildTime      time.Duration
}

// INEXBuild builds the INEX-like index. With no inter-document links
// every partition is a single document, exactly as the paper's
// partitioner would behave.
func INEXBuild(cfg Config) (INEXResult, error) {
	c := cfg.inex()
	t0 := time.Now()
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartClosureBudget, ClosureBudget: 2_000_000,
		Join: core.JoinNewHBar, Seed: cfg.Seed,
	})
	if err != nil {
		return INEXResult{}, err
	}
	return INEXResult{
		Docs:           c.NumDocs(),
		Elements:       c.NumElements(),
		CoverEntries:   ix.Size(),
		EntriesPerNode: float64(ix.Size()) / float64(c.NumElements()),
		BuildTime:      time.Since(t0),
	}, nil
}

// RenderINEX formats the INEX paragraph numbers.
func RenderINEX(r INEXResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INEX-like collection:  %d docs, %d elements\n", r.Docs, r.Elements)
	fmt.Fprintf(&b, "cover entries:         %d\n", r.CoverEntries)
	fmt.Fprintf(&b, "entries per node:      %.2f   (paper: <3)\n", r.EntriesPerNode)
	fmt.Fprintf(&b, "build time:            %s\n", r.BuildTime.Round(time.Millisecond))
	return b.String()
}

// DistanceResult measures the §5 distance augmentation: the space and
// time overhead of carrying exact distances in the labels (the
// abstract: "low space overhead for including distance information").
type DistanceResult struct {
	PlainEntries  int
	DistEntries   int
	SpaceOverhead float64 // DistEntries / PlainEntries
	PlainTime     time.Duration
	DistTime      time.Duration
}

// DistanceOverhead builds the same collection with and without
// distance awareness.
func DistanceOverhead(cfg Config) (DistanceResult, error) {
	c1 := cfg.dblp()
	opts := core.Options{Partitioner: core.PartNodeCapped, NodeCap: 1000, Join: core.JoinNewHBar, Seed: cfg.Seed}
	t0 := time.Now()
	plain, err := core.Build(c1, opts)
	if err != nil {
		return DistanceResult{}, err
	}
	plainTime := time.Since(t0)
	c2 := cfg.dblp()
	opts.WithDistance = true
	t1 := time.Now()
	dist, err := core.Build(c2, opts)
	if err != nil {
		return DistanceResult{}, err
	}
	return DistanceResult{
		PlainEntries:  plain.Size(),
		DistEntries:   dist.Size(),
		SpaceOverhead: float64(dist.Size()) / float64(plain.Size()),
		PlainTime:     plainTime,
		DistTime:      time.Since(t1),
	}, nil
}

// RenderDistance formats the distance-overhead comparison.
func RenderDistance(r DistanceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plain cover:          %d entries, built in %s\n", r.PlainEntries, r.PlainTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "distance-aware cover: %d entries, built in %s\n", r.DistEntries, r.DistTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "space overhead:       %.2fx entries (each entry additionally stores one DIST integer)\n", r.SpaceOverhead)
	return b.String()
}

// PreselectResult measures §4.2: preselecting cross-partition link
// targets as centers (paper: ≈10,000 fewer entries out of ≈10M —
// "marginal").
type PreselectResult struct {
	WithoutEntries int
	WithEntries    int
	Delta          int
}

// Preselect compares builds with and without center preselection.
func Preselect(cfg Config) (PreselectResult, error) {
	opts := core.Options{Partitioner: core.PartNodeCapped, NodeCap: 1000, Join: core.JoinNewHBar, Seed: cfg.Seed}
	without, err := core.Build(cfg.dblp(), opts)
	if err != nil {
		return PreselectResult{}, err
	}
	opts.PreselectCenters = true
	with, err := core.Build(cfg.dblp(), opts)
	if err != nil {
		return PreselectResult{}, err
	}
	return PreselectResult{
		WithoutEntries: without.Size(),
		WithEntries:    with.Size(),
		Delta:          without.Size() - with.Size(),
	}, nil
}

// RenderPreselect formats the §4.2 comparison.
func RenderPreselect(r PreselectResult) string {
	return fmt.Sprintf("without preselection: %d entries\nwith preselection:    %d entries\ndelta:                %+d entries\n",
		r.WithoutEntries, r.WithEntries, r.WithoutEntries-r.WithEntries)
}

// WeightsResult is the §4.3 edge-weight ablation.
type WeightsResult struct {
	Rows []Table2Row
}

// WeightsAblation builds with each edge-weight scheme under the
// closure-budget partitioner (paper: "the new partitioning algorithm
// in combination with edge weights set to A*D gave similar results to
// the old partitioning algorithm, while the other combinations were
// not as good").
func WeightsAblation(cfg Config) (WeightsResult, error) {
	var rows []Table2Row
	for _, w := range []partition.WeightScheme{partition.WeightLinks, partition.WeightAtimesD, partition.WeightAplusD} {
		ix, err := core.Build(cfg.dblp(), core.Options{
			Partitioner: core.PartClosureBudget, ClosureBudget: 50_000,
			Join: core.JoinNewHBar, Weights: w, Seed: cfg.Seed,
		})
		if err != nil {
			return WeightsResult{}, err
		}
		st := ix.Stats()
		rows = append(rows, Table2Row{
			Algorithm:  "weights=" + w.String(),
			Time:       st.TotalTime,
			JoinTime:   st.JoinTime,
			Size:       ix.Size(),
			Partitions: st.Partitions,
		})
	}
	return WeightsResult{Rows: rows}, nil
}

// RenderWeights formats the ablation.
func RenderWeights(r WeightsResult) string {
	t := newTable("scheme", "time", "size", "parts")
	for _, row := range r.Rows {
		t.row(row.Algorithm, fmt.Sprintf("%.1fs", row.Time.Seconds()), fmt.Sprint(row.Size), fmt.Sprint(row.Partitions))
	}
	return t.String()
}
