package experiments

import (
	"fmt"
	"strings"
	"time"

	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/twohop"
)

// BalanceRow measures how evenly a partitioner spreads the per-
// partition cover work. §4.3 claims: "As the new algorithm creates
// partitions with a similar size of the transitive closures, cover
// computation takes roughly the same amount of time for each
// partition. Thus when distributed over n CPUs, this algorithm can
// achieve a speedup close to n, whereas the time with the old
// partitioner would be limited by the time to compute the cover for
// the largest partition."
type BalanceRow struct {
	Partitioner string
	Partitions  int
	TotalCover  time.Duration // Σ per-partition cover build time
	MaxCover    time.Duration // slowest partition
	// Speedup bound = Total / Max: the best parallel speedup any number
	// of CPUs can achieve on this partitioning.
	SpeedupBound float64
	// MaxClosure / MeanClosure measures closure-size balance.
	MaxClosure  int64
	MeanClosure float64
}

// Balance compares the node-capped and closure-budget partitioners on
// per-partition work balance.
func Balance(cfg Config) ([]BalanceRow, error) {
	c := cfg.dblp()
	conns := graph.CountConnections(c.ElementGraph())
	scale := float64(conns) / 345_000_000
	parts := []struct {
		name string
		p    *partition.Partitioning
	}{
		{"node-capped (P10)", partition.NodeCapped(c, 1000, nil, cfg.Seed)},
		{"closure-budget (N10)", partition.ClosureBudget(c, int64(1_000_000*scale), nil, cfg.Seed)},
	}
	links := partition.NewLinkIndex(c)
	var rows []BalanceRow
	for _, pc := range parts {
		row := BalanceRow{Partitioner: pc.name, Partitions: pc.p.NumParts()}
		var totalClosure int64
		for _, docs := range pc.p.Parts {
			g, _ := links.ElementSubgraph(docs)
			t0 := time.Now()
			cl := graph.NewClosure(g)
			sz := cl.Connections()
			twohop.Build(cl, twohop.Options{Seed: cfg.Seed})
			dt := time.Since(t0)
			row.TotalCover += dt
			if dt > row.MaxCover {
				row.MaxCover = dt
			}
			totalClosure += sz
			if sz > row.MaxClosure {
				row.MaxClosure = sz
			}
		}
		if row.MaxCover > 0 {
			row.SpeedupBound = float64(row.TotalCover) / float64(row.MaxCover)
		}
		if row.Partitions > 0 {
			row.MeanClosure = float64(totalClosure) / float64(row.Partitions)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderBalance formats the §4.3 balance comparison.
func RenderBalance(rows []BalanceRow) string {
	t := newTable("partitioner", "parts", "Σ cover", "max cover", "speedup bound", "max/mean closure")
	for _, r := range rows {
		t.row(r.Partitioner,
			fmt.Sprint(r.Partitions),
			fmt.Sprintf("%.2fs", r.TotalCover.Seconds()),
			fmt.Sprintf("%.2fs", r.MaxCover.Seconds()),
			fmt.Sprintf("%.1f", r.SpeedupBound),
			fmt.Sprintf("%.1f", float64(r.MaxClosure)/maxF(r.MeanClosure, 1)))
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("(speedup bound = Σ per-partition cover time / slowest partition;\n")
	b.WriteString(" the §4.3 claim is that the closure-budget partitioner's bound is higher)\n")
	return b.String()
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
