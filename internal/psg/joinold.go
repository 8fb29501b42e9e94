package psg

import (
	"hopi/internal/graph"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// JoinOld merges partition covers with the original HOPI algorithm
// (§3.3): start from the union of the partition covers and integrate
// the cross-partition links one at a time. For each link u→v, v
// becomes the center of all newly created connections: v is added to
// Lout of u and of all current ancestors of u, and to Lin of all
// current descendants of v (twohop.Cover.IntegrateLink). Ancestors and
// descendants are walked over a graph that starts as the union of the
// partition graphs, which the union cover covers, and gains each cross
// link as it is integrated. One walk per link end is what makes this
// algorithm quadratic-ish and slow — the motivation for §4.1.
func JoinOld(c *xmlmodel.Collection, cross []xmlmodel.Link, parts []*PartitionData, withDist bool) *twohop.Cover {
	global := unionPartitionCovers(c, parts, withDist)
	global.Finish()
	g := graph.NewDigraph(c.NumAllocatedIDs())
	for _, pd := range parts {
		for u, gid := range pd.Globals {
			for _, w := range pd.G.Succ(int32(u)) {
				g.AddEdge(gid, pd.Globals[w])
			}
		}
	}
	for _, l := range cross {
		g.AddEdge(l.From, l.To)
		global.IntegrateLink(l.From, l.To, g.Walk(l.From, true), g.Walk(l.To, false))
	}
	return global
}
