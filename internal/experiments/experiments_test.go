package experiments

import (
	"strings"
	"testing"
)

// smallConfig keeps test runtime low while exercising every
// experiment's code path and shape assertion.
func smallConfig() Config {
	return Config{DBLPDocs: 120, INEXDocs: 12, INEXMeanElements: 120, Seed: 7}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(smallConfig())
	if err != nil || len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	dblp, inex := rows[0], rows[1]
	if dblp.Docs != 120 || inex.Docs != 12 {
		t.Errorf("docs: %d, %d", dblp.Docs, inex.Docs)
	}
	// Table 1 shape: DBLP has many links; INEX none. INEX docs are
	// much bigger than DBLP docs.
	if dblp.Links == 0 {
		t.Error("DBLP must have links")
	}
	if inex.Links != 0 {
		t.Error("INEX must have no links")
	}
	if inex.Elements/inex.Docs <= dblp.Elements/dblp.Docs {
		t.Error("INEX docs should be larger than DBLP docs")
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "DBLP") || !strings.Contains(out, "# links") {
		t.Errorf("render:\n%s", out)
	}
	// the scale in the row label follows the configured counts against
	// the paper's 6,210 and 12,232 documents
	if dblp.Name != "DBLP (synthetic, 1/52)" || inex.Name != "INEX (synthetic, 1/1019)" {
		t.Errorf("labels at 120/12 docs: %q, %q", dblp.Name, inex.Name)
	}
	def := DefaultConfig()
	def.INEXMeanElements = 20 // the label does not depend on document size
	if rows, err = Table1(def); err != nil {
		t.Fatal(err)
	}
	if rows[0].Name != "DBLP (synthetic, 1/10)" || rows[1].Name != "INEX (synthetic, 1/100)" {
		t.Errorf("labels at the default counts: %q, %q", rows[0].Name, rows[1].Name)
	}
}

func TestCentralizedShape(t *testing.T) {
	cfg := smallConfig()
	cfg.DBLPDocs = 60 // centralized is the expensive one
	r, err := Centralized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Compression < 2 {
		t.Errorf("centralized compression %.1f, want substantial", r.Compression)
	}
	if r.CoverEntries <= 0 || r.Connections <= int64(r.CoverEntries) {
		t.Errorf("entries=%d conns=%d", r.CoverEntries, r.Connections)
	}
	if !strings.Contains(RenderCentralized(r), "compression") {
		t.Error("render")
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	// Headline shape: the new join beats the old one on cover size at
	// the same partitioning (P10 uses the same node cap as baseline).
	if byName["P10"].Size >= byName["baseline"].Size {
		t.Errorf("new join should be smaller: P10=%d baseline=%d",
			byName["P10"].Size, byName["baseline"].Size)
	}
	// The new join is also at least as fast on the join phase. One join
	// takes milliseconds at this scale, so compare the best of three
	// builds per row rather than one wall-clock reading.
	for i := 0; i < 2; i++ {
		again, err := Table2(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range again {
			if best := byName[r.Algorithm]; r.JoinTime < best.JoinTime {
				best.JoinTime = r.JoinTime
				byName[r.Algorithm] = best
			}
		}
	}
	if byName["P10"].JoinTime > byName["baseline"].JoinTime {
		t.Errorf("new join slower (best of three): %v vs %v", byName["P10"].JoinTime, byName["baseline"].JoinTime)
	}
	// Small/medium caps beat very large caps on cover size.
	if byName["P5"].Size > byName["P50"].Size && byName["P10"].Size > byName["P50"].Size {
		t.Errorf("small partitions should not be worst: P5=%d P10=%d P50=%d",
			byName["P5"].Size, byName["P10"].Size, byName["P50"].Size)
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "N100") {
		t.Errorf("render:\n%s", out)
	}
}

func TestMaintenanceShape(t *testing.T) {
	r, err := Maintenance(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.INEXSeparatingFraction != 1.0 {
		t.Errorf("INEX separating fraction = %.2f, want 1.0", r.INEXSeparatingFraction)
	}
	if r.SeparatingFraction <= 0.2 || r.SeparatingFraction > 1.0 {
		t.Errorf("DBLP separating fraction = %.2f, want a substantial share", r.SeparatingFraction)
	}
	if r.FastDeletes == 0 {
		t.Error("no fast deletes sampled")
	}
	if r.GeneralDeletes > 0 && r.GeneralDeleteAvg < r.FastDeleteAvg {
		// General deletion must be more expensive on average — that is
		// the entire point of the fast path (paper §7.3).
		t.Errorf("general deletion (%v) cheaper than fast path (%v)",
			r.GeneralDeleteAvg, r.FastDeleteAvg)
	}
	if !strings.Contains(RenderMaintenance(r), "separating") {
		t.Error("render")
	}
}

func TestINEXShapeExperiment(t *testing.T) {
	r, err := INEXBuild(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.EntriesPerNode >= 3 {
		t.Errorf("entries per node = %.2f, paper reports <3 for tree collections", r.EntriesPerNode)
	}
	if !strings.Contains(RenderINEX(r), "entries per node") {
		t.Error("render")
	}
}

func TestDistanceOverheadShape(t *testing.T) {
	r, err := DistanceOverhead(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.SpaceOverhead < 1.0 || r.SpaceOverhead > 5 {
		t.Errorf("distance space overhead %.2fx out of the 'low overhead' band", r.SpaceOverhead)
	}
	if !strings.Contains(RenderDistance(r), "overhead") {
		t.Error("render")
	}
}

func TestPreselectShape(t *testing.T) {
	r, err := Preselect(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper found a small reduction ("marginal"); assert the
	// effect is small either way, not that it always wins.
	rel := float64(abs(r.Delta)) / float64(r.WithoutEntries)
	if rel > 0.25 {
		t.Errorf("preselection changed the cover by %.0f%%, expected a marginal effect", 100*rel)
	}
	if !strings.Contains(RenderPreselect(r), "delta") {
		t.Error("render")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestWeightsAblationRuns(t *testing.T) {
	r, err := WeightsAblation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(RenderWeights(r), "A*D") {
		t.Error("render")
	}
}

func TestBalanceShape(t *testing.T) {
	rows, err := Balance(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Partitions == 0 || r.SpeedupBound < 1 {
			t.Errorf("degenerate row: %+v", r)
		}
	}
	// §4.3: the closure-budget partitioner produces partitions with
	// similar closure sizes — its max/mean closure ratio must beat the
	// node-capped partitioner's (wall-clock speedup bounds are too
	// noisy at test scale, but closure balance is deterministic).
	ncRatio := float64(rows[0].MaxClosure) / rows[0].MeanClosure
	cbRatio := float64(rows[1].MaxClosure) / rows[1].MeanClosure
	if cbRatio >= ncRatio {
		t.Errorf("closure-budget partitions not better balanced: max/mean %.1f vs node-capped %.1f",
			cbRatio, ncRatio)
	}
	if !strings.Contains(RenderBalance(rows), "speedup") {
		t.Error("render")
	}
}
