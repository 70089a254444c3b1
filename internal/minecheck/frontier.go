package minecheck

import (
	"fmt"
	"strings"

	"repro/internal/privacy"
	"repro/internal/raid"
)

// FrontierSchema identifies the JSON layout cmd/minecheck emits.
const FrontierSchema = "minecheck/v1"

// Frontier is one full sweep: every cell's attack scores plus read
// throughput, tracing where privacy is bought and what it costs.
type Frontier struct {
	Schema string   `json:"schema"`
	Seed   int64    `json:"seed"`
	Cells  []Result `json:"cells"`
}

// AllCells enumerates the full sweep grid: privacy level 0–3 ×
// RAID-5/6 × mislead on/off × cache on/off × hedging on/off × 1/4
// shards — 128 cells.
func AllCells() []Cell {
	var cells []Cell
	for pl := 0; pl <= 3; pl++ {
		for _, rl := range []raid.Level{raid.RAID5, raid.RAID6} {
			for _, mislead := range []bool{false, true} {
				for _, cache := range []bool{false, true} {
					for _, hedge := range []bool{false, true} {
						for _, shards := range []int{1, 4} {
							cells = append(cells, Cell{
								PL: privacy.Level(pl), Raid: rl,
								Mislead: mislead, Cache: cache, Hedge: hedge,
								Shards: shards,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// GateCells is the small per-seed subset the CI check runs: the
// defended postures the gate protects plus the undefended control that
// proves the attacks have teeth.
func GateCells() []Cell {
	return []Cell{
		{PL: privacy.Moderate, Raid: raid.RAID5, Mislead: true, Cache: true, Hedge: false, Shards: 1},
		{PL: privacy.High, Raid: raid.RAID6, Mislead: true, Cache: false, Hedge: true, Shards: 1},
		{PL: privacy.Moderate, Raid: raid.RAID5, Mislead: true, Cache: true, Hedge: true, Shards: 4},
		{PL: privacy.Public, Raid: raid.RAID5, Mislead: false, Cache: false, Hedge: false, Shards: 1},
	}
}

// Sweep runs every cell at the given seed.
func Sweep(seed int64, cells []Cell) (*Frontier, error) {
	f := &Frontier{Schema: FrontierSchema, Seed: seed}
	for _, c := range cells {
		r, err := Run(Config{Seed: seed, Cell: c})
		if err != nil {
			return nil, fmt.Errorf("minecheck: cell %s: %w", c, err)
		}
		f.Cells = append(f.Cells, *r)
	}
	return f, nil
}

// Table renders the frontier as a GitHub-flavoured markdown table:
// worst-case (pooled-adversary) mining scores, the timing and placement
// side channels, and read throughput per cell.
func (f *Frontier) Table() string {
	var b strings.Builder
	b.WriteString("| Cell | Reg | Clu | Rule | NB | kNN | CoOwn F1 | Confusion | Shard corr | Reads/s |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	for i := range f.Cells {
		r := &f.Cells[i]
		s := r.Scores
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f | %.0f |\n",
			r.Cell, s.RegressionPooled, s.ClusterPooled, s.RulePooled,
			s.NBPooled, s.KNNPooled, s.CoOwnershipF1, s.TenantConfusion,
			s.ShardCorrelation, r.OpsPerSec)
	}
	return b.String()
}
