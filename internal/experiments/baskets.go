package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/privacy"
)

// BasketPoint reports rule recovery for one attacker foothold.
type BasketPoint struct {
	Scope          string // "full" or the insider's provider name
	TxnsRecovered  int
	RulesMined     int
	PlantedFound   int
	PlantedMissing int
}

// BasketRuleExperiment plants association rules in a transaction log
// (§II-B: "association rule mining can be used to discover association
// relationships among large number of business transaction records"),
// uploads the log once to a single provider and once fragmented across
// nProviders, and reports whether each attacker recovers the planted
// rules.
func BasketRuleExperiment(cfg dataset.BasketConfig, nProviders int, minSup, minConf float64) ([]BasketPoint, error) {
	txns, err := dataset.GenerateBaskets(cfg)
	if err != nil {
		return nil, err
	}
	var body []byte
	for _, txn := range txns {
		body = append(body, []byte(strings.Join(txn, ","))...)
		body = append(body, '\n')
	}
	planted := cfg.PlantedRuleNames()

	score := func(scope string, blobs []attack.Blob) BasketPoint {
		res := attack.BasketRuleAttack(blobs, minSup, minConf)
		p := BasketPoint{Scope: scope, TxnsRecovered: res.TxnsRecovered, RulesMined: len(res.Rules)}
		for _, pr := range planted {
			if attack.HasRule(res.Rules, pr[0], pr[1]) {
				p.PlantedFound++
			} else {
				p.PlantedMissing++
			}
		}
		return p
	}

	return wholeVersusInsiders(body, nProviders, "shop", "txns.log", privacy.Moderate, score)
}

// FormatBasketExperiment renders rule recovery per attacker scope.
func FormatBasketExperiment(points []BasketPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %14s %16s\n", "scope", "txns", "rules", "planted found", "planted missing")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %10d %10d %14d %16d\n", p.Scope, p.TxnsRecovered, p.RulesMined, p.PlantedFound, p.PlantedMissing)
	}
	return b.String()
}
