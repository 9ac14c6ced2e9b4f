// Self-service EM: a lay user matches two restaurant tables through
// CloudMatcher's Falcon workflow (Figures 3-5). The user never writes a
// rule or picks a model — they only answer match/no-match questions, here
// simulated by a Mechanical Turk crowd with per-answer cost and latency.
// The run prints the learned blocking rules (Figure 4), the question
// count, the simulated crowd bill, and the final accuracy: the columns of
// Table 2.
//
// Run with: go run ./examples/selfservice
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/falcon"
	"repro/internal/label"
	"repro/internal/table"
)

func main() {
	task, err := datagen.Generate(datagen.Spec{
		Name: "restaurants", Domain: datagen.RestaurantDomain(),
		SizeA: 800, SizeB: 800, MatchFraction: 0.45, Typo: 0.25, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The lay user is a simulated crowd: 3 workers per question at 2
	// cents each, 10% per-worker error, majority vote.
	crowd := label.NewCrowd(task.Gold, 3)
	budget := label.NewBudgeted(crowd, 1200) // CloudMatcher's question cap

	cat := table.NewCatalog()
	res, err := falcon.Run(task.A, task.B, budget, cat, falcon.Config{SampleSize: 1500, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("learned %d candidate blocking rules; %d confirmed precise:\n",
		res.CandidateRules.Len(), res.BlockingRules.Len())
	for _, r := range res.BlockingRules.Rules {
		fmt.Printf("  drop pair if %s\n", r)
	}
	fmt.Printf("\ncandidate set: %d pairs (cross product would be %d)\n",
		res.Candidates.Len(), task.A.Len()*task.B.Len())

	conf := core.Evaluate(res.Matches, task.Gold)
	st := crowd.Stats()
	fmt.Printf("\npredicted %d matches  P %.1f%%  R %.1f%%\n", res.Matches.Len(), 100*conf.Precision(), 100*conf.Recall())
	fmt.Printf("crowd effort: %d questions, $%.2f, ~%s of turnaround\n",
		st.Questions, st.CostUSD, st.Elapsed.Round(time.Hour))
	fmt.Printf("machine time: %s\n", res.MachineTime.Round(time.Millisecond))
	fmt.Printf("question breakdown: blocking %d, rule review %d, matching %d\n",
		res.BlockingQuestions, res.RuleQuestions, res.MatchingQuestions)
}
