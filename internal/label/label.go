// Package label simulates the human side of entity matching. The paper's
// tools require people — a single domain expert in PyMatcher, a lay user or
// a Mechanical Turk crowd in CloudMatcher — to answer "do these two tuples
// match?" questions. We cannot ship humans in a Go module, so this package
// substitutes configurable simulated labelers driven by a gold-truth
// oracle:
//
//   - Oracle       — perfect answers (an idealized expert),
//   - NoisyUser    — flips each answer with a given probability, modeling
//     the uncertain Vehicles expert of Table 2 who mislabeled pairs,
//   - Crowd        — N independent noisy workers per question combined by
//     majority vote, with per-answer monetary cost and latency, modeling
//     Mechanical Turk.
//
// Every labeler tracks questions asked, dollars spent, and simulated
// labeling time, which is exactly the data behind the Cost and Time columns
// of Table 2.
package label

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Gold is the ground-truth oracle: the set of truly matching id pairs.
type Gold struct {
	matches map[[2]string]bool
}

// NewGold builds a Gold from (lid, rid) match pairs.
func NewGold(pairs [][2]string) *Gold {
	g := &Gold{matches: make(map[[2]string]bool, len(pairs))}
	for _, p := range pairs {
		g.matches[p] = true
	}
	return g
}

// Add records one more true match.
func (g *Gold) Add(lid, rid string) { g.matches[[2]string{lid, rid}] = true }

// IsMatch reports the ground truth for a pair.
func (g *Gold) IsMatch(lid, rid string) bool { return g.matches[[2]string{lid, rid}] }

// Len returns the number of gold matches.
func (g *Gold) Len() int { return len(g.matches) }

// Pairs returns all gold match pairs, sorted so callers iterate the gold
// set in the same order every run.
func (g *Gold) Pairs() [][2]string {
	out := make([][2]string, 0, len(g.matches))
	for p := range g.matches {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Stats accumulates the cost of a labeling session.
type Stats struct {
	// Questions is the number of pairs labeled.
	Questions int
	// CostUSD is the simulated monetary cost (0 for a single user).
	CostUSD float64
	// Elapsed is the simulated wall-clock labeling time.
	Elapsed time.Duration
}

// String renders the stats in Table 2's units.
func (s Stats) String() string {
	return fmt.Sprintf("%d questions, $%.2f, %s", s.Questions, s.CostUSD, s.Elapsed.Round(time.Minute))
}

// Labeler answers match/no-match questions and meters its own effort.
// Implementations are safe for concurrent use.
type Labeler interface {
	// Label answers whether the pair matches.
	Label(lid, rid string) bool
	// Stats returns the session totals so far.
	Stats() Stats
}

// perQuestion is a single user's simulated time per answer, the rate
// implied by Table 2's user-time column.
const perQuestion = 5 * time.Second

// Oracle is a perfect labeler with configurable per-question time: the
// idealized single user of Table 2 whose labeling sessions took 9 minutes
// to 2 hours.
type Oracle struct {
	gold *Gold
	// PerQuestion is the simulated time per answer; 0 means perQuestion.
	PerQuestion time.Duration

	mu    sync.Mutex
	stats Stats
}

// NewOracle builds an Oracle over the gold truth.
func NewOracle(gold *Gold) *Oracle { return &Oracle{gold: gold} }

// Label implements Labeler.
func (o *Oracle) Label(lid, rid string) bool {
	o.mu.Lock()
	o.stats.Questions++
	o.stats.Elapsed += o.perQuestion()
	o.mu.Unlock()
	return o.gold.IsMatch(lid, rid)
}

func (o *Oracle) perQuestion() time.Duration {
	if o.PerQuestion <= 0 {
		return perQuestion
	}
	return o.PerQuestion
}

// Stats implements Labeler.
func (o *Oracle) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// NoisyUser answers from gold truth but flips each answer independently
// with probability ErrorRate, taking perQuestion per answer. It models the
// Table 2 "Vehicles" expert whose data was so incomplete that "even he was
// uncertain in many cases".
type NoisyUser struct {
	gold *Gold
	// ErrorRate is the per-answer flip probability in [0, 1).
	ErrorRate float64

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// NewNoisyUser builds a NoisyUser with a deterministic seed.
func NewNoisyUser(gold *Gold, errorRate float64, seed int64) *NoisyUser {
	return &NoisyUser{gold: gold, ErrorRate: errorRate, rng: rand.New(rand.NewSource(seed))}
}

// Label implements Labeler.
func (u *NoisyUser) Label(lid, rid string) bool {
	truth := u.gold.IsMatch(lid, rid)
	u.mu.Lock()
	defer u.mu.Unlock()
	u.stats.Questions++
	u.stats.Elapsed += perQuestion
	if u.rng.Float64() < u.ErrorRate {
		return !truth
	}
	return truth
}

// Stats implements Labeler.
func (u *NoisyUser) Stats() Stats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// Crowd simulates a Mechanical Turk crowd: each question is answered by
// crowdWorkers independent labelers, each flipping the truth with
// crowdWorkerError probability, combined by majority vote. Each answer
// costs crowdCostPerAnswer dollars, and each question adds crowdLatency of
// simulated wall-clock time (crowd rounds are serialized, matching the
// 22–36 hour turnarounds of Table 2).
type Crowd struct {
	gold *Gold

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// The crowd of Table 2: three workers per question (an odd count, so the
// majority vote never ties), each wrong one time in ten, paid 2¢ per HIT
// assignment, 90 s of turnaround per question.
const (
	crowdWorkers       = 3
	crowdWorkerError   = 0.1
	crowdCostPerAnswer = 0.02
	crowdLatency       = 90 * time.Second
)

// NewCrowd builds a Crowd with a deterministic seed.
func NewCrowd(gold *Gold, seed int64) *Crowd {
	return &Crowd{gold: gold, rng: rand.New(rand.NewSource(seed))}
}

// Label implements Labeler.
func (c *Crowd) Label(lid, rid string) bool {
	truth := c.gold.IsMatch(lid, rid)
	c.mu.Lock()
	defer c.mu.Unlock()
	votes := 0
	for w := 0; w < crowdWorkers; w++ {
		ans := truth
		if c.rng.Float64() < crowdWorkerError {
			ans = !ans
		}
		if ans {
			votes++
		}
	}
	c.stats.Questions++
	c.stats.CostUSD += crowdWorkers * crowdCostPerAnswer
	c.stats.Elapsed += crowdLatency
	return votes*2 > crowdWorkers
}

// Stats implements Labeler.
func (c *Crowd) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
