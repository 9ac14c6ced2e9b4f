package falcon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/table"
)

// TestSamplePairsGolden pins the stage-1 sample S on the benchmark's shape
// (PersonDomain 2 000 × 2 000 down-sampled to 1 000 × 1 000). The digests
// were recorded at the commit before the sampler's whole-tuple tokenizer
// merged into table's; every later Falcon stage learns from these rows.
func TestSamplePairsGolden(t *testing.T) {
	golden := map[int64]string{
		1: "c200b17b0a609d27",
		2: "b57aee0fb847e6b5",
		3: "2fe70ae05c79c053",
	}
	for seed, want := range golden {
		task, err := datagen.Generate(datagen.Spec{
			Name: "golden", Domain: datagen.PersonDomain(),
			SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		as, bs, err := table.DownSample(task.A, task.B, 1000, 1000, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		sample, _, err := samplePairs(as, bs, 2000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sample.Len() != 2000 {
			t.Fatalf("seed %d: sample has %d pairs, want 2000", seed, sample.Len())
		}
		lines := make([]string, sample.Len())
		for i := range lines {
			lid, rid := sample.IDs(i)
			lines[i] = strconv.Itoa(i) + "," + lid + "," + rid
		}
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		if got := hex.EncodeToString(sum[:8]); got != want {
			t.Errorf("seed %d: sample digest %s, recorded %s", seed, got, want)
		}
	}
}

// runDigest is what TestRunGolden pins of one Falcon run: SHA-256 prefixes
// of C's (lid, rid) list in order, of the match table's rows and of the
// blocking rules, and the three per-stage question counts.
type runDigest struct {
	candidates, matches, rules  string
	blockingQs, ruleQs, matchQs int
}

// TestRunGolden pins falcon.Run end to end on Table 2's members task and on
// 600 × 600 cuts of its citations and donors tasks, each with Table 2's
// labeler and question cap, at seeds 1–3. The digests were recorded before
// C and the active-learning pool became row-index pairs (table.Pairs).
func TestRunGolden(t *testing.T) {
	golden := map[string]runDigest{
		"members/1":   {"d39c7a5ea460b2cd", "ca4991d726d22df4", "f50b15ed5dbaefa5", 60, 40, 60},
		"members/2":   {"78fd203663e11812", "057addaf5c878cc9", "5e6c6ad89828d501", 60, 39, 61},
		"members/3":   {"2f48f8a50662b192", "fada7180b2160853", "126582a1a3561879", 61, 37, 52},
		"citations/1": {"3db0ec43765e0b53", "26106c84e282671d", "341b01db70ab7bfb", 132, 124, 20},
		"citations/2": {"84af840ce6898e68", "8e6a096a779716c1", "57ad7df7e257d5b7", 122, 116, 37},
		"citations/3": {"86e0910370a10314", "9573c1fbd108b7fc", "e5bc1d3b8313b686", 153, 117, 20},
		"donors/1":    {"96fcf9f26d1f9150", "23496cd35d54075b", "d50d6d5f5abcb176", 400, 204, 390},
		"donors/2":    {"74c2a78fcc65804d", "df67d235ee41d526", "cb948a88bff9527e", 393, 207, 242},
		"donors/3":    {"71254e87329e5e8c", "e29c6d5a1a1e1ec0", "3e06834631919fa2", 400, 210, 390},
	}
	digest := func(lines []string) string {
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		return hex.EncodeToString(sum[:8])
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, ts := range datagen.Table2Tasks(seed) {
			switch ts.Spec.Name {
			case "members":
			case "citations", "donors":
				ts.Spec.SizeA, ts.Spec.SizeB = 600, 600
			default:
				continue
			}
			task, err := datagen.Generate(ts.Spec)
			if err != nil {
				t.Fatal(err)
			}
			var lab label.Labeler = label.NewOracle(task.Gold)
			if ts.Crowd {
				lab = label.NewCrowd(task.Gold, seed)
			}
			res, err := Run(task.A, task.B, label.NewBudgeted(lab, ts.QuestionCap), table.NewCatalog(), Config{SampleSize: 2000, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cand := make([]string, res.Candidates.Len())
			for i := range cand {
				lid, rid := res.Candidates.IDs(i)
				cand[i] = lid + "," + rid
			}
			matches := make([]string, res.Matches.Len())
			for i := range matches {
				r := res.Matches.Row(i)
				matches[i] = r[0].AsString() + "," + r[1].AsString() + "," + r[2].AsString()
			}
			rs := make([]string, res.BlockingRules.Len())
			for i, r := range res.BlockingRules.Rules {
				rs[i] = r.Name + ": " + r.String()
			}
			got := runDigest{digest(cand), digest(matches), digest(rs), res.BlockingQuestions, res.RuleQuestions, res.MatchingQuestions}
			key := fmt.Sprintf("%s/%d", ts.Spec.Name, seed)
			if want := golden[key]; got != want {
				t.Errorf("%s: got %#v, recorded %#v", key, got, want)
			}
		}
	}
}
