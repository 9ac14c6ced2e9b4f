package falcon

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
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
		as, bs, err := table.DownSample(task.A, task.B, 1000, 1000, rng)
		if err != nil {
			t.Fatal(err)
		}
		sample, err := samplePairs(as, bs, table.NewCatalog(), 2000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sample.Len() != 2000 {
			t.Fatalf("seed %d: sample has %d pairs, want 2000", seed, sample.Len())
		}
		lines := make([]string, sample.Len())
		for i := range lines {
			r := sample.Row(i)
			lines[i] = r[0].AsString() + "," + r[1].AsString() + "," + r[2].AsString()
		}
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		if got := hex.EncodeToString(sum[:8]); got != want {
			t.Errorf("seed %d: sample digest %s, recorded %s", seed, got, want)
		}
	}
}
