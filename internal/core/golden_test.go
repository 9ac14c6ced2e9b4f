package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/datagen"
	"repro/internal/label"
)

// TestSampleAndLabelGolden pins the guide's labeled sample S — the chosen
// pair ids, in order — on the benchmark's shape (PersonDomain 2 000 × 2 000
// down-sampled to 1 000 × 1 000, whole-tuple overlap k=2, 400 labels). The
// digests were recorded at the commit before biasedSample's mean-feature
// order moved into internal/active.
func TestSampleAndLabelGolden(t *testing.T) {
	golden := map[int64]string{
		1: "a98c80a5738fe697",
		2: "1403b73b4c33d935",
		3: "9de11287d3708614",
	}
	for seed, want := range golden {
		task, err := datagen.Generate(datagen.Spec{
			Name: "golden", Domain: datagen.PersonDomain(),
			SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(task.A, task.B, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DownSample(1000, 1000); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Block(block.WholeTupleOverlapBlocker{MinOverlap: 2}); err != nil {
			t.Fatal(err)
		}
		ls, err := s.SampleAndLabel(400, label.NewOracle(task.Gold))
		if err != nil {
			t.Fatal(err)
		}
		if ls.Pairs.Len() != 400 {
			t.Fatalf("seed %d: sample has %d pairs, want 400", seed, ls.Pairs.Len())
		}
		lines := make([]string, ls.Pairs.Len())
		for i := range lines {
			lines[i] = ls.Pairs.Get(i, "ltable_id").AsString() + "," + ls.Pairs.Get(i, "rtable_id").AsString()
		}
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		if got := hex.EncodeToString(sum[:8]); got != want {
			t.Errorf("seed %d: sample digest %s, recorded %s", seed, got, want)
		}
	}
}
