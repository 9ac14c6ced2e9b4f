package ml

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestExportGolden pins the persisted bytes of every exportable model,
// fitted at its default settings: the digests were recorded at the commit
// before TreeNode took over its own json tags and the two linear models
// came to share one standardizer, so they hold the wire format and the
// trained weights (every bit of w, b, mean, std) to what they were.
func TestExportGolden(t *testing.T) {
	ds := synthDataset(300, 2, 71)
	for _, tc := range []struct {
		model Classifier
		want  string
	}{
		{&DecisionTree{Seed: 3}, "4a34d65921c0fa14"},
		{&RandomForest{NumTrees: 6, Alpha: 0.7, Seed: 3}, "247fe41c5b069705"},
		{&LogisticRegression{Seed: 3}, "3a2a0eda0049f099"},
		{&LinearSVM{Seed: 3}, "8686097b942f1a1b"},
		{&GaussianNB{}, "f6d8fd81eb6a0c6b"},
	} {
		if err := tc.model.Fit(ds); err != nil {
			t.Fatal(err)
		}
		data, err := Export(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%s: export digest %s, want %s", tc.model.Name(), got, tc.want)
		}
	}
}
