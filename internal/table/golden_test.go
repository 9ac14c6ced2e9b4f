package table_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// TestDownSampleGolden pins the down-sampler's choice of rows on the
// benchmark's shape (PersonDomain 2 000 × 2 000 → 1 000 × 1 000): the
// digests were recorded at the commit before the whole-tuple tokenizers
// merged, and batch_figure2's pinned confusion counts sit downstream of
// exactly these rows.
func TestDownSampleGolden(t *testing.T) {
	golden := map[int64]string{
		1: "994438849ea9bfb3",
		2: "95e4fe5405d0d7a3",
		3: "8374a41136418582",
	}
	for seed, want := range golden {
		task, err := datagen.Generate(datagen.Spec{
			Name: "golden", Domain: datagen.PersonDomain(),
			SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		as, bs, err := table.DownSample(task.A, task.B, 1000, 1000, rand.New(rand.NewSource(seed)), 0)
		if err != nil {
			t.Fatal(err)
		}
		aIDs, _ := as.Strings("id")
		bIDs, _ := bs.Strings("id")
		sum := sha256.Sum256([]byte(strings.Join(aIDs, ",") + "|" + strings.Join(bIDs, ",")))
		if got := hex.EncodeToString(sum[:8]); got != want {
			t.Errorf("seed %d: sampled row IDs digest %s, recorded %s", seed, got, want)
		}
	}
}

// TestDownSampleAcrossWorkers: on the benchmark's shape the down-sampler
// picks the same rows in the same order, and leaves its rng in the same
// state, at Workers 1, 4 and 0, and the whole-tuple index it probes holds
// the same sets at 1 and 4.
func TestDownSampleAcrossWorkers(t *testing.T) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "workers", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, w := range []int{1, 4, 0} {
		rng := rand.New(rand.NewSource(1))
		as, bs, err := table.DownSample(task.A, task.B, 1000, 1000, rng, w)
		if err != nil {
			t.Fatal(err)
		}
		aIDs, _ := as.Strings("id")
		bIDs, _ := bs.Strings("id")
		got := strings.Join(aIDs, ",") + "|" + strings.Join(bIDs, ",") + "|" + strconv.FormatInt(rng.Int63(), 10)
		if w == 1 {
			want = got
		} else if got != want {
			t.Errorf("Workers %d: down-sample differs from Workers 1", w)
		}
	}
	serial, wide := table.NewWholeTupleIndex(task.A, 1), table.NewWholeTupleIndex(task.A, 4)
	for i := range task.A.Len() {
		if !slices.Equal(serial.Row(i), wide.Row(i)) {
			t.Fatalf("row %d: Workers 4 indexes %v, Workers 1 %v", i, wide.Row(i), serial.Row(i))
		}
	}
	if s, w := serial.Sets(task.B), wide.Sets(task.B); !reflect.DeepEqual(s, w) {
		t.Fatal("Sets differs between Workers 1 and 4")
	}
}
