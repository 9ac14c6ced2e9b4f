package block

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/table"
)

// The digests and counts in this file were recorded at the commit before
// the blockers moved onto one frame and the whole-tuple tokenizers merged;
// they pin that the merge changed no candidate set, no counter and no
// debugger report.

func digest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// TestBlockersGolden: every blocker's candidate table (name, rows, _ids)
// and its em_block_* counters equal the recorded ones at Workers 1 and 4.
func TestBlockersGolden(t *testing.T) {
	type want struct {
		table               string
		considered, emitted float64
	}
	golden := map[string]want{
		"cross":                         {"d60e1e8f696cde39", 57600, 57600},
		"attr_equiv(state)":             {"0cdb1ca107bf76ee", 5535, 5535},
		"hash(city)":                    {"802eb669d00eb41e", 2678, 2678},
		"hash(zip)":                     {"91472d662c1dfc79", 139, 139},
		"sorted_neighborhood(name,w=7)": {"20a86d17f97d5116", 0, 1463},
		"black_box(same_state)":         {"fc4bef24f8c55239", 57600, 5535},
		"overlap(name,k=1)":             {"193673fd992b2c48", 0, 4697},
		"jaccard(name,t=0.30)":          {"1fc1ac6fd87131f1", 0, 4697},
		"whole_tuple_overlap(k=2)":      {"1d079d0d9cbeefbb", 0, 4691},
	}
	a, b := parallelTables(t, 240)
	for _, blk := range everyBlocker(a) {
		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			cand, err := withKnobs(blk, workers, reg).Block(a, b, table.NewCatalog())
			if err != nil {
				t.Fatalf("%s: %v", blk.Name(), err)
			}
			lines := []string{cand.Name()}
			for i := 0; i < cand.Len(); i++ {
				r := cand.Row(i)
				lines = append(lines, r[0].AsString()+","+r[1].AsString()+","+r[2].AsString())
			}
			bl := obs.L("blocker", blk.Name())
			got := want{digest(lines), reg.CounterValue(obs.BlockPairsConsidered, bl), reg.CounterValue(obs.BlockPairsEmitted, bl)}
			if got != golden[blk.Name()] {
				t.Errorf("%s workers=%d: %#v, recorded %#v", blk.Name(), workers, got, golden[blk.Name()])
			}
			if n := reg.TimerCount(obs.BlockSeconds, bl); n != 1 {
				t.Errorf("%s workers=%d: %d em_block_seconds observations, want 1", blk.Name(), workers, n)
			}
		}
	}
}

// TestDebugBlockerGolden pins the debugger's report on the benchmark's
// shape: PersonDomain 2 000 × 2 000 down-sampled to 1 000 × 1 000.
func TestDebugBlockerGolden(t *testing.T) {
	golden := map[int64]string{
		1: "155836e396b1507c",
		2: "795da4bb6e461bde",
		3: "821044889538fc08",
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
		cat := table.NewCatalog()
		cand, err := OverlapBlocker{Attr: "name", MinOverlap: 2}.Block(as, bs, cat)
		if err != nil {
			t.Fatal(err)
		}
		missed, err := DebugBlocker(cand, cat, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(missed) != 50 {
			t.Fatalf("seed %d: %d missed pairs, want a full top-50", seed, len(missed))
		}
		lines := make([]string, len(missed))
		for i, m := range missed {
			lines[i] = fmt.Sprintf("%s,%s,%v", m.LID, m.RID, m.Sim)
		}
		if got := digest(lines); got != want {
			t.Errorf("seed %d: missed-pair digest %s, recorded %s", seed, got, want)
		}
	}
}
