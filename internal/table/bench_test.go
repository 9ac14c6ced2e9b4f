package table_test

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// BenchmarkDownSample is the guide's first step in the benchmark's shape:
// PersonDomain 2 000 × 2 000 down to 1 000 × 1 000 (batch_figure2).
func BenchmarkDownSample(b *testing.B) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "bench", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := table.DownSample(task.A, task.B, 1000, 1000, rand.New(rand.NewSource(1)), 0); err != nil {
			b.Fatal(err)
		}
	}
}
