package feature

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/intern"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/table"
)

func benchSetup(b *testing.B, pairs int) (*Set, *table.Table, *table.Catalog) {
	b.Helper()
	sch := table.StringSchema("id", "name", "city", "zip")
	a := table.New("A", sch)
	bt := table.New("B", sch)
	n := pairs
	for i := 0; i < n; i++ {
		a.MustAppend(table.String(fmt.Sprintf("a%d", i)),
			table.String(fmt.Sprintf("acme widgets store %d", i)),
			table.String("madison"), table.String(fmt.Sprintf("%05d", i)))
		bt.MustAppend(table.String(fmt.Sprintf("b%d", i)),
			table.String(fmt.Sprintf("acme widget store %d", i)),
			table.String("madison"), table.String(fmt.Sprintf("%05d", i)))
	}
	if err := a.SetKey("id"); err != nil {
		b.Fatal(err)
	}
	if err := bt.SetKey("id"); err != nil {
		b.Fatal(err)
	}
	cat := table.NewCatalog()
	p, err := table.NewPairTable("C", a, bt, cat)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		appendPair(p, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	fs, err := AutoGenerate(a, bt)
	if err != nil {
		b.Fatal(err)
	}
	return fs, p, cat
}

func BenchmarkVectors1K(b *testing.B) {
	fs, p, cat := benchSetup(b, 1000)
	pairs, err := cat.Pairs(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Vectors(fs, pairs, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVectors1KSerial(b *testing.B) {
	fs, p, cat := benchSetup(b, 1000)
	pairs, err := cat.Pairs(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Vectors(fs, pairs, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoGenerate(b *testing.B) {
	fs, _, _ := benchSetup(b, 100)
	_ = fs
	sch := table.StringSchema("id", "name", "city", "zip")
	a := table.New("A", sch)
	a.MustAppend(table.String("a1"), table.String("x"), table.String("y"), table.String("z"))
	bt := a.Clone()
	bt.SetName("B")
	a.MustSetKey("id")
	bt.MustSetKey("id")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AutoGenerate(a, bt); err != nil {
			b.Fatal(err)
		}
	}
}

// personRows is a PersonDomain task with its 32 AutoGenerate features and
// both tables rendered as attribute maps: the shape serve_heavy scores.
func personRows(b *testing.B, n int) (*Set, []map[string]string, []map[string]string) {
	b.Helper()
	task, err := datagen.Generate(datagen.Spec{Name: "bench", Domain: datagen.PersonDomain(), SizeA: n, SizeB: n, Typo: 0.2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	fs, err := AutoGenerate(task.A, task.B)
	if err != nil {
		b.Fatal(err)
	}
	render := func(t *table.Table) []map[string]string {
		out := make([]map[string]string, t.Len())
		for i := range out {
			out[i] = rowAttrs(t, t.Row(i))
		}
		return out
	}
	return fs, render(task.A), render(task.B)
}

// BenchmarkPrepare is the per-record half: one corpus-side record through
// Set.Prepare, interning included. bytes/record is what a prepared record
// keeps alive: the heap 500 of them hold after a collection, over a
// dictionary that already knows their tokens.
func BenchmarkPrepare(b *testing.B) {
	fs, _, rights := personRows(b, 500)
	d := intern.NewDict()
	recs := make([]*Prepared, len(rights))
	for i := range rights {
		fs.Prepare(rights[i], true, d.SortedSet)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Prepare(rights[i%len(rights)], true, d.SortedSet)
	}
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range recs {
		recs[i] = fs.Prepare(rights[i], true, d.SortedSet)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(len(recs)), "bytes/record")
	runtime.KeepAlive(recs)
	runtime.KeepAlive(rights) // and what else "before" held, or the second collection frees it
	runtime.KeepAlive(d)
}

// BenchmarkPreparedPairVector is the per-pair half with both records
// prepared beforehand: all 32 columns of one pair.
func BenchmarkPreparedPairVector(b *testing.B) {
	fs, lefts, rights := personRows(b, 500)
	d := intern.NewDict()
	ls, rs := make([]*Prepared, len(lefts)), make([]*Prepared, len(rights))
	for i := range ls {
		ls[i], rs[i] = fs.Prepare(lefts[i], false, d.SortedSet), fs.Prepare(rights[i], true, d.SortedSet)
	}
	var sc sim.Scratch
	x := make([]float64, fs.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.VectorInto(ls[i%len(ls)], rs[(i*7)%len(rs)], &sc, x)
	}
}

// BenchmarkVectorWithInto is what the harness's replay times as
// feature.pair_vector_ns: both sides prepared from their strings into
// pooled scratch for every pair, then all 32 columns.
func BenchmarkVectorWithInto(b *testing.B) {
	fs, lefts, rights := personRows(b, 500)
	d := intern.NewDict()
	lsets, rsets := make([][][]uint32, len(lefts)), make([][][]uint32, len(rights))
	for i := range lsets {
		lsets[i], rsets[i] = fs.RecordSets(lefts[i], false, d.SortedSet), fs.RecordSets(rights[i], true, d.SortedSet)
	}
	x := make([]float64, fs.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, r := i%len(lefts), (i*7)%len(rights)
		fs.VectorWithInto(lefts[l], rights[r], lsets[l], rsets[r], x)
	}
}

// BenchmarkForest900 is serve's scoring step outside serve: one query
// prepared, then 900 prepared candidates scored — the full row of each
// through the compiled forest.
func BenchmarkForest900(b *testing.B) {
	fs, lefts, rights := personRows(b, 900)
	d := intern.NewDict()
	rs := make([]*Prepared, len(rights))
	for i := range rs {
		rs[i] = fs.Prepare(rights[i], true, d.SortedSet)
	}
	var x [][]float64
	var y []int
	for i := range lefts {
		x, y = append(x, fs.VectorWith(lefts[i], rights[i], nil, nil), fs.VectorWith(lefts[i], rights[(i+1)%len(rights)], nil, nil)), append(y, 1, 0)
	}
	ds, err := ml.NewDataset(x, y, fs.Names())
	if err != nil {
		b.Fatal(err)
	}
	rf := &ml.RandomForest{NumTrees: 10, Seed: 1, Workers: 1}
	if err := rf.Fit(ds); err != nil {
		b.Fatal(err)
	}
	flat, err := ml.NewFlatForest(rf)
	if err != nil {
		b.Fatal(err)
	}
	var sc sim.Scratch
	row := make([]float64, fs.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := fs.Prepare(lefts[i%len(lefts)], false, d.SortedSetEphemeral)
		for _, r := range rs {
			fs.VectorInto(l, r, &sc, row)
			flat.PredictProba(row)
		}
	}
}

// BenchmarkVectorIntoScan is serve's scoring loop without the forest: one
// left record against 1 000 prepared right ones on one scratch, a new left
// record each iteration. repeating takes the rights as datagen's person
// domain makes them — a few states, a few dozen cities, names that recur —
// and all_unique makes every value of every attribute distinct, the
// memo's worst case: a probe and an insert per group, nothing reused.
func BenchmarkVectorIntoScan(b *testing.B) {
	const n = 1000
	fs, lefts, rights := personRows(b, n)
	unique := make([]map[string]string, n)
	for i, r := range rights {
		unique[i] = map[string]string{}
		for attr, v := range r {
			if unique[i][attr] = fmt.Sprintf("%s %d", v, i); attr == "zip" {
				unique[i][attr] = fmt.Sprintf("%05d", 10000+i)
			}
		}
	}
	for _, c := range []struct {
		name   string
		rights []map[string]string
	}{{"repeating", rights}, {"all_unique", unique}} {
		b.Run(c.name, func(b *testing.B) {
			d := intern.NewDict()
			rs := make([]*Prepared, n)
			for i := range rs {
				rs[i] = fs.Prepare(c.rights[i], true, d.SortedSet)
			}
			ls := make([]*Prepared, 64)
			for i := range ls {
				ls[i] = fs.Prepare(lefts[i], false, d.SortedSetEphemeral)
			}
			var sc sim.Scratch
			row := make([]float64, fs.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := ls[i%len(ls)]
				for _, r := range rs {
					fs.VectorInto(l, r, &sc, row)
				}
			}
			b.StopTimer()
			_, reused := sc.TakeBlockCounts()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pair")
			b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
		})
	}
}
