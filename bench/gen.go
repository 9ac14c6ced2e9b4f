package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/serve"
	"repro/internal/table"
)

// probePool is how many pool rows the writer never uses.
const probePool = 600

// corpusName is the serving corpus every request names, as in the
// cloudmatcher binary.
const corpusName = "default"

// writeOp is one pre-generated write batch.
type writeOp struct {
	Path    string   // /v1/corpus/add or /v1/corpus/delete
	Body    []byte   // the request body, byte-identical for one seed
	Records int      // records or IDs in the batch, which the reply must acknowledge
	Adds    []string // IDs live after the op that were not before
	Dels    []string // IDs no longer live after the op
}

// serveData is everything a serving run sends, made from the seed alone.
type serveData struct {
	corpus  []serve.Record    // bulk-loaded in set-up: stable partition, then churn partition
	queries []serve.Record    // cycled by the load generator
	gold    map[string]string // query ID -> corpus ID, stable partition only
	// Pre-marshalled bodies, so the client's cost is constant.
	loadBodies  [][]byte
	matchBodies [][]byte
	writes      []writeOp
	// pool holds records outside the corpus: the writer's payloads and
	// the traced run's direct Corpus calls.
	pool []serve.Record
}

// tableRecords renders table rows as serving records; nulls are omitted.
func tableRecords(t *table.Table) []serve.Record {
	names := t.Schema().Names()
	key := t.Key()
	out := make([]serve.Record, t.Len())
	for i := range out {
		attrs := make(map[string]string, len(names)-1)
		for _, n := range names {
			if n == key {
				continue
			}
			if v := t.Get(i, n); !v.IsNull() {
				attrs[n] = v.AsString()
			}
		}
		out[i] = serve.Record{ID: t.Get(i, key).AsString(), Attrs: attrs}
	}
	return out
}

type addBody struct {
	Corpus  string         `json:"corpus"`
	Records []serve.Record `json:"records"`
	Upsert  bool           `json:"upsert"`
}

type deleteBody struct {
	Corpus string   `json:"corpus"`
	IDs    []string `json:"ids"`
}

type matchBody struct {
	Corpus string       `json:"corpus"`
	Record serve.Record `json:"record"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only structs of strings reach here
	}
	return b
}

// genServeData builds corpus, queries and the full request lists.
// writeOps is how many write batches to pre-generate (0 for none).
func genServeData(p params, seed int64, writeOps int) (*serveData, error) {
	// Table A holds the corpus followed by a payload pool of fixed size
	// (entities absent at load time), so the data does not depend on the
	// run length. Each upsert batch draws writeFresh+writeUpdates pool
	// rows; the last probePool rows are kept for the traced run's probes.
	if need := (writeOps+1)/2*(writeFresh+writeUpdates) + probePool; need > p.Pool {
		return nil, fmt.Errorf("gen: %d write batches need %d pool rows, the workload has %d", writeOps, need, p.Pool)
	}
	// Eight times the queries at 0.85 matched leaves enough matched rows
	// whose gold falls in the stable partition, and enough unmatched ones.
	task, err := datagen.Generate(datagen.Spec{
		Name: "serve", Domain: datagen.PersonDomain(),
		SizeA: p.Corpus + p.Pool, SizeB: 8 * p.Queries,
		MatchFraction: 0.85, Typo: p.Typo, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	all := tableRecords(task.A)
	d := &serveData{corpus: all[:p.Corpus], pool: all[p.Corpus:], gold: make(map[string]string)}

	stable := make(map[string]bool, p.Corpus-p.Churn)
	for _, r := range d.corpus[:p.Corpus-p.Churn] {
		stable[r.ID] = true
	}
	goldOf := goldByRight(task.Gold)
	wantMatched := int(p.MatchShare * float64(p.Queries))
	matched, unmatched := 0, 0
	for _, q := range tableRecords(task.B) {
		a, has := goldOf[q.ID]
		switch {
		case has && stable[a] && matched < wantMatched:
			matched++
			d.gold[q.ID] = a
		case !has && unmatched < p.Queries-wantMatched:
			unmatched++
		default:
			continue
		}
		d.queries = append(d.queries, q)
	}
	if len(d.queries) != p.Queries {
		return nil, fmt.Errorf("gen: got %d queries (%d matched), want %d", len(d.queries), matched, p.Queries)
	}

	for i := 0; i < len(d.corpus); i += p.LoadBatch {
		end := min(i+p.LoadBatch, len(d.corpus))
		d.loadBodies = append(d.loadBodies, mustJSON(addBody{Corpus: corpusName, Records: d.corpus[i:end]}))
	}
	d.matchBodies = make([][]byte, len(d.queries))
	for i, q := range d.queries {
		d.matchBodies[i] = mustJSON(matchBody{Corpus: corpusName, Record: q})
	}
	d.writes = genWrites(d, p, seed, writeOps)
	return d, nil
}

// goldByRight indexes gold pairs by their right-table (query) ID.
func goldByRight(g *label.Gold) map[string]string {
	out := make(map[string]string, g.Len())
	for _, pr := range g.Pairs() {
		out[pr[1]] = pr[0]
	}
	return out
}

// genWrites pre-generates the writer's batches against a simulated live
// list of the churn partition, so the list depends on the seed only and
// the harness's shadow map is exact after any prefix of it.
func genWrites(d *serveData, p params, seed int64, n int) []writeOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	live := make([]string, 0, p.Churn+n*writeFresh)
	for _, r := range d.corpus[p.Corpus-p.Churn:] {
		live = append(live, r.ID)
	}
	next := 0 // next unused pool row
	ops := make([]writeOp, 0, n)
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			recs := make([]serve.Record, 0, writeFresh+writeUpdates)
			var adds []string
			for _, j := range rng.Perm(len(live))[:writeUpdates] {
				recs = append(recs, serve.Record{ID: live[j], Attrs: d.pool[next].Attrs})
				next++
			}
			for i := 0; i < writeFresh; i++ {
				recs = append(recs, d.pool[next])
				adds = append(adds, d.pool[next].ID)
				next++
			}
			live = append(live, adds...)
			ops = append(ops, writeOp{
				Path: "/v1/corpus/add", Adds: adds, Records: len(recs),
				Body: mustJSON(addBody{Corpus: corpusName, Records: recs, Upsert: true}),
			})
			continue
		}
		dels := make([]string, 0, writeDeletes)
		for i := 0; i < writeDeletes; i++ {
			j := rng.Intn(len(live))
			dels = append(dels, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		ops = append(ops, writeOp{
			Path: "/v1/corpus/delete", Dels: dels, Records: len(dels),
			Body: mustJSON(deleteBody{Corpus: corpusName, IDs: dels}),
		})
	}
	return ops
}
