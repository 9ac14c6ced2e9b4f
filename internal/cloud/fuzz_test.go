package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
)

// headerExampleJob is the job of cmd/cloudmatcher's header comment.
const headerExampleJob = `{
  "name": "demo", "seed": 1,
  "gold": [["a1","b1"]],
  "steps": [
    {"id":"ua","service":"upload_dataset","args":{"csv":"id,name\na1,acme corp\n","out":"a"}},
    {"id":"ub","service":"upload_dataset","args":{"csv":"id,name\nb1,acme corporation\n","out":"b"}},
    {"id":"ka","service":"set_key","args":{"table":"a","key":"id"},"after":["ua"]},
    {"id":"kb","service":"set_key","args":{"table":"b","key":"id"},"after":["ub"]},
    {"id":"f","service":"falcon","args":{"a":"a","b":"b"},"after":["ka","kb"]}
  ]}`

// fuzzBodyCap keeps a fuzzed job to tables of a few hundred rows, so one
// input costs milliseconds, and puts the 413 within the fuzzer's reach.
const fuzzBodyCap = 16 << 10

// FuzzJobsBody: whatever bytes arrive on POST /v1/jobs, the reply is one of
// the route's four statuses with a body that parses — the job reply for
// 200/422, the error envelope for 400/413 — no panic leaves the handler or
// a fragment, and no job is left in flight.
func FuzzJobsBody(f *testing.F) {
	const csvA, csvB = "id,name,city\na1,acme corp,madison\na2,globex inc,dane\na3,initech llc,verona\n",
		"id,name,city\nb1,acme corporation,madison\nb2,globex,dane\nb3,hooli,monona\n"
	f.Add([]byte(headerExampleJob))
	falcon := FalconJob("falcon", csvA, csvB, "id", "id", nil, 50)
	f.Add(mustJSON(f, jobRequest{Name: falcon.Name, Seed: 7, Gold: [][2]string{{"a1", "b1"}, {"a2", "b2"}}, Steps: falcon.Steps}))
	for _, c := range countArgs {
		for _, h := range hostileCounts {
			f.Add(hostileJob(f, csvA, csvB, c.service, c.arg, h.value, c.args, c.after))
		}
	}
	f.Add([]byte(`{"steps":[{"id":"a","service":"profile_dataset","after":["a"]}]}`))
	f.Add([]byte("{nope"))

	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	f.Cleanup(mm.Close)
	handler := NewServer(mm, WithMaxBodySize(fuzzBodyCap), WithRequestTimeout(5*time.Second)).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusUnprocessableEntity:
			var jr jobResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil || len(jr.Steps) == 0 && rec.Code == http.StatusOK {
				t.Fatalf("status %d with job reply %q: %v", rec.Code, rec.Body, err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if eb := decodeError(t, rec.Body); eb.Code == "" || eb.Message == "" {
				t.Fatalf("status %d with envelope %+v", rec.Code, eb)
			}
		default:
			t.Fatalf("status %d, want 200, 400, 413 or 422; body %q", rec.Code, rec.Body)
		}
		if n := mm.JobsInFlight(); n != 0 {
			t.Fatalf("%d jobs in flight after the reply", n)
		}
	})
}

// FuzzCorpusAddBody: whatever bytes arrive on POST /v1/corpus/add, the
// batch is applied whole (200) or not at all (400, 404, 409, 413): after
// a refusal the corpus's stats are what they were, after a 200 it holds
// exactly the IDs it held plus the batch's, and either way its candidates
// are those of a from-scratch rebuild.
func FuzzCorpusAddBody(f *testing.F) {
	rec := nameRecord
	seed := func(upsert bool, recs ...serve.Record) {
		f.Add(mustJSON(f, corpusAddRequest{Corpus: "products", Records: recs, Upsert: upsert}))
	}
	seed(false, rec("n1", "initech corp"), rec("n2", "hooli inc"))
	seed(false, rec("n1", "initech corp"), rec("r1", "acme intl"), rec("n2", "hooli inc"))
	seed(false, rec("n1", "initech corp"), rec("n1", "initech llc"))
	seed(true, rec("n1", "initech corp"), rec("r0", "acme corp intl"), rec("n1", "hooli llc"))
	seed(true, rec("n1", "initech corp"), rec("", "nameless"))
	f.Add([]byte(`{"corpus":"ghosts","records":[{"id":"x"}]}`))
	f.Add([]byte("{nope"))

	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	f.Cleanup(mm.Close)
	probes := []serve.Record{rec("q", "acme corp intl"), rec("q", "initech hooli llc"), rec("q", "globex inc")}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, corpora := fuzzCorpus(t)
		before := c.Stats()
		rr := httptest.NewRecorder()
		NewServer(mm, WithCorpora(corpora), WithMaxBodySize(fuzzBodyCap)).Handler().
			ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/corpus/add", bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK:
			// The handler decoded the body's first JSON value, so this does.
			var req corpusAddRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			want := map[string]bool{"r0": true, "r1": true, "r2": true}
			for _, r := range req.Records {
				want[r.ID] = true
			}
			var mut corpusMutationResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &mut); err != nil || mut.Applied != len(req.Records) || mut.Stats.Records != len(want) {
				t.Fatalf("200 reply %q (%v) for %d records over %d distinct IDs", rr.Body, err, len(req.Records), len(want))
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if eb := decodeError(t, rr.Body); eb.Code == "" {
				t.Fatalf("status %d with envelope %+v", rr.Code, eb)
			}
			if after := c.Stats(); after != before {
				t.Fatalf("status %d, yet the corpus changed: %+v -> %+v", rr.Code, before, after)
			}
		default:
			t.Fatalf("status %d, want 200, 400, 404, 409 or 413; body %q", rr.Code, rr.Body)
		}
		rebuilt := c.Rebuilt()
		for _, q := range probes {
			if got, want := c.CandidateIDs(q), rebuilt.CandidateIDs(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("candidates %v, a rebuild's %v", got, want)
			}
		}
	})
}

// fuzzCorpus is the three-record corpus the corpus fuzz targets start
// from, registered as "products" with a pool in front of it.
func fuzzCorpus(t *testing.T) (*serve.Corpus, *serve.Registry) {
	c := serve.NewCorpus()
	if err := c.AddBatch([]serve.Record{nameRecord("r0", "acme corp"), nameRecord("r1", "acme inc"), nameRecord("r2", "globex llc")}, false); err != nil {
		t.Fatal(err)
	}
	corpora := serve.NewRegistry()
	if err := corpora.Register("products", c, serve.NewPool(c, 1, 1)); err != nil {
		t.Fatal(err)
	}
	return c, corpora
}

// FuzzMatchBody: whatever bytes arrive on POST /v1/match, the reply is a
// 200 carrying exactly what MatchOne answers for the decoded record, or a
// 400, 404 or 413 error envelope; a match changes nothing in the corpus.
func FuzzMatchBody(f *testing.F) {
	seed := func(corpus string, rec serve.Record) {
		f.Add(mustJSON(f, matchRequest{Corpus: corpus, Record: rec}))
	}
	seed("products", nameRecord("q", "acme corp intl"))
	seed("products", nameRecord("q", "initech"))
	seed("products", serve.Record{ID: "q"})
	seed("products", serve.Record{ID: "q", Attrs: map[string]string{"name": "\xff\xfe acme", "city": "madison"}})
	seed("ghosts", nameRecord("q", "acme"))
	f.Add([]byte(`{"corpus":"products","record":{"id":7}}`))
	f.Add([]byte("{nope"))

	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	f.Cleanup(mm.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		c, corpora := fuzzCorpus(t)
		before := c.Stats()
		rr := httptest.NewRecorder()
		NewServer(mm, WithCorpora(corpora), WithMaxBodySize(fuzzBodyCap)).Handler().
			ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK:
			var req matchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			want, err := c.MatchOne(context.Background(), req.Record)
			if err != nil {
				t.Fatalf("200 for a record MatchOne refuses: %v", err)
			}
			var got matchResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil || got.Corpus != req.Corpus || len(got.Pairs) != len(want) {
				t.Fatalf("200 reply %q (%v), MatchOne answers %v", rr.Body, err, want)
			}
			for i := range want {
				if got.Pairs[i] != want[i] {
					t.Fatalf("pair %d: reply %+v, MatchOne %+v", i, got.Pairs[i], want[i])
				}
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			if eb := decodeError(t, rr.Body); eb.Code == "" {
				t.Fatalf("status %d with envelope %+v", rr.Code, eb)
			}
		default:
			t.Fatalf("status %d, want 200, 400, 404 or 413; body %q", rr.Code, rr.Body)
		}
		if after := c.Stats(); after != before {
			t.Fatalf("a match changed the corpus: %+v -> %+v", before, after)
		}
	})
}

// FuzzCorpusDeleteBody: whatever bytes arrive on POST /v1/corpus/delete,
// the batch is applied whole (200: Len drops by the batch's size) or not
// at all (400, 404, 409, 413: the stats, Len included, are what they
// were), and either way the candidates are those of a rebuild.
func FuzzCorpusDeleteBody(f *testing.F) {
	seed := func(corpus string, ids ...string) {
		f.Add(mustJSON(f, corpusDeleteRequest{Corpus: corpus, IDs: ids}))
	}
	seed("products", "r1")
	seed("products", "r0", "r2")
	seed("products", "r0", "r0")
	seed("products", "r1", "nobody")
	seed("products", "")
	seed("products")
	seed("ghosts", "r0")
	f.Add([]byte(`{"corpus":"products","ids":"r0"}`))
	f.Add([]byte("{nope"))

	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	f.Cleanup(mm.Close)
	probes := []serve.Record{nameRecord("q", "acme corp intl"), nameRecord("q", "globex inc")}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, corpora := fuzzCorpus(t)
		before := c.Stats()
		rr := httptest.NewRecorder()
		NewServer(mm, WithCorpora(corpora), WithMaxBodySize(fuzzBodyCap)).Handler().
			ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/corpus/delete", bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK:
			var req corpusDeleteRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			var mut corpusMutationResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &mut); err != nil || mut.Applied != len(req.IDs) ||
				c.Len() != before.Records-len(req.IDs) || mut.Stats.Records != c.Len() {
				t.Fatalf("200 reply %q (%v) deleting %d ids: Len %d -> %d", rr.Body, err, len(req.IDs), before.Records, c.Len())
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if eb := decodeError(t, rr.Body); eb.Code == "" {
				t.Fatalf("status %d with envelope %+v", rr.Code, eb)
			}
			if after := c.Stats(); after != before || c.Len() != before.Records {
				t.Fatalf("status %d, yet the corpus changed: %+v -> %+v", rr.Code, before, after)
			}
		default:
			t.Fatalf("status %d, want 200, 400, 404, 409 or 413; body %q", rr.Code, rr.Body)
		}
		rebuilt := c.Rebuilt()
		for _, q := range probes {
			if got, want := c.CandidateIDs(q), rebuilt.CandidateIDs(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("candidates %v, a rebuild's %v", got, want)
			}
		}
	})
}
