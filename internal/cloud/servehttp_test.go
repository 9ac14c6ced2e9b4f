package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tokenize"
)

// newServeTestServer wires a Server with a one-corpus serve.Registry.
func newServeTestServer(t *testing.T, opts ...serve.CorpusOption) (*httptest.Server, *serve.Corpus, *serve.Pool) {
	t.Helper()
	c := serve.NewCorpus(opts...)
	for i, name := range []string{"acme corp", "acme inc", "globex llc"} {
		err := c.Add(serve.Record{
			ID:    fmt.Sprintf("r%d", i),
			Attrs: map[string]string{"name": name},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := serve.NewRegistry()
	p := serve.NewPool(c, 1, 2)
	if err := reg.Register("products", c, p); err != nil {
		t.Fatal(err)
	}
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	srv := httptest.NewServer(NewServer(mm, WithCorpora(reg)).Handler())
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
		mm.Close()
	})
	return srv, c, p
}

// nameRecord is a record with the one attribute the serving tests use.
func nameRecord(id, name string) serve.Record {
	return serve.Record{ID: id, Attrs: map[string]string{"name": name}}
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(mustJSON(t, v)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPCorpusLifecycle drives add, list, match, and delete through the
// /v1 surface and checks the JSON shapes round-trip.
func TestHTTPCorpusLifecycle(t *testing.T) {
	srv, _, _ := newServeTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/corpus/add", corpusAddRequest{
		Corpus: "products",
		Records: []serve.Record{
			{ID: "n1", Attrs: map[string]string{"name": "initech corp"}},
			{ID: "n2", Attrs: map[string]string{"name": "hooli inc"}},
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus/add = %d", resp.StatusCode)
	}
	var mut corpusMutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	if mut.Applied != 2 || mut.Stats.Records != 5 {
		t.Fatalf("add applied %d / %d records, want 2 / 5", mut.Applied, mut.Stats.Records)
	}

	lresp, err := http.Get(srv.URL + "/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []corpusInfo
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "products" || list[0].Records != 5 {
		t.Fatalf("corpus list = %+v, want one products entry with 5 records", list)
	}

	mresp := postJSON(t, srv.URL+"/v1/match", matchRequest{
		Corpus: "products",
		Record: serve.Record{ID: "q", Attrs: map[string]string{"name": "acme corp"}},
	})
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("match = %d", mresp.StatusCode)
	}
	var match matchResponse
	if err := json.NewDecoder(mresp.Body).Decode(&match); err != nil {
		t.Fatal(err)
	}
	if len(match.Pairs) == 0 || match.Pairs[0].ID != "r0" || match.Pairs[0].Score != 1 {
		t.Fatalf("match pairs = %+v, want r0 scored 1.0 first", match.Pairs)
	}

	dresp := postJSON(t, srv.URL+"/v1/corpus/delete", corpusDeleteRequest{
		Corpus: "products", IDs: []string{"n1", "n2"},
	})
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("corpus/delete = %d", dresp.StatusCode)
	}
	if err := json.NewDecoder(dresp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	if mut.Applied != 2 || mut.Stats.Records != 3 {
		t.Fatalf("delete applied %d / %d records, want 2 / 3", mut.Applied, mut.Stats.Records)
	}
}

// TestHTTPCorpusUpsert: a duplicate add fails with 409 conflict, nothing
// applied, and succeeds as an update when upsert is set.
func TestHTTPCorpusUpsert(t *testing.T) {
	srv, c, _ := newServeTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/corpus/add", corpusAddRequest{
		Corpus:  "products",
		Records: []serve.Record{{ID: "r0", Attrs: map[string]string{"name": "acme corp intl"}}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate add = %d, want 409", resp.StatusCode)
	}
	eb := decodeError(t, resp.Body)
	if eb.Code != "conflict" || !strings.Contains(eb.Detail, "nothing was applied") {
		t.Fatalf("conflict envelope = %+v", eb)
	}

	uresp := postJSON(t, srv.URL+"/v1/corpus/add", corpusAddRequest{
		Corpus:  "products",
		Records: []serve.Record{{ID: "r0", Attrs: map[string]string{"name": "acme corp intl"}}},
		Upsert:  true,
	})
	defer uresp.Body.Close()
	if uresp.StatusCode != http.StatusOK {
		t.Fatalf("upsert add = %d, want 200", uresp.StatusCode)
	}
	if got := c.Stats().Records; got != 3 {
		t.Fatalf("records after upsert = %d, want 3", got)
	}
}

// TestHTTPCorpusAddBadRecord: a record that fails validation is a 400
// bad_record, with or without upsert, and the batch it rode in on is not
// applied — not even the valid records ahead of it.
func TestHTTPCorpusAddBadRecord(t *testing.T) {
	srv, c, _ := newServeTestServer(t)
	for _, upsert := range []bool{false, true} {
		resp := postJSON(t, srv.URL+"/v1/corpus/add", corpusAddRequest{
			Corpus: "products",
			Records: []serve.Record{
				{ID: "fresh", Attrs: map[string]string{"name": "initech llc"}},
				{ID: "", Attrs: map[string]string{"name": "nameless"}},
			},
			Upsert: upsert,
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upsert=%v: bad record = %d, want 400", upsert, resp.StatusCode)
		}
		eb := decodeError(t, resp.Body)
		if eb.Code != "bad_record" || !strings.Contains(eb.Detail, "record 2 of 2") {
			t.Fatalf("upsert=%v: bad_record envelope = %+v", upsert, eb)
		}
		if got := c.Stats().Records; got != 3 {
			t.Fatalf("upsert=%v: %d records after a rejected batch, want the original 3", upsert, got)
		}
	}
}

// TestHTTPServeErrors covers the structured envelope on the serving
// routes: unknown corpus, unconfigured registry, and bad JSON.
func TestHTTPServeErrors(t *testing.T) {
	srv, _, _ := newServeTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/match", matchRequest{
		Corpus: "ghosts",
		Record: serve.Record{ID: "q", Attrs: map[string]string{"name": "x"}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown corpus = %d, want 404", resp.StatusCode)
	}
	eb := decodeError(t, resp.Body)
	if eb.Code != "unknown_corpus" || !strings.Contains(eb.Detail, "products") {
		t.Fatalf("unknown_corpus envelope = %+v", eb)
	}

	// A server without WithCorpora 404s every serving route.
	bare, _ := newTestServer(t)
	bresp := postJSON(t, bare.URL+"/v1/match", matchRequest{Corpus: "products"})
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unconfigured match = %d, want 404", bresp.StatusCode)
	}
	if eb := decodeError(t, bresp.Body); eb.Code != "unknown_corpus" || !strings.Contains(eb.Detail, "WithCorpora") {
		t.Fatalf("unconfigured envelope = %+v", eb)
	}

	jresp, err := http.Post(srv.URL+"/v1/corpus/add", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d, want 400", jresp.StatusCode)
	}
	if eb := decodeError(t, jresp.Body); eb.Code != "bad_json" {
		t.Fatalf("bad_json envelope = %+v", eb)
	}
}

// parkTok is a blocking tokenizer that stops a query holding the token
// "park" inside MatchOne until release is closed.
type parkTok struct {
	tokenize.Whitespace
	release chan struct{}
}

func (p parkTok) Tokenize(s string) []string {
	if strings.Contains(s, "park") {
		<-p.release
	}
	return p.Whitespace.Tokenize(s)
}

// admitWatch signals admitted each time the pool lets a request in (it
// counts the request into the queue-depth gauge holding its place).
type admitWatch struct {
	obs.Recorder
	admitted chan struct{}
}

func (w admitWatch) Gauge(name string, delta float64, _ ...obs.Label) {
	if name == obs.ServeQueueDepth && delta > 0 {
		w.admitted <- struct{}{}
	}
}

// TestHTTPMatchOverloaded: when the pool refuses, the route answers 429
// with Retry-After and the overloaded code — HTTP backpressure end to end.
// Every place in the pool (one running, two waiting) is first taken by a
// query parked inside its match, so the HTTP request arrives at a provably
// full pool.
func TestHTTPMatchOverloaded(t *testing.T) {
	tok := parkTok{Whitespace: tokenize.Whitespace{ReturnSet: true}, release: make(chan struct{})}
	watch := admitWatch{Recorder: obs.Nop, admitted: make(chan struct{}, 3)}
	srv, _, p := newServeTestServer(t, serve.WithTokenizer(tok), serve.WithMetrics(watch))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Match(context.Background(), serve.Record{ID: "q", Attrs: map[string]string{"name": "acme park"}}); err != nil {
				t.Error(err)
			}
		}()
	}
	defer func() {
		close(tok.release)
		wg.Wait()
	}()
	for i := 0; i < 3; i++ {
		<-watch.admitted
	}
	resp := postJSON(t, srv.URL+"/v1/match", matchRequest{
		Corpus: "products",
		Record: serve.Record{ID: "q", Attrs: map[string]string{"name": "acme"}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("match on a full pool = %d, want 429", resp.StatusCode)
	}
	// The hint is derived from queue depth and measured service time, so
	// the exact value varies; it must be a whole number of seconds in the
	// clamp range.
	if got, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || got < 1 || got > 30 {
		t.Errorf("Retry-After = %q, want an integer in [1, 30]", resp.Header.Get("Retry-After"))
	}
	if eb := decodeError(t, resp.Body); eb.Code != "overloaded" {
		t.Errorf("overloaded envelope = %+v", eb)
	}
}

// TestHTTPMatchCancelled: a match that ends on its request's context — the
// caller hung up, or the deadline passed while it waited or ran — is the
// server failing to serve in time, 503 overloaded, and not the caller's
// record being bad.
func TestHTTPMatchCancelled(t *testing.T) {
	srv, _, _ := newServeTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := mustJSON(t, matchRequest{Corpus: "products", Record: serve.Record{ID: "q", Attrs: map[string]string{"name": "acme"}}})
	rec := httptest.NewRecorder()
	srv.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("match under a cancelled context = %d, want 503", rec.Code)
	}
	if eb := decodeError(t, rec.Body); eb.Code != "overloaded" {
		t.Errorf("cancelled envelope = %+v", eb)
	}
}

// TestHTTPCorpusBatchAllOrNothing: a corpus write is one batch. A conflict
// anywhere in it — against the live set or against the batch's own earlier
// records — answers 409 with nothing applied: the corpus's epoch and what a
// from-scratch rebuild of it surfaces are what they were before.
func TestHTTPCorpusBatchAllOrNothing(t *testing.T) {
	srv, c, _ := newServeTestServer(t)
	rec := nameRecord
	probes := []serve.Record{rec("q", "acme corp"), rec("q", "initech hooli llc"), rec("q", "globex inc")}
	state := func() (uint64, [][]string) {
		rebuilt := c.Rebuilt()
		var cands [][]string
		for _, q := range probes {
			cands = append(cands, rebuilt.CandidateIDs(q))
		}
		return c.Stats().Epoch, cands
	}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"duplicate ID mid-batch", "/v1/corpus/add", corpusAddRequest{Corpus: "products",
			Records: []serve.Record{rec("n1", "initech corp"), rec("r1", "acme intl"), rec("n2", "hooli inc")}}},
		{"ID twice in one batch", "/v1/corpus/add", corpusAddRequest{Corpus: "products",
			Records: []serve.Record{rec("n1", "initech corp"), rec("n1", "initech llc")}}},
		{"unknown ID mid-delete", "/v1/corpus/delete", corpusDeleteRequest{Corpus: "products", IDs: []string{"r0", "ghost", "r1"}}},
		{"ID twice in one delete", "/v1/corpus/delete", corpusDeleteRequest{Corpus: "products", IDs: []string{"r0", "r0"}}},
	} {
		epoch, cands := state()
		resp := postJSON(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s: status %d, want 409", tc.name, resp.StatusCode)
		}
		if eb := decodeError(t, resp.Body); eb.Code != "conflict" || !strings.Contains(eb.Detail, "nothing was applied") {
			t.Errorf("%s: envelope = %+v", tc.name, eb)
		}
		closeBody(t, resp)
		if gotEpoch, gotCands := state(); gotEpoch != epoch || !reflect.DeepEqual(gotCands, cands) {
			t.Errorf("%s: the refused batch changed the corpus: epoch %d -> %d, candidates %v -> %v", tc.name, epoch, gotEpoch, cands, gotCands)
		}
	}

	// With upsert the same ID twice is an add and then an update of it: the
	// batch applies, in order, and is published whole.
	resp := postJSON(t, srv.URL+"/v1/corpus/add", corpusAddRequest{Corpus: "products", Upsert: true,
		Records: []serve.Record{rec("n1", "initech corp"), rec("r0", "acme corp intl"), rec("n1", "hooli llc")}})
	defer closeBody(t, resp)
	var mut corpusMutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert batch: status %d, decode %v", resp.StatusCode, err)
	}
	if mut.Applied != 3 || mut.Stats.Records != 4 {
		t.Fatalf("upsert batch applied %d, corpus holds %d; want 3 and 4", mut.Applied, mut.Stats.Records)
	}
	if got := c.CandidateIDs(rec("q", "initech")); len(got) != 0 {
		t.Errorf("n1's first version still surfaces: %v", got)
	}
	if got := c.CandidateIDs(rec("q", "hooli")); !reflect.DeepEqual(got, []string{"n1"}) {
		t.Errorf("candidates for n1's second version = %v, want [n1]", got)
	}
}
