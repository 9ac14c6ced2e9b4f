package cloud

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*httptest.Server, *Metamanager) {
	t.Helper()
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	srv := httptest.NewServer(NewServer(mm).Handler())
	t.Cleanup(func() {
		srv.Close()
		mm.Close()
	})
	return srv, mm
}

func TestHTTPHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	// Only /v1 is routed: the unversioned path is a plain 404.
	bare, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Body.Close()
	if bare.StatusCode != http.StatusNotFound {
		t.Errorf("unversioned /healthz = %d, want 404", bare.StatusCode)
	}
}

func TestHTTPServices(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/services")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []serviceInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 20 {
		t.Errorf("services = %d, want 20", len(list))
	}
	kinds := map[string]bool{}
	for _, s := range list {
		kinds[s.Kind] = true
		if s.Doc == "" {
			t.Errorf("service %s has no doc", s.Name)
		}
	}
	for _, k := range []string{"batch", "user", "crowd"} {
		if !kinds[k] {
			t.Errorf("no %s-engine service in catalog", k)
		}
	}
}

func TestHTTPSubmitJob(t *testing.T) {
	srv, _ := newTestServer(t)
	payload := map[string]any{
		"name": "tiny",
		"seed": 1,
		"gold": [][2]string{{"1", "1"}},
		"steps": []map[string]any{
			{"id": "up", "service": "upload_dataset",
				"args": map[string]any{"csv": "id,name\n1,acme corp\n2,globex inc\n", "out": "t"}},
			{"id": "key", "service": "set_key",
				"args": map[string]any{"table": "t", "key": "id"}, "after": []string{"up"}},
			{"id": "prof", "service": "profile_dataset",
				"args": map[string]any{"table": "t"}, "after": []string{"key"}},
		},
	}
	body := mustJSON(t, payload)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Error != "" {
		t.Fatalf("job error: %s", jr.Error)
	}
	if len(jr.Steps) != 3 {
		t.Fatalf("steps = %d", len(jr.Steps))
	}
	for _, s := range jr.Steps {
		if s.Error != "" {
			t.Errorf("step %s failed: %s", s.Step, s.Error)
		}
	}
}

func TestHTTPSubmitBadJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPSubmitFailingJob(t *testing.T) {
	srv, _ := newTestServer(t)
	payload := map[string]any{
		"name": "broken",
		"steps": []map[string]any{
			{"id": "x", "service": "no_such_service", "args": map[string]any{}},
		},
	}
	body := mustJSON(t, payload)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Error == "" {
		t.Error("error missing from response")
	}
}

// TestHTTPSubmitMistypedArgument: an optional argument of the wrong type
// fails its step (422 with the step's error); it does not run the step on
// the default.
func TestHTTPSubmitMistypedArgument(t *testing.T) {
	srv, _ := newTestServer(t)
	csv := "id,name\n1,acme corp\n2,globex inc\n"
	payload := map[string]any{
		"name": "mistyped",
		"steps": []map[string]any{
			{"id": "a", "service": "upload_dataset", "args": map[string]any{"csv": csv, "out": "a"}},
			{"id": "ka", "service": "set_key", "args": map[string]any{"table": "a", "key": "id"}, "after": []string{"a"}},
			{"id": "blk", "service": "overlap_block",
				"args": map[string]any{"a": "a", "b": "a", "k": "2"}, "after": []string{"ka"}},
		},
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(t, payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer closeBody(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Steps) != 3 || !strings.Contains(jr.Steps[2].Error, `argument "k" is string, want int`) {
		t.Errorf("steps = %+v, want the blocking step to fail on its mistyped k", jr.Steps)
	}
}

func TestHTTPNoisyLabeler(t *testing.T) {
	srv, _ := newTestServer(t)
	payload := map[string]any{
		"name":          "noisy",
		"seed":          2,
		"labeler_error": 0.5,
		"gold":          [][2]string{},
		"steps": []map[string]any{
			{"id": "up", "service": "upload_dataset",
				"args": map[string]any{"csv": "id\n1\n", "out": "t"}},
		},
	}
	body := mustJSON(t, payload)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	closeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
