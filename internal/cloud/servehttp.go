package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/serve"
)

// The /v1/corpus and /v1/match handlers expose a serve.Registry through
// the versioned API. Every route takes the corpus name in the JSON body
// (one registry serves many corpora, the CloudMatcher
// millions-of-users shape).

// decodeBody decodes a JSON request body under the server's size cap,
// writing the structured error itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), "raise the server's -max-body or shrink the payload")
			return false
		}
		writeError(w, http.StatusBadRequest, codeBadJSON, err.Error(), "")
		return false
	}
	return true
}

// corpusEntry resolves the named corpus, writing the structured error
// itself when serving is not configured or the name is unknown.
func (s *Server) corpusEntry(w http.ResponseWriter, name string) (*serve.Entry, bool) {
	if s.corpora == nil {
		writeError(w, http.StatusNotFound, codeUnknownCorpus, "no serving corpora configured",
			"start the server with corpus serving enabled (cloud.WithCorpora)")
		return nil, false
	}
	e, ok := s.corpora.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownCorpus, fmt.Sprintf("no corpus %q", name),
			fmt.Sprintf("registered corpora: %v", s.corpora.Names()))
		return nil, false
	}
	return e, true
}

// corpusInfo is one GET /v1/corpus entry.
type corpusInfo struct {
	Name string `json:"name"`
	serve.Stats
}

func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	out := []corpusInfo{}
	if s.corpora != nil {
		for _, name := range s.corpora.Names() {
			if e, ok := s.corpora.Get(name); ok {
				out = append(out, corpusInfo{Name: name, Stats: e.Corpus.Stats()})
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// corpusAddRequest is the POST /v1/corpus/add payload.
type corpusAddRequest struct {
	Corpus  string         `json:"corpus"`
	Records []serve.Record `json:"records"`
	// Upsert updates a record whose ID is already live instead of refusing
	// the batch.
	Upsert bool `json:"upsert"`
}

// corpusMutationResponse reports one write batch, applied whole.
type corpusMutationResponse struct {
	Corpus  string      `json:"corpus"`
	Applied int         `json:"applied"`
	Stats   serve.Stats `json:"stats"`
}

func (s *Server) handleCorpusAdd(w http.ResponseWriter, r *http.Request) {
	var req corpusAddRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	e, ok := s.corpusEntry(w, req.Corpus)
	if !ok {
		return
	}
	for i, rec := range req.Records {
		if err := rec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRecord, err.Error(),
				fmt.Sprintf("record %d of %d; nothing was applied", i+1, len(req.Records)))
			return
		}
	}
	if err := e.Corpus.AddBatch(req.Records, req.Upsert); err != nil {
		writeError(w, http.StatusConflict, codeConflict, err.Error(),
			fmt.Sprintf("nothing was applied: one conflict refuses all %d records", len(req.Records)))
		return
	}
	writeJSON(w, http.StatusOK, corpusMutationResponse{Corpus: req.Corpus, Applied: len(req.Records), Stats: e.Corpus.Stats()})
}

// corpusDeleteRequest is the POST /v1/corpus/delete payload.
type corpusDeleteRequest struct {
	Corpus string   `json:"corpus"`
	IDs    []string `json:"ids"`
}

func (s *Server) handleCorpusDelete(w http.ResponseWriter, r *http.Request) {
	var req corpusDeleteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	e, ok := s.corpusEntry(w, req.Corpus)
	if !ok {
		return
	}
	if err := e.Corpus.DeleteBatch(req.IDs); err != nil {
		writeError(w, http.StatusConflict, codeConflict, err.Error(),
			fmt.Sprintf("nothing was applied: one conflict refuses all %d ids", len(req.IDs)))
		return
	}
	writeJSON(w, http.StatusOK, corpusMutationResponse{Corpus: req.Corpus, Applied: len(req.IDs), Stats: e.Corpus.Stats()})
}

// matchRequest is the POST /v1/match payload.
type matchRequest struct {
	Corpus string       `json:"corpus"`
	Record serve.Record `json:"record"`
}

// matchResponse is the POST /v1/match reply.
type matchResponse struct {
	Corpus string             `json:"corpus"`
	Pairs  []serve.ScoredPair `json:"pairs"`
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req matchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	e, ok := s.corpusEntry(w, req.Corpus)
	if !ok {
		return
	}
	pairs, err := e.Pool.Match(r.Context(), req.Record)
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		retry := e.Pool.RetryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, codeOverloaded, err.Error(),
			fmt.Sprintf("the match queue is full; back off %ds and retry", retry))
		return
	case errors.Is(err, serve.ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, codeOverloaded, err.Error(),
			"the serving pool is shut down, or the match waited or ran past the request's deadline")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, codeBadRecord, err.Error(), "")
		return
	}
	writeJSON(w, http.StatusOK, matchResponse{Corpus: req.Corpus, Pairs: pairs})
}
