package cloud

// Canonical request-level error codes of the HTTP API. Every error
// response writes exactly one of these into the envelope's "code" field;
// clients branch on the code, never on message text. Handlers pass one of
// these named constants to writeError (TestErrorEnvelope holds them to it)
// — an inline string would mint an unregistered code that drifts out of
// the docs (docs/GUIDE.md, "The serving API") and out of client switch
// statements.
const (
	// codeBadJSON: the request body is not valid JSON for the route's
	// schema (400).
	codeBadJSON = "bad_json"
	// codeInvalidDAG: the submitted workflow graph fails validation —
	// unknown node kind, cycle, missing input (400).
	codeInvalidDAG = "invalid_dag"
	// codePayloadTooLarge: the request body exceeds the route's byte
	// budget (413).
	codePayloadTooLarge = "payload_too_large"
	// codeUnknownCorpus: the named serving corpus does not exist, or no
	// corpora are configured at all (404).
	codeUnknownCorpus = "unknown_corpus"
	// codeConflict: a corpus write names an ID that is already live (add
	// without upsert) or not live (delete), in the corpus or earlier in the
	// same batch. The batch is all-or-nothing: nothing was applied (409).
	codeConflict = "conflict"
	// codeOverloaded: the serving pool rejected the request — queue full
	// (429) or shut down (503).
	codeOverloaded = "overloaded"
	// codeEncodeFailed: the response payload could not be marshaled; the
	// 500 of last resort written by writeJSON itself.
	codeEncodeFailed = "encode_failed"
	// codeBadRecord: a corpus mutation carries a record that fails
	// validation (400).
	codeBadRecord = "bad_record"
)
