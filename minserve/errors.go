package minserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Error codes are the machine-readable half of the error envelope.
// They are stable API: clients may switch on them, so codes are only
// ever added, never renamed. The human-readable message may change
// between releases; the code may not.
const (
	// CodeBadRequest: the request is malformed or semantically invalid
	// (bad JSON, unknown fields, out-of-range parameters, model
	// mixups, invalid fault plans).
	CodeBadRequest = "bad_request"
	// CodeUnknownNetwork: the catalog has no network of that name.
	CodeUnknownNetwork = "unknown_network"
	// CodeLimitExceeded: the request is well-formed but asks for more
	// than the operator's configured limits allow (stages, waves,
	// cycles, fault-list length, batch size, body bytes).
	CodeLimitExceeded = "limit_exceeded"
	// CodeOverloaded: admission control shed the request; the response
	// carries a Retry-After header. Retry with backoff.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the per-request deadline expired before the
	// work finished.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeInternal: the server failed to render a response.
	CodeInternal = "internal"
	// CodeJobNotFound: no job with that ID exists (never created, or
	// already garbage-collected past its TTL).
	CodeJobNotFound = "job_not_found"
	// CodeJobNotReady: the job exists but has no result yet (still
	// running, or canceled). Poll status until terminal.
	CodeJobNotReady = "job_not_ready"
	// CodeJobQuarantined: every shard of the job was quarantined after
	// exhausting retries, so no result exists at all. (A job with SOME
	// quarantined shards still completes, degraded, with a result.)
	CodeJobQuarantined = "job_quarantined"
	// CodeCheckpointCorrupt: the job's on-disk checkpoint failed
	// validation at resume — unreadable, or a faulty sweep drawn under
	// another fault stream — so its prior progress cannot be trusted and
	// the job is failed rather than silently recomputed.
	CodeCheckpointCorrupt = "checkpoint_corrupt"
	// CodeUnsupportedMediaType: the request's Content-Type names a wire
	// codec the server does not speak; the work endpoints accept
	// application/json (default) and application/x-min-bin.
	CodeUnsupportedMediaType = "unsupported_media_type"
)

// errorDetail is the structured error object every non-2xx response
// carries under the "error" key.
type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

// errorEnvelope is the uniform error response body.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

// httpError is an error with a chosen status code and stable error
// code.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// limitExceeded is a 400 whose cause is an operator-configured cap,
// distinguishable by code so clients can shrink-and-retry.
func limitExceeded(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, code: CodeLimitExceeded, msg: fmt.Sprintf(format, args...)}
}

func unknownNetwork(err error) error {
	return &httpError{status: http.StatusBadRequest, code: CodeUnknownNetwork, msg: err.Error()}
}

// unsupportedMediaType is the 415 a request earns by naming a wire
// codec the server does not speak in its Content-Type.
func unsupportedMediaType(mediaType string) error {
	return &httpError{status: http.StatusUnsupportedMediaType, code: CodeUnsupportedMediaType,
		msg: fmt.Sprintf("unsupported media type %q (use application/json or %s)", mediaType, MediaTypeBinary)}
}

// errOverloaded is the load-shedding error; the admission layer sets
// Retry-After before writing it.
var errOverloaded = &httpError{
	status: http.StatusTooManyRequests,
	code:   CodeOverloaded,
	msg:    "server overloaded: work queue full, retry later",
}

// envelopeFor renders any handler error into the wire envelope and its
// status. Deadline expiry surfaces as 503 deadline_exceeded — the
// client is still connected and deserves a diagnosable body.
func envelopeFor(err error) (errorEnvelope, int) {
	status, code := http.StatusBadRequest, CodeBadRequest
	var he *httpError
	switch {
	case errors.As(err, &he):
		status, code = he.status, he.code
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusServiceUnavailable, CodeDeadlineExceeded
	}
	return errorEnvelope{Error: errorDetail{Code: code, Message: err.Error(), Status: status}}, status
}

// clientGone reports whether the request failed because the client
// disconnected (as opposed to a server-side deadline): there is nobody
// left to write a body to. The instrument middleware accounts these as
// 499s so disconnects never inflate the 4xx/5xx series in /metrics.
func clientGone(r *http.Request, err error) bool {
	return errors.Is(r.Context().Err(), context.Canceled) || errors.Is(err, context.Canceled)
}

func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	if clientGone(r, err) {
		// A dead client gets no body; instrument() sees that nothing
		// was written on a cancelled context and records the 499.
		return
	}
	env, status := envelopeFor(err)
	writeJSON(w, status, env)
}

// encodeErr renders the envelope for an error as standalone JSON bytes
// (batch sub-responses embed these).
func encodeErr(err error) ([]byte, int) {
	env, status := envelopeFor(err)
	body, mErr := encodeJSON(env)
	if mErr != nil { // cannot happen: the envelope is plain data
		body = []byte(`{"error":{"code":"internal","message":"encoding failure","status":500}}` + "\n")
		status = http.StatusInternalServerError
	}
	return body, status
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
