package minserve

import (
	"net/http"
	"strings"

	"minequiv/internal/codec"
	"minequiv/internal/jobs"
)

// Per-request content negotiation for the work endpoints. The wire
// codec is chosen independently per direction: Content-Type picks how
// the request body is decoded, Accept picks how the response body is
// rendered, and the two may differ (a JSON client can ask for binary
// stats, a binary sweeper can ask for a JSON error-friendly response).
// Error envelopes are always JSON — a client debugging a 400 should
// never need a frame decoder.

// MediaTypeBinary is the negotiated binary wire codec (internal/codec
// frames). Send it as Content-Type to submit binary request bodies and
// as Accept to receive binary response bodies; any other Content-Type
// besides application/json (or curl's default form-urlencoded, read
// as JSON) is rejected 415 unsupported_media_type.
const MediaTypeBinary = "application/x-min-bin"

// wire is one request's negotiated codec pair.
type wire struct {
	reqBin  bool // request body is a binary frame
	respBin bool // response body should be a binary frame
}

// negotiate resolves the codecs of one work request from its
// Content-Type and Accept headers and counts the choice in /metrics.
// An unrecognized Content-Type is a 415; Accept never fails — a client
// that accepts nothing we speak still gets JSON, the default.
// application/x-www-form-urlencoded is read as JSON: it is what bare
// `curl -d` stamps on every body, the documented quickstart depends
// on it, and pre-0.9 servers never looked at Content-Type at all.
func (s *server) negotiate(r *http.Request) (wire, error) {
	var wi wire
	media, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	switch strings.TrimSpace(media) {
	case "", "application/json", "application/x-www-form-urlencoded":
	case MediaTypeBinary:
		wi.reqBin = true
	default:
		return wire{}, unsupportedMediaType(strings.TrimSpace(media))
	}
	wi.respBin = acceptsBinary(r)
	s.metrics.countWire(wi)
	return wi, nil
}

// acceptsBinary checks the Accept header for the binary media type
// (media parameters like ;q= are ignored, as in wantsSSE).
func acceptsBinary(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			media, _, _ := strings.Cut(part, ";")
			if strings.TrimSpace(media) == MediaTypeBinary {
				return true
			}
		}
	}
	return false
}

// decodeRequest parses a work request body under the negotiated
// request codec. Binary frame failures surface as the same 400
// bad_request a malformed JSON body gets.
func decodeRequest(wi wire, body []byte, v any) error {
	if !wi.reqBin {
		return decodeBytes(body, v)
	}
	if err := codec.Decode(body, v); err != nil {
		return badRequest("invalid binary request body: %v", err)
	}
	return nil
}

// renderFor picks the response renderer: the JSON encoder whose bytes
// the golden tests pin, or the binary codec.
func renderFor(wi wire) func(any) ([]byte, error) {
	if wi.respBin {
		return codec.Encode
	}
	return encodeJSON
}

// headerBin is the shared Content-Type value slice for binary
// responses (see headerJSON).
var headerBin = []string{MediaTypeBinary}

// writeWireBytes writes a pre-rendered body under the negotiated
// response codec; bin=false is byte-identical to writeJSONBytes.
func writeWireBytes(w http.ResponseWriter, status int, body []byte, xCache []string, bin bool) {
	if !bin {
		writeJSONBytes(w, status, body, xCache)
		return
	}
	h := w.Header()
	h["Content-Type"] = headerBin
	if xCache != nil {
		h["X-Cache"] = xCache
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// EncodeBinaryRequest transcodes a JSON request body for one work
// endpoint ("check", "route", "simulate", "batch" or "jobs") into the
// binary wire codec, for clients and load generators whose request
// mixes are authored in JSON. Batch sub-requests are transcoded
// recursively and flagged binary in the envelope.
func EncodeBinaryRequest(endpoint string, jsonBody []byte) ([]byte, error) {
	switch endpoint {
	case "check":
		var v checkRequest
		if err := decodeBytes(jsonBody, &v); err != nil {
			return nil, err
		}
		return codec.Encode(&v)
	case "route":
		var v routeRequest
		if err := decodeBytes(jsonBody, &v); err != nil {
			return nil, err
		}
		return codec.Encode(&v)
	case "simulate":
		var v simulateRequest
		if err := decodeBytes(jsonBody, &v); err != nil {
			return nil, err
		}
		return codec.Encode(&v)
	case "batch":
		var v batchRequest
		if err := decodeBytes(jsonBody, &v); err != nil {
			return nil, err
		}
		for i := range v.Requests {
			item := &v.Requests[i]
			sub, err := EncodeBinaryRequest(item.Op, item.Request)
			if err != nil {
				return nil, err
			}
			item.Request = sub
			item.Bin = true
		}
		return codec.Encode(&v)
	case "jobs":
		var v jobs.Spec
		if err := decodeBytes(jsonBody, &v); err != nil {
			return nil, err
		}
		return codec.Encode(&v)
	default:
		return nil, badRequest("unknown endpoint %q", endpoint)
	}
}
