package minserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"minequiv/internal/codec"
)

// POST /v1/batch: up to Config.MaxBatch heterogeneous sub-requests in
// one body, answered positionally. One batch costs one HTTP round
// trip, one admission slot, one body read and one response write for N
// operations — and each sub-request runs through the same op table and
// response cache as its single-call twin (keyed by the sub-request's
// own bytes, so a batch item hits what the single endpoint warmed and
// vice versa), so warm check/route batches amortize to a map probe plus
// a memcpy per item.
//
// JSON wire format:
//
//	request:  {"requests":[{"op":"check","request":{...}}, ...]}
//	response: {"responses":[{"op":"check","status":200,"cache":"hit","body":{...}}, ...]}
//
// The envelope negotiates codecs like the single endpoints: a binary
// envelope (Content-Type: application/x-min-bin) carries a per-item
// binary flag so JSON and binary sub-request bodies can mix, while the
// JSON envelope carries JSON sub-requests only. The response codec
// follows Accept independently of the request's; inside a binary
// response envelope each 2xx sub-body is rendered in that codec and
// error sub-bodies stay JSON envelopes.
//
// Determinism contract: every sub-response body is byte-identical to
// the body the single endpoint returns for the same sub-request bytes
// under the same codecs, and the envelope itself is a pure function of
// (request, cache state) — the per-item cache attribution (check/route
// only) reports hit or miss exactly as the X-Cache header would have.
// Sub-request errors do not fail the batch; they surface positionally
// with their own status and structured error body. The batch response
// is never cached as a unit — its items already were.

// batchItem and batchRequest are the wire shapes, aliased from
// internal/codec (where both their JSON tags and binary layout live).
type (
	batchItem    = codec.BatchItem
	batchRequest = codec.BatchRequest
)

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	wi, err := s.negotiate(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	buf, err := s.readBody(w, r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	defer bodyPool.Put(buf)
	var req batchRequest
	if err := decodeRequest(wi, buf.Bytes(), &req); err != nil {
		writeErr(w, r, err)
		return
	}
	if len(req.Requests) == 0 {
		writeErr(w, r, badRequest("empty batch: requests must hold at least one item"))
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		writeErr(w, r, limitExceeded("batch too large: %d items > %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}
	if wi.respBin {
		s.writeBatchBinary(w, r, &req)
		return
	}

	// The JSON response is hand-assembled: sub-bodies are spliced in as
	// pre-rendered bytes (no re-encode, no re-ordering of their keys),
	// which is both the amortization and the byte-determinism argument.
	out := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(out)
	out.Reset()
	out.WriteString(`{"responses":[`)
	ctx := r.Context()
	for i, item := range req.Requests {
		// A dead client stops the batch between sub-requests; nothing
		// is written and instrument() records the 499. A server-side
		// deadline instead fails the remaining items individually below.
		if err := ctx.Err(); err == context.Canceled {
			return
		}
		if i > 0 {
			out.WriteByte(',')
		}
		s.execBatchItem(ctx, out, item)
	}
	out.WriteString("]}\n")
	writeJSONBytes(w, http.StatusOK, out.Bytes(), nil)
}

// writeBatchBinary answers a batch with a binary response envelope:
// positional BatchResults whose bodies are the single-endpoint
// responses rendered binary (errors stay JSON envelopes).
func (s *server) writeBatchBinary(w http.ResponseWriter, r *http.Request, req *batchRequest) {
	ctx := r.Context()
	resp := codec.BatchResponse{Responses: make([]codec.BatchResult, 0, len(req.Requests))}
	for _, item := range req.Requests {
		if err := ctx.Err(); err == context.Canceled {
			return
		}
		body, status, attr := s.runBatchItem(ctx, item, wire{reqBin: item.Bin, respBin: true})
		resp.Responses = append(resp.Responses, codec.BatchResult{
			Op: item.Op, Status: status, Cache: attr, Body: body,
		})
	}
	out, err := codec.Encode(&resp)
	if err != nil { // cannot happen: the envelope is plain data
		writeErr(w, r, err)
		return
	}
	writeWireBytes(w, http.StatusOK, out, nil, true)
}

// runBatchItem executes one sub-request under its codec pair and
// returns the rendered body, the status, and the cache attribution
// (codec.CacheNone for ops without one, and for errors).
func (s *server) runBatchItem(ctx context.Context, item batchItem, wi wire) ([]byte, int, uint8) {
	var (
		body []byte
		attr uint8
		err  error
	)
	if op := lookupOp(item.Op); op < 0 {
		err = badRequest("unknown op %q (check, route or simulate)", item.Op)
	} else {
		body, attr, err = s.runOp(ctx, op, wi, item.Request)
	}
	if err != nil {
		body, status := encodeErr(err)
		return body, status, codec.CacheNone
	}
	return body, http.StatusOK, attr
}

// execBatchItem renders one positional JSON sub-response into out.
func (s *server) execBatchItem(ctx context.Context, out *bytes.Buffer, item batchItem) {
	body, status, attr := s.runBatchItem(ctx, item, wire{reqBin: item.Bin})

	// {"op":<op>,"status":N[,"cache":"hit|miss"],"body":<bytes sans \n>}
	out.WriteString(`{"op":`)
	if lookupOp(item.Op) >= 0 {
		// Known ops need no JSON escaping; skip the marshal.
		out.WriteByte('"')
		out.WriteString(item.Op)
		out.WriteByte('"')
	} else {
		opJSON, mErr := json.Marshal(item.Op)
		if mErr != nil { // cannot happen for a decoded string
			opJSON = []byte(`""`)
		}
		out.Write(opJSON)
	}
	out.WriteString(`,"status":`)
	var statusBuf [3]byte
	out.Write(strconv.AppendInt(statusBuf[:0], int64(status), 10))
	switch attr {
	case codec.CacheHit:
		out.WriteString(`,"cache":"hit"`)
	case codec.CacheMiss:
		out.WriteString(`,"cache":"miss"`)
	}
	out.WriteString(`,"body":`)
	// Single-endpoint bodies end in the json.Encoder newline; splice
	// without it so the envelope stays one line.
	if n := len(body); n > 0 && body[n-1] == '\n' {
		body = body[:n-1]
	}
	out.Write(body)
	out.WriteByte('}')
}
