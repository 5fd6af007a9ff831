package minserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"strings"
	"time"

	"minequiv/internal/codec"
	"minequiv/internal/jobs"
)

// The job endpoints expose the internal/jobs plane. Submission goes
// through admission with the other POST work; every read — status,
// result, events — is registered directly on the mux so a client
// polling a long sweep is never shed while the synchronous plane is
// saturated.

// jobErr maps the job plane's sentinel errors onto wire codes. Spec
// validation failures (anything unrecognized) surface as plain 400s.
func jobErr(err error) error {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return &httpError{status: http.StatusNotFound, code: CodeJobNotFound, msg: err.Error()}
	case errors.Is(err, jobs.ErrNotReady):
		return &httpError{status: http.StatusConflict, code: CodeJobNotReady, msg: err.Error()}
	case errors.Is(err, jobs.ErrQuarantined):
		return &httpError{status: http.StatusInternalServerError, code: CodeJobQuarantined, msg: err.Error()}
	case errors.Is(err, jobs.ErrCorrupt):
		return &httpError{status: http.StatusInternalServerError, code: CodeCheckpointCorrupt, msg: err.Error()}
	case errors.Is(err, jobs.ErrTooManyJobs):
		return errOverloaded
	case errors.Is(err, jobs.ErrClosed):
		return &httpError{status: http.StatusServiceUnavailable, code: CodeOverloaded, msg: err.Error()}
	default:
		return &httpError{status: http.StatusBadRequest, code: CodeBadRequest, msg: err.Error()}
	}
}

// checkJobSpec applies the serving layer's resource policy before the
// spec reaches the scheduler: the job plane validates meaning, the
// server validates size.
func (s *server) checkJobSpec(spec jobs.Spec) error {
	if spec.Stages < 2 {
		return badRequest("stages must be in [2,%d], got %d", s.cfg.MaxStages, spec.Stages)
	}
	if spec.Stages > s.cfg.MaxStages {
		return limitExceeded("stages must be in [2,%d], got %d", s.cfg.MaxStages, spec.Stages)
	}
	if spec.TrialsPerCell > s.cfg.MaxTrials {
		return limitExceeded("trialsPerCell must be <= %d, got %d", s.cfg.MaxTrials, spec.TrialsPerCell)
	}
	// Count cells as normalization will (empty lists become singletons).
	nets := len(spec.Networks)
	loads := max(len(spec.Loads), 1)
	rates := max(len(spec.FaultRates), 1)
	if cells := nets * loads * rates; cells > s.cfg.MaxJobCells {
		return limitExceeded("sweep spans %d cells, limit %d", cells, s.cfg.MaxJobCells)
	}
	return nil
}

// handleJobSubmit is POST /v1/jobs (dispatched through handleWork, so
// submissions compete for admission slots with the synchronous work).
// The spec body negotiates its codec like the other work endpoints;
// the 202 status response stays JSON — submission is not a hot path,
// and the Location header is the part a client machine-reads.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
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
	var spec jobs.Spec
	if err := decodeRequest(wi, buf.Bytes(), &spec); err != nil {
		writeErr(w, r, err)
		return
	}
	if err := s.checkJobSpec(spec); err != nil {
		writeErr(w, r, err)
		return
	}
	id, err := s.jobs.Submit(spec)
	if err != nil {
		writeErr(w, r, jobErr(err))
		return
	}
	st, err := s.jobs.Get(id)
	if err != nil { // unreachable: a just-submitted job is resident
		writeErr(w, r, jobErr(err))
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, st)
}

// jobListResponse is the GET /v1/jobs body.
type jobListResponse struct {
	Jobs []jobs.Status `json:"jobs"`
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	if list == nil {
		list = []jobs.Status{}
	}
	writeJSON(w, http.StatusOK, jobListResponse{Jobs: list})
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, jobErr(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult serves the finalized result: by default the manifest
// bytes verbatim — identical across restarts and re-reads — or, when
// the client Accepts application/x-min-bin, the manifest transcoded to
// one binary JobResult frame (equally byte-stable: the frame is a pure
// function of the manifest). Either representation carries a strong
// ETag (CRC of the served bytes), and If-None-Match answers 304 so
// pollers of a large finished sweep stop re-downloading it.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	data, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, jobErr(err))
		return
	}
	bin := acceptsBinary(r)
	if bin {
		var res jobs.Result
		if err := json.Unmarshal(data, &res); err != nil {
			writeErr(w, r, &httpError{status: http.StatusInternalServerError, code: CodeInternal,
				msg: fmt.Sprintf("result manifest unreadable: %v", err)})
			return
		}
		if data, err = codec.Encode(&res); err != nil {
			writeErr(w, r, &httpError{status: http.StatusInternalServerError, code: CodeInternal, msg: err.Error()})
			return
		}
	}
	etag := fmt.Sprintf("\"%08x\"", crc32.ChecksumIEEE(data))
	h := w.Header()
	h.Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if bin {
		h["Content-Type"] = headerBin
	} else {
		h.Set("Content-Type", "application/json")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// etagMatches implements If-None-Match: a comma-separated list of
// entity tags (weak validators compare by opaque tag), or "*".
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobs.Cancel(id); err != nil {
		writeErr(w, r, jobErr(err))
		return
	}
	st, err := s.jobs.Get(id)
	if err != nil {
		writeErr(w, r, jobErr(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// maxEventWait caps a long-poll's waitMs so a forgotten client cannot
// pin a handler goroutine for hours.
const maxEventWait = 60 * time.Second

// eventsResponse is the long-poll body: the buffered events after the
// cursor and the cursor to pass next time.
type eventsResponse struct {
	Events []jobs.Event `json:"events"`
	Next   int64        `json:"next"`
}

// handleJobEvents is GET /v1/jobs/{id}/events. Clients that Accept
// text/event-stream get SSE; everyone else gets one JSON page,
// optionally blocking up to waitMs for news past ?since=N. Both forms
// write nothing until there is something to say, so a client that
// disconnects while waiting is accounted as a 499, not a 200.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	since, err := eventCursor(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	if wantsSSE(r) {
		s.streamJobEvents(w, r, id, since)
		return
	}
	s.longPollJobEvents(w, r, id, since)
}

// eventCursor resolves the resume cursor: ?since=N, or the standard
// Last-Event-ID header an EventSource sends on reconnect.
func eventCursor(r *http.Request) (int64, error) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	if raw == "" {
		return 0, nil
	}
	since, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || since < 0 {
		return 0, badRequest("since must be a non-negative integer, got %q", raw)
	}
	return since, nil
}

// flusherFor finds the Flusher behind any chain of Unwrap-able
// response-writer wrappers (the instrument middleware's counting
// writer is one). Flushing the inner writer is safe: the frames
// themselves still pass through the wrappers.
func flusherFor(w http.ResponseWriter) http.Flusher {
	for {
		if f, ok := w.(http.Flusher); ok {
			return f
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil
		}
		w = u.Unwrap()
	}
}

// wantsSSE checks the Accept header for text/event-stream (media
// parameters like ;q= are ignored).
func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			media, _, _ := strings.Cut(part, ";")
			if strings.TrimSpace(media) == "text/event-stream" {
				return true
			}
		}
	}
	return false
}

func (s *server) longPollJobEvents(w http.ResponseWriter, r *http.Request, id string, since int64) {
	wait := time.Duration(0)
	if raw := r.URL.Query().Get("waitMs"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			writeErr(w, r, badRequest("waitMs must be a non-negative integer, got %q", raw))
			return
		}
		wait = min(time.Duration(ms)*time.Millisecond, maxEventWait)
	}
	evs, next, changed, jerr := s.jobs.Events(id, since)
	if jerr != nil {
		writeErr(w, r, jobErr(jerr))
		return
	}
	if len(evs) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-r.Context().Done():
			timer.Stop()
			return // nothing written: instrument records the 499
		case <-timer.C:
		case <-changed:
			timer.Stop()
		}
		evs, next, _, jerr = s.jobs.Events(id, since)
		if jerr != nil {
			writeErr(w, r, jobErr(jerr))
			return
		}
	}
	if evs == nil {
		evs = []jobs.Event{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{Events: evs, Next: next})
}

// streamJobEvents is the SSE path: each event is one `id:`/`data:`
// frame, flushed immediately. The stream ends when the job reaches a
// terminal state (after its final event is delivered) or the client
// goes away. Headers are deferred until the first frame so a client
// that disconnects having received nothing is a 499.
func (s *server) streamJobEvents(w http.ResponseWriter, r *http.Request, id string, since int64) {
	flusher := flusherFor(w)
	if flusher == nil {
		s.longPollJobEvents(w, r, id, since)
		return
	}
	doneCh, jerr := s.jobs.Done(id)
	if jerr != nil {
		writeErr(w, r, jobErr(jerr))
		return
	}
	wrote := false
	emit := func(evs []jobs.Event) error {
		for _, ev := range evs {
			if !wrote {
				h := w.Header()
				h.Set("Content-Type", "text/event-stream")
				h.Set("Cache-Control", "no-store")
				h.Set("X-Accel-Buffering", "no")
				wrote = true
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
				return err
			}
			flusher.Flush()
		}
		return nil
	}
	for {
		evs, next, changed, jerr := s.jobs.Events(id, since)
		if jerr != nil {
			if !wrote {
				writeErr(w, r, jobErr(jerr))
			}
			return
		}
		if emit(evs) != nil {
			return
		}
		since = next
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		case <-doneCh:
			// Terminal: drain whatever landed after the read above (the
			// final state event publishes before doneCh closes, so it is
			// either already emitted or in this last page) and finish.
			evs, _, _, jerr := s.jobs.Events(id, since)
			if jerr == nil {
				_ = emit(evs)
			}
			return
		}
	}
}
