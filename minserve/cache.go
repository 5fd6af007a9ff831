package minserve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"net/http"
	"sync"
)

// CacheStats is the hit/miss accounting of the response cache, exposed
// in the GET /v1/healthz body.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// responseCache is a bounded LRU over fully-rendered 200-response
// bodies. Keys are derived from the network's canonical arc hash
// (min.Network.Fingerprint) plus the request parameters that shape the
// body, so two requests that build the same wiring — by catalog name or
// by explicit permutations — share an entry, and a hit replays the
// exact bytes a cold run would have produced.
//
// Each entry additionally remembers the first raw request body that
// produced it, per endpoint, in a lookaside index: a repeat of the
// exact byte sequence replays the response without JSON decoding, key
// rendering, or even building the network. The index is bounded by the
// LRU itself (one raw body per entry, each capped by MaxBodyBytes) and
// is pruned on eviction.
type responseCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	raw      map[string]map[string]*list.Element // endpoint -> raw body -> entry
	hits     uint64
	misses   uint64
}

type cacheEntry struct {
	key      string
	body     []byte
	endpoint string // raw-lookaside index coordinates; "" when unindexed
	raw      string
}

// newResponseCache returns a cache bounded to capacity entries, or nil
// (caching disabled) when capacity < 1.
func newResponseCache(capacity int) *responseCache {
	if capacity < 1 {
		return nil
	}
	return &responseCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
		raw:      make(map[string]map[string]*list.Element),
	}
}

// get returns the cached body for key and records a hit or miss. The
// returned slice must not be mutated.
func (c *responseCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// getRaw answers from the raw-request lookaside. A miss here is not
// counted: the caller falls through to the canonical get, which does
// the accounting, so totals match the pre-lookaside behaviour. The
// body-keyed map lookup compiles to a no-copy string conversion.
func (c *responseCache) getRaw(endpoint string, body []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.raw[endpoint][string(body)]
	if !ok {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting from the least-recently-used end
// once the bound is reached. When rawBody is non-nil and the entry is
// not yet raw-indexed, the bytes are copied into the endpoint's
// lookaside so an identical future request can skip parsing entirely.
func (c *responseCache) put(key, endpoint string, rawBody, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.body = body
		c.ll.MoveToFront(el)
		c.indexRaw(el, endpoint, rawBody)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.items[key] = el
	c.indexRaw(el, endpoint, rawBody)
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		delete(c.items, e.key)
		if e.raw != "" {
			delete(c.raw[e.endpoint], e.raw)
		}
	}
}

// indexRaw records el under the endpoint's raw lookaside (first raw
// form wins; later spellings of the same request just miss the fast
// path). Callers hold c.mu.
func (c *responseCache) indexRaw(el *list.Element, endpoint string, rawBody []byte) {
	e := el.Value.(*cacheEntry)
	if rawBody == nil || e.raw != "" {
		return
	}
	m := c.raw[endpoint]
	if m == nil {
		m = make(map[string]*list.Element)
		c.raw[endpoint] = m
	}
	e.endpoint, e.raw = endpoint, string(rawBody)
	m[e.raw] = el
}

// stats snapshots the counters.
func (c *responseCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Capacity: c.capacity}
}

// encodeJSON renders v exactly as writeJSON does (json.Encoder with its
// trailing newline), so cached bytes are indistinguishable from a cold
// encode of the same value.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Shared header value slices, assigned into the header map directly:
// Header().Set allocates a fresh one-element slice per call, which is
// the only allocation a fully warm hit would otherwise make in the
// writer. The slices are never mutated. Keys are in canonical form.
var (
	headerJSON = []string{"application/json"}
	headerHit  = []string{"HIT"}
	headerMiss = []string{"MISS"}
)

// writeJSONBytes writes a pre-rendered JSON body. xCache stamps the
// X-Cache header (headerHit/headerMiss, nil to omit) on cacheable
// endpoints; headers do not participate in the byte-identity contract,
// only bodies do.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte, xCache []string) {
	h := w.Header()
	h["Content-Type"] = headerJSON
	if xCache != nil {
		h["X-Cache"] = xCache
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// computeCached answers from the cache when possible; otherwise it runs
// compute, renders it through render (the negotiated response codec),
// and caches the body (raw-indexing it under rawBody when non-nil). It
// returns the response bytes and whether the cache answered, so both
// the single handlers and the batch endpoint share one execution path.
// Only successful responses are cached — errors stay uncached. Callers
// fold the codec into key and endpoint, so a hit always replays bytes
// rendered the way this request asked for.
func (s *server) computeCached(key, endpoint string, rawBody []byte, render func(any) ([]byte, error), compute func() (any, error)) ([]byte, bool, error) {
	if s.cache != nil {
		if body, ok := s.cache.get(key); ok {
			return body, true, nil
		}
	}
	v, err := compute()
	if err != nil {
		return nil, false, err
	}
	body, err := render(v)
	if err != nil {
		return nil, false, err
	}
	if s.cache != nil {
		s.cache.put(key, endpoint, rawBody, body)
	}
	return body, false, nil
}
