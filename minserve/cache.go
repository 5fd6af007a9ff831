package minserve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"minequiv/internal/codec"
)

// CacheStats is the hit/miss accounting of the response cache, exposed
// in the GET /v1/healthz body.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// cacheSpace names the namespace of one op under one codec pair: the
// same bytes mean different things under different request codecs, and
// the cached rendering differs per response codec, so each (op, request
// codec, response codec) keeps its own index.
func cacheSpace(op int, wi wire) int {
	ns := op << 2
	if wi.reqBin {
		ns |= 2
	}
	if wi.respBin {
		ns |= 1
	}
	return ns
}

// responseCache is a bounded LRU over fully-rendered 200-response
// bodies, keyed by (op, codec pair, exact request bytes). A response is
// a pure function of that key, so a hit replays the exact bytes a cold
// run would have produced without decoding the request or building the
// network. Two spellings of one request (catalog name vs linkPerms,
// reordered JSON keys, JSON vs binary) are distinct keys and each gets
// its own entry.
//
// A hit is counted on each replay and a miss on each insert, so hits +
// misses is the number of successful cacheable requests, and misses -
// entries is the number of evictions (plus any racing duplicate
// inserts of one key).
type responseCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List                 // front = most recently used
	index    []map[string]*list.Element // by cacheSpace
	hits     uint64
	misses   uint64
}

type cacheEntry struct {
	ns   int
	key  string
	body []byte
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
		index:    make([]map[string]*list.Element, len(workOps)<<2),
	}
}

// lookup returns the cached body for key in namespace ns, counting a
// hit. The body-keyed map lookup compiles to a no-copy string
// conversion, so the probe does not allocate. The returned slice must
// not be mutated.
func (c *responseCache) lookup(ns int, key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[ns][string(key)]
	if !ok {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under a copy of key, counting a miss, and evicts from
// the least-recently-used end once the bound is reached.
func (c *responseCache) put(ns int, key, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	m := c.index[ns]
	if m == nil {
		m = make(map[string]*list.Element)
		c.index[ns] = m
	}
	if el, ok := m[string(key)]; ok { // a racing twin inserted it first
		c.ll.MoveToFront(el)
		return
	}
	e := &cacheEntry{ns: ns, key: string(key), body: body}
	m[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.index[oldest.ns], oldest.key)
	}
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

// xCacheHeader maps a cache attribution to its X-Cache header value
// (nil: no header, for ops served without the cache).
var xCacheHeader = [...][]string{codec.CacheNone: nil, codec.CacheMiss: headerMiss, codec.CacheHit: headerHit}

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

// runOp serves one work-op request body under its codec pair: probe
// the cache on the exact bytes, else exec, render under the response
// codec and insert. It returns the response bytes and the cache
// attribution (codec.CacheNone when the op is served without the
// cache); the single handlers and the batch endpoint both call it.
// Only successful responses are cached — errors stay uncached.
func (s *server) runOp(ctx context.Context, op int, wi wire, body []byte) ([]byte, uint8, error) {
	c, ns := s.cache, cacheSpace(op, wi)
	if !workOps[op].cacheable {
		c = nil
	}
	if c != nil {
		if out, ok := c.lookup(ns, body); ok {
			return out, codec.CacheHit, nil
		}
	}
	v, err := workOps[op].exec(s, ctx, wi, body)
	if err != nil {
		return nil, codec.CacheNone, err
	}
	out, err := renderFor(wi)(v)
	if err != nil || c == nil {
		return out, codec.CacheNone, err
	}
	c.put(ns, body, out)
	return out, codec.CacheMiss, nil
}
