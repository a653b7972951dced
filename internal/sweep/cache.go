package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// shardCount is the number of JSON-lines files a cache directory is
// split into, keyed by the first hex character of the content address.
// Sharding keeps individual files append-friendly and lets a future
// multi-process sweep partition the key space.
const shardCount = 16

// entry is one cache line.  The full Point rides along with the Result
// so shards are self-describing: a human (or a doctor tool) can recover
// what configuration produced any cached value without reversing the
// hash.
type entry struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	Point  Point  `json:"point"`
	Result Result `json:"result"`
}

// Stats summarizes a cache's state and the traffic it has seen.
type Stats struct {
	// Dir is the cache directory.
	Dir string
	// Entries is the number of distinct keys currently held (loaded
	// plus newly computed).
	Entries int
	// Loaded is the number of entries read from disk at Open.
	Loaded int
	// Skipped counts unreadable or foreign-schema lines ignored at
	// Open (torn tails from a crash, future schema versions).
	Skipped int
	// Hits and Misses count Get traffic.
	Hits, Misses int64
}

// HitRate returns the fraction of Gets answered from the cache (0 when
// no Gets happened).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a content-addressed result store backed by sharded
// JSON-lines files.  The full index lives in memory (an entry is a few
// hundred bytes — a million-point cache is a few hundred MB of JSONL);
// Put buffers new entries and Flush appends them shard by shard with a
// single O_APPEND write per shard, so concurrent readers of the files
// and a crash mid-flush can at worst observe one torn final line, which
// the loader detects and skips.  A nil *Cache is valid and behaves as
// an always-miss, never-store cache.
//
// Cache methods are safe for concurrent use.
type Cache struct {
	dir string

	mu      sync.Mutex
	results map[string]Result
	pending [shardCount][]byte
	dirty   int // pending entries not yet flushed

	loaded, skipped int
	hits, misses    int64
}

// Open creates (if necessary) and loads a cache directory.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	c := &Cache{dir: dir, results: make(map[string]Result)}
	for s := 0; s < shardCount; s++ {
		if err := c.loadShard(s); err != nil {
			return nil, err
		}
	}
	c.loaded = len(c.results)
	return c, nil
}

// shardPath returns the file backing one shard.
func (c *Cache) shardPath(s int) string {
	return filepath.Join(c.dir, fmt.Sprintf("shard-%x.jsonl", s))
}

// shardOf maps a key to its shard by first hex character.
func shardOf(key string) int {
	if len(key) == 0 {
		return 0
	}
	ch := key[0]
	switch {
	case ch >= '0' && ch <= '9':
		return int(ch - '0')
	case ch >= 'a' && ch <= 'f':
		return int(ch-'a') + 10
	default:
		return 0
	}
}

// loadShard reads one shard file, skipping lines that do not parse or
// carry a foreign schema.  Skipping rather than failing makes the cache
// robust to the one corruption appends can produce (a torn final line
// after a crash) and forward-compatible with newer schemas.
func (c *Cache) loadShard(s int) error {
	f, err := os.Open(c.shardPath(s))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("sweep: cache shard: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || e.Schema != SchemaVersion || e.Key == "" {
			c.skipped++
			continue
		}
		c.results[e.Key] = e.Result
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweep: cache shard %s: %w", c.shardPath(s), err)
	}
	return nil
}

// Get looks a key up, counting the hit or miss.
func (c *Cache) Get(key string) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.results[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

// Put stores a freshly computed result, buffering the on-disk append
// until the next Flush.  Re-putting an existing key is a no-op (the
// first result wins; results are pure functions of the key).
func (c *Cache) Put(key string, p Point, r Result) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.results[key]; dup {
		return nil
	}
	line, err := json.Marshal(entry{Schema: SchemaVersion, Key: key, Point: p, Result: r})
	if err != nil {
		return fmt.Errorf("sweep: cache encode: %w", err)
	}
	c.results[key] = r
	s := shardOf(key)
	c.pending[s] = append(c.pending[s], line...)
	c.pending[s] = append(c.pending[s], '\n')
	c.dirty++
	return nil
}

// Flush appends all buffered entries to their shard files, one
// O_APPEND write per shard.  Safe to call at any time; a no-op when
// nothing is buffered.
func (c *Cache) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Cache) flushLocked() error {
	for s := range c.pending {
		buf := c.pending[s]
		if len(buf) == 0 {
			continue
		}
		f, err := os.OpenFile(c.shardPath(s), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("sweep: cache flush: %w", err)
		}
		_, werr := f.Write(buf)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("sweep: cache flush: %w", werr)
		}
		if cerr != nil {
			return fmt.Errorf("sweep: cache flush: %w", cerr)
		}
		c.pending[s] = nil
	}
	c.dirty = 0
	return nil
}

// Dirty returns the number of buffered entries not yet flushed.
func (c *Cache) Dirty() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirty
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Dir: c.dir, Entries: len(c.results),
		Loaded: c.loaded, Skipped: c.skipped,
		Hits: c.hits, Misses: c.misses,
	}
}
