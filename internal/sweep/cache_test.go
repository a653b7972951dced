package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

func cachePoint(i int) (string, Point, Result) {
	p := Point{
		Tau: 1, RhoPrime: 0.1 * float64(i+1), M: 25, KOverM: 2,
		Discipline: "controlled", Seed: uint64(i + 1),
		Messages: 1000, Replications: 1,
	}
	r := Result{AnalyticLoss: 0.25 * float64(i+1), AnalyticOK: true}
	return p.Key(), p, r
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40 // enough keys to touch many shards
	for i := 0; i < n; i++ {
		k, p, r := cachePoint(i)
		if err := c.Put(k, p, r); err != nil {
			t.Fatal(err)
		}
	}
	if c.Dirty() != n || len(c.results) != n {
		t.Fatalf("dirty %d len %d, want %d", c.Dirty(), len(c.results), n)
	}
	// Re-putting an existing key is a no-op: results are pure functions
	// of the key, the first one wins.
	k0, p0, _ := cachePoint(0)
	if err := c.Put(k0, p0, Result{AnalyticLoss: 99}); err != nil {
		t.Fatal(err)
	}
	if c.Dirty() != n {
		t.Fatalf("duplicate Put buffered a line: dirty %d", c.Dirty())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Dirty() != 0 {
		t.Fatalf("flush left %d dirty", c.Dirty())
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Loaded != n || st.Entries != n || st.Skipped != 0 {
		t.Fatalf("reloaded stats %+v, want %d clean entries", st, n)
	}
	for i := 0; i < n; i++ {
		k, _, want := cachePoint(i)
		got, ok := c2.Get(k)
		if !ok || got != want {
			t.Fatalf("key %d: got %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	if _, ok := c2.Get("not-a-key"); ok {
		t.Fatal("phantom hit")
	}
	st = c2.Stats()
	if st.Hits != int64(n) || st.Misses != 1 {
		t.Fatalf("traffic stats %+v", st)
	}
	if hr := st.HitRate(); hr <= 0.97 || hr >= 1 {
		t.Fatalf("hit rate %v", hr)
	}
}

// TestCacheToleratesCorruptLines pins the crash- and forward-
// compatibility contract: a torn final line (the one corruption an
// O_APPEND flush can produce), garbage, blank lines and foreign-schema
// entries are skipped and counted, never fatal, and never shadow good
// entries.
func TestCacheToleratesCorruptLines(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, p, r := cachePoint(0)
	if err := c.Put(k, p, r); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	shard := filepath.Join(dir, "shard-"+k[:1]+".jsonl")
	good, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	junk := []byte("\n{\"schema\":\"windowctl-sweep/999\",\"key\":\"zz\"}\nnot json at all\n")
	torn := good[:len(good)/2] // a flush cut off mid-line by a crash
	if err := os.WriteFile(shard, append(append(junk, good...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Loaded != 1 || st.Skipped != 3 {
		t.Fatalf("stats %+v, want 1 loaded and 3 skipped", st)
	}
	got, ok := c2.Get(k)
	if !ok || got != r {
		t.Fatalf("good entry lost among corruption: %+v ok=%v", got, ok)
	}
}

// TestNilCache pins that a nil *Cache is a valid always-miss cache, so
// the driver needs no branching on whether caching is enabled.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	k, p, r := cachePoint(0)
	if err := c.Put(k, p, r); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Dirty() != 0 {
		t.Fatal("nil cache holds state")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

func TestShardOfCoversHexAlphabet(t *testing.T) {
	seen := map[int]bool{}
	for _, ch := range "0123456789abcdef" {
		s := shardOf(string(ch) + "rest")
		if s < 0 || s >= shardCount {
			t.Fatalf("shard %d out of range for %q", s, ch)
		}
		if seen[s] {
			t.Fatalf("shard collision at %q", ch)
		}
		seen[s] = true
	}
	if shardOf("") != 0 {
		t.Fatal("empty key must map to shard 0")
	}
}
