package fs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"spin/internal/sal"
	"spin/internal/sim"
)

func newFS(t *testing.T, cacheBlocks int) (*FileSystem, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	disk := sal.NewDisk(eng.Clock)
	return New(disk, eng.Clock, cacheBlocks), eng
}

func TestCreateReadRoundTrip(t *testing.T) {
	f, _ := newFS(t, 16)
	data := bytes.Repeat([]byte("spin"), 5000) // 20000 bytes, 3 blocks
	if err := f.Create("/a", data); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read %d bytes, want %d; mismatch", len(got), len(data))
	}
}

func TestEmptyFile(t *testing.T) {
	f, _ := newFS(t, 4)
	if err := f.Create("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty file read %d bytes", len(got))
	}
}

func TestCreateDuplicate(t *testing.T) {
	f, _ := newFS(t, 4)
	_ = f.Create("/a", []byte("x"))
	if err := f.Create("/a", []byte("y")); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	f, _ := newFS(t, 4)
	if _, err := f.Read("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.Size("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	f, _ := newFS(t, 4)
	_ = f.Create("/a", []byte("x"))
	if err := f.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read("/a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read removed file: %v", err)
	}
	if err := f.Remove("/a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
}

func TestList(t *testing.T) {
	f, _ := newFS(t, 4)
	_ = f.Create("/b", nil)
	_ = f.Create("/a", nil)
	got := f.List()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Errorf("List = %v", got)
	}
}

func TestCacheHitIsFast(t *testing.T) {
	f, eng := newFS(t, 16)
	_ = f.Create("/a", make([]byte, sal.DiskBlockSize))
	start := eng.Clock.Now()
	_, _ = f.Read("/a") // miss: disk
	missTime := eng.Clock.Now().Sub(start)
	start = eng.Clock.Now()
	_, _ = f.Read("/a") // hit: memory
	hitTime := eng.Clock.Now().Sub(start)
	if hitTime*100 > missTime {
		t.Errorf("cache hit %v not ≪ miss %v", hitTime, missTime)
	}
	hits, misses := f.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d,%d", hits, misses)
	}
}

func TestUncachedPathBypassesCache(t *testing.T) {
	f, _ := newFS(t, 16)
	_ = f.Create("/big", make([]byte, 3*sal.DiskBlockSize))
	_, _ = f.ReadUncached("/big")
	_, _ = f.ReadUncached("/big")
	hits, _ := f.CacheStats()
	if hits != 0 {
		t.Errorf("uncached path produced %d cache hits", hits)
	}
	if f.cache.Len() != 0 {
		t.Errorf("uncached path populated cache: %d blocks", f.cache.Len())
	}
}

// TestUncachedReadCopiesOnce: the uncached path reads each block straight
// into the result, so a read allocates the result and nothing else.
func TestUncachedReadCopiesOnce(t *testing.T) {
	f, _ := newFS(t, 16)
	data := make([]byte, 2*sal.DiskBlockSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	_ = f.Create("/big", data)
	var got []byte
	allocs := testing.AllocsPerRun(10, func() { got, _ = f.ReadUncached("/big") })
	if !bytes.Equal(got, data) {
		t.Fatal("uncached read differs from the file")
	}
	if allocs != 1 {
		t.Errorf("uncached read made %v allocations, want 1", allocs)
	}
}

func TestBufferCacheLRU(t *testing.T) {
	c := NewBufferCache(2)
	c.Put(1, []byte("a"))
	c.Put(2, []byte("b"))
	c.Get(1)              // 1 now most recent
	c.Put(3, []byte("c")) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("LRU evicted wrong block")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("recently used block evicted")
	}
}

func TestBufferCacheZeroCapacity(t *testing.T) {
	c := NewBufferCache(0)
	c.Put(1, []byte("a"))
	if _, ok := c.Get(1); ok {
		t.Error("zero-capacity cache stored a block")
	}
}

func TestBufferCacheInvalidate(t *testing.T) {
	c := NewBufferCache(4)
	c.Put(1, []byte("a"))
	c.Invalidate(1)
	c.Invalidate(1) // idempotent
	if _, ok := c.Get(1); ok {
		t.Error("invalidated block survived")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestWebCacheHybridPolicy(t *testing.T) {
	f, _ := newFS(t, 64)
	small := bytes.Repeat([]byte("s"), 1000)
	large := bytes.Repeat([]byte("L"), 100_000)
	_ = f.Create("/small.html", small)
	_ = f.Create("/large.bin", large)
	w := NewWebCache(f, 1<<20, 64*1024)

	// Small file: cached after first access.
	body, ok := w.Get("/small.html")
	if !ok || !bytes.Equal(body, small) {
		t.Fatal("small read failed")
	}
	if !w.Cached("/small.html") {
		t.Error("small file not cached")
	}
	_, _ = w.Get("/small.html")
	if w.Hits != 1 || w.Misses != 1 {
		t.Errorf("hits=%d misses=%d", w.Hits, w.Misses)
	}

	// Large file: never cached, and it must not pollute the buffer cache
	// (no double buffering).
	body, ok = w.Get("/large.bin")
	if !ok || len(body) != len(large) {
		t.Fatal("large read failed")
	}
	if w.Cached("/large.bin") {
		t.Error("large file cached despite no-cache policy")
	}
	if w.LargeReads != 1 {
		t.Errorf("LargeReads = %d", w.LargeReads)
	}
	hits, _ := f.CacheStats()
	if hits != 0 {
		t.Errorf("large read went through buffer cache (hits=%d)", hits)
	}
}

func TestWebCacheEviction(t *testing.T) {
	f, _ := newFS(t, 64)
	for _, n := range []string{"/a", "/b", "/c"} {
		_ = f.Create(n, make([]byte, 1000))
	}
	w := NewWebCache(f, 2048, 64*1024) // room for two objects
	_, _ = w.Get("/a")
	_, _ = w.Get("/b")
	_, _ = w.Get("/c") // evicts /a
	if w.Cached("/a") {
		t.Error("LRU object not evicted")
	}
	if !w.Cached("/b") || !w.Cached("/c") {
		t.Error("recent objects evicted")
	}
	if w.UsedBytes() > 2048 {
		t.Errorf("used %d > capacity", w.UsedBytes())
	}
}

func TestWebCacheMissingFile(t *testing.T) {
	f, _ := newFS(t, 4)
	w := NewWebCache(f, 1024, 64)
	if _, ok := w.Get("/nope"); ok {
		t.Error("missing file found")
	}
}

// Property: any set of files round-trips byte-for-byte through create/read,
// cached or not.
func TestFSRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(contents [][]byte, uncached bool) bool {
		f, _ := newFS(t, 8)
		names := make([]string, len(contents))
		for i, data := range contents {
			names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			if err := f.Create(names[i], data); err != nil {
				return false
			}
		}
		for i, data := range contents {
			var got []byte
			var err error
			if uncached {
				got, err = f.ReadUncached(names[i])
			} else {
				got, err = f.Read(names[i])
			}
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
