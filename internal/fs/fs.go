// Package fs implements the disk-based file system the paper's core
// component provides, with the two read paths the web-server experiment
// (§5.4) contrasts: a caching path through an LRU buffer cache, and a
// non-caching path straight to the disk. On top it provides the SPIN web
// server's hybrid cache — LRU for small files, no-cache for large files —
// which a server on a conventional caching file system cannot express.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"spin/internal/sal"
	"spin/internal/sim"
)

// inode describes one file.
type inode struct {
	name   string
	size   int
	blocks []int64
}

// FileSystem is a simple extent-less file system over a simulated disk.
type FileSystem struct {
	mu    sync.Mutex
	disk  *sal.Disk
	clock *sim.Clock

	files     map[string]*inode
	nextBlock int64

	cache *BufferCache
}

// Errors.
var (
	ErrNotFound = errors.New("fs: file not found")
	ErrExists   = errors.New("fs: file exists")
)

// New formats a file system on disk with a cache of cacheBlocks blocks.
func New(disk *sal.Disk, clock *sim.Clock, cacheBlocks int) *FileSystem {
	return &FileSystem{
		disk:      disk,
		clock:     clock,
		files:     make(map[string]*inode),
		nextBlock: 1,
		cache:     NewBufferCache(cacheBlocks),
	}
}

// Create writes a new file with the given contents.
func (f *FileSystem) Create(name string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.files[name]; dup {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	ino := &inode{name: name, size: len(data)}
	for off := 0; off < len(data) || off == 0; off += sal.DiskBlockSize {
		b := f.nextBlock
		f.nextBlock++
		end := off + sal.DiskBlockSize
		if end > len(data) {
			end = len(data)
		}
		var chunk []byte
		if off <= len(data) {
			chunk = data[off:end]
		}
		f.disk.WriteBlock(b, chunk)
		ino.blocks = append(ino.blocks, b)
		if len(data) == 0 {
			break
		}
	}
	f.files[name] = ino
	return nil
}

// Remove deletes a file and drops its cached blocks.
func (f *FileSystem) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for _, b := range ino.blocks {
		f.cache.Invalidate(b)
	}
	delete(f.files, name)
	return nil
}

// Size returns a file's length.
func (f *FileSystem) Size(name string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return ino.size, nil
}

// List returns the file names, sorted.
func (f *FileSystem) List() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.files))
	for n := range f.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Read returns the file contents through the buffer cache (the caching
// path): cache hits cost a memory copy; misses go to the disk and populate
// the cache.
func (f *FileSystem) Read(name string) ([]byte, error) {
	return f.read(name, true)
}

// ReadUncached returns the file contents straight from the disk, bypassing
// and not populating the buffer cache (the non-caching path the SPIN web
// server uses for large files to avoid double buffering).
func (f *FileSystem) ReadUncached(name string) ([]byte, error) {
	return f.read(name, false)
}

func (f *FileSystem) read(name string, cached bool) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	out := make([]byte, 0, ino.size)
	remaining := ino.size
	for _, b := range ino.blocks {
		n := min(sal.DiskBlockSize, remaining)
		remaining -= n
		if !cached {
			// Straight from the disk into out: no block-sized copy.
			out = f.disk.AppendBlock(out, b, n)
			continue
		}
		blk, ok := f.cache.Get(b)
		if ok {
			// Memory-speed copy.
			f.clock.Advance(sim.Duration(len(blk)/8) * 16)
		} else {
			blk = f.disk.ReadBlock(b)
			f.cache.Put(b, blk)
		}
		out = append(out, blk[:n]...)
	}
	return out, nil
}

// CacheStats reports buffer cache hits and misses.
func (f *FileSystem) CacheStats() (hits, misses int64) { return f.cache.Stats() }

// BufferCache is an LRU block cache.
type BufferCache struct {
	mu       sync.Mutex
	capacity int
	blocks   map[int64][]byte
	order    []int64 // LRU order: front = oldest
	hits     int64
	misses   int64
}

// NewBufferCache returns a cache holding up to capacity blocks; capacity 0
// disables caching.
func NewBufferCache(capacity int) *BufferCache {
	return &BufferCache{capacity: capacity, blocks: make(map[int64][]byte)}
}

// Get returns the cached block, refreshing recency.
func (c *BufferCache) Get(b int64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.blocks[b]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touch(b)
	return data, true
}

// Put inserts a block, evicting the least recently used on overflow.
func (c *BufferCache) Put(b int64, data []byte) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.blocks[b]; exists {
		c.blocks[b] = data
		c.touch(b)
		return
	}
	for len(c.blocks) >= c.capacity {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.blocks, oldest)
	}
	c.blocks[b] = data
	c.order = append(c.order, b)
}

// Invalidate drops a block.
func (c *BufferCache) Invalidate(b int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.blocks[b]; !ok {
		return
	}
	delete(c.blocks, b)
	for i, x := range c.order {
		if x == b {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Len reports resident blocks.
func (c *BufferCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
}

// Stats reports hit/miss counts.
func (c *BufferCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *BufferCache) touch(b int64) {
	for i, x := range c.order {
		if x == b {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append(c.order, b)
			return
		}
	}
	c.order = append(c.order, b)
}
