package graph

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/inject"
	"repro/internal/obs"
)

// seededKeys returns n keys that differ only in a same-width seed, so
// their entries encode to the same size.
func seededKeys(t *testing.T, n int) []CellKey {
	t.Helper()
	base := testKey(t, testProgram(t))
	keys := make([]CellKey, n)
	for i := range keys {
		keys[i] = base
		keys[i].Seed = int64(100 + i)
	}
	return keys
}

// checkAccounting verifies the memory layer's byte count against the
// entries it actually holds, and the budget against both.
func checkAccounting(t *testing.T, c *Cache) {
	t.Helper()
	sum := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += len(el.Value.(*memEntry).raw)
	}
	if c.bytes != sum {
		t.Fatalf("memory layer counts %d bytes, holds %d", c.bytes, sum)
	}
	if c.bytes > c.budget {
		t.Fatalf("memory layer holds %d bytes over a %d-byte budget", c.bytes, c.budget)
	}
	if c.lru.Len() != len(c.mem) {
		t.Fatalf("LRU list holds %d entries, index %d", c.lru.Len(), len(c.mem))
	}
}

// Storing more cells than the budget holds evicts the least recently used
// ones, counts each eviction, keeps the byte count within the budget and
// spares the cell that keeps being looked up.
func TestMemLayerIsBoundedLRU(t *testing.T) {
	keys := seededKeys(t, 12)
	c := New("")
	reg := obs.NewRegistry()
	compute := func(*obs.Registry) (*inject.Report, error) { return fakeReport("RCF"), nil }
	run := func(k CellKey) {
		t.Helper()
		if _, _, err := c.Run(k, reg, compute); err != nil {
			t.Fatal(err)
		}
	}

	run(keys[0])
	one := c.bytes
	c.budget = 4*one + one/2 // room for four entries
	for _, k := range keys[1:] {
		run(k)
		if c.Lookup(keys[0], nil) == nil {
			t.Fatal("the most recently looked-up cell was evicted")
		}
		checkAccounting(t, c)
	}
	for i, k := range keys {
		_, resident := c.mem[k.fileName()]
		if want := i == 0 || i >= len(keys)-3; resident != want {
			t.Errorf("cell %d resident = %v, want %v", i, resident, want)
		}
	}
	if got, want := counter(reg, "graph_cache_mem_evictions_total"), uint64(len(keys)-4); got != want {
		t.Errorf("evictions = %d, want %d", got, want)
	}
	// An evicted cell in a memory-only cache is gone: the next Run computes.
	if _, cached, _ := c.Run(keys[1], reg, compute); cached {
		t.Error("evicted memory-only cell still answered")
	}
}

// Overwriting a key with an entry of a different size replaces its bytes
// exactly.
func TestMemLayerOverwriteAccounting(t *testing.T) {
	k := testKey(t, testProgram(t))
	small := fakeEntry("RCF")
	big := fakeEntry("RCF")
	big.Normalized += strings.Repeat("#", 4096)
	smallLen := len(encodeEntry(small, k.Fingerprint()))
	bigLen := len(encodeEntry(big, k.Fingerprint()))

	c := New("")
	for _, step := range []struct {
		e    *Entry
		want int
	}{{small, smallLen}, {big, bigLen}, {small, smallLen}} {
		c.Store(k, step.e)
		checkAccounting(t, c)
		if c.bytes != step.want || len(c.mem) != 1 {
			t.Fatalf("after overwrite: %d bytes in %d entries, want %d in 1", c.bytes, len(c.mem), step.want)
		}
	}
}

// With a directory configured, a cell evicted from memory is still
// answered — from disk, byte for byte.
func TestMemLayerEvictedCellReadFromDisk(t *testing.T) {
	keys := seededKeys(t, 2)
	c := New(t.TempDir())
	e := fakeEntry("RCF")
	c.budget = len(encodeEntry(e, keys[0].Fingerprint())) // one entry fits
	c.Store(keys[0], e)
	c.Store(keys[1], e)
	if _, resident := c.mem[keys[0].fileName()]; resident {
		t.Fatal("first cell was not evicted from memory")
	}
	got := c.Lookup(keys[0], nil)
	if got == nil {
		t.Fatal("evicted cell not found on disk")
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("disk entry differs:\n got %+v\nwant %+v", got, e)
	}
}

// Concurrent lookups reorder the LRU list and concurrent stores evict
// from it; under -race this checks both go through the cache's lock, and
// the byte count still matches what the layer holds.
func TestMemLayerConcurrentUse(t *testing.T) {
	keys := seededKeys(t, 8)
	c := New("")
	e := fakeEntry("RCF")
	c.budget = 3 * len(encodeEntry(e, keys[0].Fingerprint()))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(w+i)%len(keys)]
				c.Store(k, e)
				c.Lookup(keys[i%len(keys)], nil)
			}
		}(w)
	}
	wg.Wait()
	checkAccounting(t, c)
}
