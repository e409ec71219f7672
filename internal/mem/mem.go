// Package mem implements the simulated data memory with bounds protection.
// Word granularity matches the ISA: addresses index 32-bit words. Loads or
// stores outside the mapped region raise a protection fault, playing the
// role of the hardware memory-protection mechanisms the paper relies on to
// catch wild accesses.
//
// The memory additionally carries a dirty-page delta layer for the
// checkpoint engine: words are grouped into pages of PageWords, each page
// carries the generation tag of its last write, and CaptureDirty hands out
// exactly the pages written since the previous capture. Recording a
// checkpoint therefore copies only the delta, not the whole image.
//
// The same tags drive the restore path: Rollback copies back from a
// reference image only the pages written since the previous rollback, so a
// machine reused across fault-injection samples pays for the pages its
// last sample touched, not for the whole image.
package mem

import "fmt"

// PageShift and PageWords define the dirty-tracking granularity: 64 words
// (256 bytes) per page, small enough that loop-local working sets produce
// compact checkpoint deltas, large enough that the per-store tag write
// stays off the critical cache lines.
const (
	PageShift = 6
	PageWords = 1 << PageShift
)

// ProtectionFault describes an out-of-bounds access.
type ProtectionFault struct {
	Addr  uint32
	Write bool
	Size  uint32
}

func (f *ProtectionFault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("memory protection fault: %s at 0x%x (mapped: %d words)", kind, f.Addr, f.Size)
}

// Memory is a flat word-addressed data memory with per-page write
// generations.
type Memory struct {
	words   []int32
	pageGen []uint64 // last-write generation per page
	gen     uint64   // current write generation
	// mark is the generation the last Rollback started: pages tagged at or
	// after it were written since, and differ from the rollback image.
	mark uint64
}

// pageCount returns the number of tracking pages covering n words.
func pageCount(n int) int { return (n + PageWords - 1) >> PageShift }

// New returns a memory of n words, zero initialized.
func New(n uint32) *Memory {
	return &Memory{
		words:   make([]int32, n),
		pageGen: make([]uint64, pageCount(int(n))),
		gen:     1,
		mark:    1,
	}
}

// NewFrom returns a memory initialized with a copy of words (the restore
// path of the checkpoint engine). No page starts dirty.
func NewFrom(words []int32) *Memory {
	m := New(uint32(len(words)))
	copy(m.words, words)
	return m
}

// Size returns the number of mapped words.
func (m *Memory) Size() uint32 { return uint32(len(m.words)) }

// Load reads the word at addr.
func (m *Memory) Load(addr uint32) (int32, error) {
	if addr >= uint32(len(m.words)) {
		return 0, &ProtectionFault{Addr: addr, Size: m.Size()}
	}
	return m.words[addr], nil
}

// Store writes the word at addr.
func (m *Memory) Store(addr uint32, v int32) error {
	if addr >= uint32(len(m.words)) {
		return &ProtectionFault{Addr: addr, Write: true, Size: m.Size()}
	}
	m.words[addr] = v
	m.pageGen[addr>>PageShift] = m.gen
	return nil
}

// Reset zeroes all words, keeping the size. Every page is marked dirty so
// a pending CaptureDirty still sees the zeroing.
func (m *Memory) Reset() {
	clear(m.words)
	for i := range m.pageGen {
		m.pageGen[i] = m.gen
	}
}

// CaptureDirty invokes fn for every page written since the previous
// CaptureDirty (or since creation), in ascending page order, then advances
// the generation so the next capture sees only newer writes. The words
// slice aliases the live memory and is valid only during the call; the
// final page may be shorter than PageWords.
func (m *Memory) CaptureDirty(fn func(page uint32, words []int32)) {
	for p, g := range m.pageGen {
		if g != m.gen {
			continue
		}
		fn(uint32(p), m.pageWords(p))
	}
	m.gen++
}

// pageWords returns the words of page p (the final page may be short).
func (m *Memory) pageWords(p int) []int32 {
	lo := p << PageShift
	return m.words[lo:min(lo+PageWords, len(m.words))]
}

// Rollback copies back from img every page written since the previous
// Rollback (or since creation, CopyFrom or NewFrom), so that a memory which
// equalled img at that point equals it again; img must have the memory's
// size. It then starts a new generation: the restored pages count as
// clean, and a following CaptureDirty sees only writes made after the
// rollback — pending dirty pages are discarded along with their contents.
func (m *Memory) Rollback(img []int32) {
	for p, g := range m.pageGen {
		if g >= m.mark {
			copy(m.pageWords(p), img[p<<PageShift:])
		}
	}
	m.gen++
	m.mark = m.gen
}

// CopyFrom overwrites the whole memory with img (which must have the
// memory's size) and, like Rollback, starts a new generation in which no
// page is dirty.
func (m *Memory) CopyFrom(img []int32) {
	copy(m.words, img)
	m.gen++
	m.mark = m.gen
}

// SetPage overwrites the leading words of page p without marking the page
// dirty: the caller applies the same words to its rollback image, so the
// memory and the image stay equal on that page. Words past the memory's
// end are a caller bug and panic.
func (m *Memory) SetPage(p uint32, words []int32) {
	copy(m.words[int(p)<<PageShift:][:len(words)], words)
}

// Snapshot returns a copy of the memory contents (for tests and debugging).
func (m *Memory) Snapshot() []int32 {
	out := make([]int32, len(m.words))
	copy(out, m.words)
	return out
}
