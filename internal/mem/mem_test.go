package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLoadStore(t *testing.T) {
	m := New(16)
	if m.Size() != 16 {
		t.Fatalf("size = %d", m.Size())
	}
	if err := m.Store(3, -42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != -42 {
		t.Errorf("load = %d", v)
	}
}

func TestProtection(t *testing.T) {
	m := New(8)
	if _, err := m.Load(8); err == nil {
		t.Error("load at size should fault")
	}
	if err := m.Store(1<<30, 1); err == nil {
		t.Error("wild store should fault")
	}
	err := m.Store(100, 0)
	var pf *ProtectionFault
	if !asProtectionFault(err, &pf) {
		t.Fatalf("error type = %T", err)
	}
	if !pf.Write || pf.Addr != 100 {
		t.Errorf("fault = %+v", pf)
	}
	if !strings.Contains(pf.Error(), "store") {
		t.Errorf("fault message = %q", pf.Error())
	}
}

func asProtectionFault(err error, out **ProtectionFault) bool {
	pf, ok := err.(*ProtectionFault)
	if ok {
		*out = pf
	}
	return ok
}

func TestResetAndSnapshot(t *testing.T) {
	m := New(4)
	for i := uint32(0); i < 4; i++ {
		if err := m.Store(i, int32(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap[2] != 3 {
		t.Errorf("snapshot[2] = %d", snap[2])
	}
	snap[2] = 99 // snapshot must be a copy
	if v, _ := m.Load(2); v != 3 {
		t.Error("snapshot aliases memory")
	}
	m.Reset()
	for i := uint32(0); i < 4; i++ {
		if v, _ := m.Load(i); v != 0 {
			t.Errorf("after reset word %d = %d", i, v)
		}
	}
}

func capturePages(m *Memory) map[uint32][]int32 {
	got := map[uint32][]int32{}
	m.CaptureDirty(func(page uint32, words []int32) {
		got[page] = append([]int32(nil), words...)
	})
	return got
}

func TestCaptureDirtyDeltas(t *testing.T) {
	m := New(PageWords*2 + 3) // final page is short
	if got := capturePages(m); len(got) != 0 {
		t.Fatalf("fresh memory has dirty pages: %v", got)
	}
	if err := m.Store(1, 11); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(PageWords*2+2, 22); err != nil {
		t.Fatal(err)
	}
	got := capturePages(m)
	if len(got) != 2 {
		t.Fatalf("dirty pages = %v, want pages 0 and 2", got)
	}
	if got[0][1] != 11 {
		t.Errorf("page 0 word 1 = %d", got[0][1])
	}
	if len(got[2]) != 3 || got[2][2] != 22 {
		t.Errorf("short final page = %v", got[2])
	}
	// The capture advanced the generation: only newer writes show up next.
	if err := m.Store(PageWords, 33); err != nil {
		t.Fatal(err)
	}
	got = capturePages(m)
	if len(got) != 1 || got[1][0] != 33 {
		t.Errorf("second capture = %v, want only page 1", got)
	}
	if got = capturePages(m); len(got) != 0 {
		t.Errorf("idle capture = %v, want none", got)
	}
}

func TestResetMarksAllDirty(t *testing.T) {
	m := New(PageWords * 3)
	capturePages(m) // advance the generation past creation
	m.Reset()
	if got := capturePages(m); len(got) != 3 {
		t.Errorf("after Reset %d pages dirty, want all 3", len(got))
	}
}

func TestNewFrom(t *testing.T) {
	src := []int32{5, 6, 7}
	m := NewFrom(src)
	src[0] = 99 // NewFrom must copy
	if v, _ := m.Load(0); v != 5 {
		t.Errorf("word 0 = %d, want 5", v)
	}
	if m.Size() != 3 {
		t.Errorf("size = %d", m.Size())
	}
}

// Property: replaying captured dirty pages onto a shadow image keeps it
// equal to the live memory — the invariant the checkpoint replayer needs.
func TestCaptureDirtyRebuildsImage(t *testing.T) {
	const size = PageWords*4 + 7
	m := New(size)
	img := make([]int32, size)
	rng := uint32(1)
	for round := 0; round < 10; round++ {
		for i := 0; i < 50; i++ {
			rng = rng*1664525 + 1013904223
			addr := rng % size
			if err := m.Store(addr, int32(rng)); err != nil {
				t.Fatal(err)
			}
		}
		m.CaptureDirty(func(page uint32, words []int32) {
			copy(img[int(page)<<PageShift:], words)
		})
		live := m.Snapshot()
		for i := range img {
			if img[i] != live[i] {
				t.Fatalf("round %d: image diverges at word %d: %d != %d", round, i, img[i], live[i])
			}
		}
	}
}

// Property: a store followed by a load at any in-range address returns the
// stored value, and out-of-range accesses always fault.
func TestLoadStoreProperty(t *testing.T) {
	m := New(1024)
	f := func(addr uint32, v int32) bool {
		errS := m.Store(addr, v)
		got, errL := m.Load(addr)
		if addr < 1024 {
			return errS == nil && errL == nil && got == v
		}
		return errS != nil && errL != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Rollback restores exactly the pages written since the previous rollback
// — including pages a CaptureDirty in between already handed out — and
// leaves no page dirty for the next capture. SetPage and CopyFrom write
// without dirtying.
func TestRollback(t *testing.T) {
	const size = PageWords*3 + 5 // final page is short
	img := make([]int32, size)
	for i := range img {
		img[i] = int32(i) * 7
	}
	m := NewFrom(img)
	mustStore := func(addr uint32, v int32) {
		t.Helper()
		if err := m.Store(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	equalsImg := func(what string) {
		t.Helper()
		for i, v := range m.Snapshot() {
			if v != img[i] {
				t.Fatalf("%s: word %d = %d, want %d", what, i, v, img[i])
			}
		}
	}

	mustStore(3, -1)
	if got := capturePages(m); len(got) != 1 {
		t.Fatalf("capture before rollback = %v, want page 0", got)
	}
	mustStore(PageWords*3+4, -2) // short final page, after the capture
	m.Rollback(img)
	equalsImg("rollback across a capture")
	if got := capturePages(m); len(got) != 0 {
		t.Errorf("capture after rollback = %v, want none", got)
	}

	// The next rollback sees only writes since the previous one: words
	// changed behind its back stay changed, on a never-written page and on
	// a page written only before the previous rollback.
	m.words[PageWords] = 99
	m.words[3] = 77
	mustStore(2*PageWords, -3)
	m.Rollback(img)
	if v, _ := m.Load(PageWords); v != 99 {
		t.Errorf("untouched page was rolled back: word = %d", v)
	}
	if v, _ := m.Load(3); v != 77 {
		t.Errorf("page written before the previous rollback was rolled back again: word = %d", v)
	}
	if v, _ := m.Load(2 * PageWords); v != img[2*PageWords] {
		t.Errorf("written page not rolled back: word = %d", v)
	}
	m.words[PageWords], m.words[3] = img[PageWords], img[3]

	// SetPage keeps the page clean; the caller mirrors it into the image.
	delta := []int32{41, 42}
	m.SetPage(1, delta)
	copy(img[PageWords:], delta)
	if got := capturePages(m); len(got) != 0 {
		t.Errorf("SetPage dirtied %v", got)
	}
	mustStore(0, 5)
	m.Rollback(img)
	equalsImg("rollback after SetPage")

	// CopyFrom overwrites everything and clears pending dirt.
	mustStore(1, 6)
	for i := range img {
		img[i] = -int32(i)
	}
	m.CopyFrom(img)
	equalsImg("CopyFrom")
	m.Rollback(img)
	equalsImg("rollback after CopyFrom")
	if got := capturePages(m); len(got) != 0 {
		t.Errorf("capture after CopyFrom = %v, want none", got)
	}
	// Reset dirties every page, so a rollback restores all of them.
	m.Reset()
	m.Rollback(img)
	equalsImg("rollback after Reset")
}
