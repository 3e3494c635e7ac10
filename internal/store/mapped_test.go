package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"commongraph/internal/faults"
)

// openMapped opens dir with the mmap path, skipping the test on
// platforms without mmap support (where the flag silently falls back).
func openMapped(t *testing.T, dir string) *Store {
	t.Helper()
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	s, err := OpenWith(dir, Options{MapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Mapped() {
		t.Fatal("MapSegments requested but store is not mapped")
	}
	return s
}

// TestMappedOpenEquivalence: the mmap open path serves bit-identical
// base, overlays, and materialized snapshots to the heap path, and the
// deferred CRC scrub passes on an intact store.
func TestMappedOpenEquivalence(t *testing.T) {
	dir, base, a0, d0, a1, d1 := newTestStore(t)
	m := openMapped(t, dir)
	defer m.Close()

	got, err := m.Base()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, base, "mapped base")
	ga0, gd0, err := m.Overlay(0)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, ga0, a0, "mapped overlay 0 adds")
	mustEqual(t, gd0, d0, "mapped overlay 0 dels")
	ga1, gd1, err := m.Overlay(1)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, ga1, a1, "mapped overlay 1 adds")
	mustEqual(t, gd1, d1, "mapped overlay 1 dels")

	// Scrub after the loads: three segments are mapped by now.
	if n, err := m.VerifyMapped(); err != nil || n != 3 {
		t.Fatalf("VerifyMapped = (%d, %v), want (3, nil)", n, err)
	}
	// Idempotent: a second scrub revisits nothing but still succeeds.
	if _, err := m.VerifyMapped(); err != nil {
		t.Fatalf("second scrub: %v", err)
	}

	// Materialized snapshots agree with the heap path's.
	ms, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	hs, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < hs.NumVersions(); v++ {
		want, err := hs.GetVersion(v)
		if err != nil {
			t.Fatal(err)
		}
		gotv, err := ms.GetVersion(v)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, gotv, want, "mapped snapshot")
	}
}

// TestMappedKillPointRecovery: the two mmap kill points. A failed map
// is a clean load failure (the store stays usable, a materializing
// handle is untouched, and the next attempt succeeds); a failed unmap
// surfaces from Close without leaking the mapping, and the directory
// reopens intact — the mapped path never writes, so there is no state
// to recover.
func TestMappedKillPointRecovery(t *testing.T) {
	dir, base, _, _, _, _ := newTestStore(t)
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}

	m := openMapped(t, dir)
	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.StoreMapOpen, Times: 1}}})
	_, err := m.Base()
	if !errors.Is(err, faults.ErrInjected) {
		disarm()
		t.Fatalf("killed map-open: err=%v, want injected", err)
	}
	// A materializing handle never crosses the map kill point.
	h, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Base(); err != nil {
		t.Fatalf("materializing load under armed map fault: %v", err)
	}
	h.Close()
	disarm()
	// The failed load cached nothing; the retry maps cleanly.
	got, err := m.Base()
	if err != nil {
		t.Fatalf("retry after disarm: %v", err)
	}
	mustEqual(t, got, base, "mapped base after retry")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill the unmap: Close must report it, release the mapping anyway,
	// and leave the directory reopenable.
	m = openMapped(t, dir)
	if _, err := m.Base(); err != nil {
		t.Fatal(err)
	}
	disarm = faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.StoreMapClose, Times: 1}}})
	err = m.Close()
	disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("killed unmap: Close err=%v, want injected", err)
	}
	r := openMapped(t, dir)
	defer r.Close()
	got, err = r.Base()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, base, "base after killed unmap")
}

// TestMappedCorruptPayloadCaughtByScrub: a payload bit-flip slips past
// the structural decode (by design — the cold open pages nothing in)
// and is caught by the deferred CRC scrub.
func TestMappedCorruptPayloadCaughtByScrub(t *testing.T) {
	dir, _, _, _, _, _ := newTestStore(t)
	path := filepath.Join(dir, baseName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Offset segHeaderLen+4+8 is edge 0's weight field: structure and
	// canonical order survive, only the CRC can tell.
	data[segHeaderLen+4+8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := openMapped(t, dir)
	defer m.Close()
	if _, err := m.Base(); err != nil {
		t.Fatalf("structural decode rejected a payload flip: %v", err)
	}
	if _, err := m.VerifyMapped(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub: err=%v, want ErrCorrupt", err)
	}

	// The materializing path catches the same flip eagerly.
	h, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Base(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("eager read: err=%v, want ErrCorrupt", err)
	}
}

// TestMappedCorruptStructureAtOpen: header and section-bound damage is
// rejected when the segment is mapped, before any view is handed out —
// a torn or hostile file cannot steer reads outside the mapping.
func TestMappedCorruptStructureAtOpen(t *testing.T) {
	for _, tc := range []struct {
		name string
		flip func(data []byte)
	}{
		{"magic", func(d []byte) { d[0] ^= 0xFF }},
		{"section-length", func(d []byte) { d[segHeaderLen] = 0xFF }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, _, _, _, _ := newTestStore(t)
			path := filepath.Join(dir, baseName(0))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.flip(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			m := openMapped(t, dir)
			defer m.Close()
			if _, err := m.Base(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mapped load of %s-corrupted segment: err=%v, want ErrCorrupt", tc.name, err)
			}
		})
	}
}
