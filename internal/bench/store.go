package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
	"commongraph/internal/kickstarter"
	"commongraph/internal/store"
)

// StorePersistence measures the durable store's costs against the paths
// they replace: a cold open (manifest read + lazy binary segment loads +
// first BFS) versus re-ingesting the same snapshot from a text edge list,
// a segment open that maps the binary segments (structural decode only,
// pages fault in on demand) versus one that materializes them (read + CRC
// + copy), and the per-window WAL fsync the ingest path now pays. The
// acceptance bar is the ROADMAP's restartable service: ColdOpen must beat
// TextIngest, and the mapped open the materializing one, on every
// stand-in.
func StorePersistence(p Params) (*Table, error) {
	t := &Table{
		ID:    "Persistence",
		Title: "cgstore cold open vs text re-ingest; mmap vs materializing segment open; WAL append cost",
		Header: []string{"Graph", "Edges", "TextIngest", "ColdOpen", "Open speedup",
			"SegOpen", "SegOpen mmap", "mmap speedup", "WAL/win", "WAL MB/s"},
	}
	// Window shape mirrors Table 4: a handful of transitions at the
	// paper's smallest batch size, scaled.
	const transitions = 4
	b := p.Batch(75_000)
	for _, name := range []string{"LJ-sim", "DL-sim"} {
		w, err := BuildWorkload(name, p, transitions, b, b/4)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "cgbench-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		last := w.Store.NumVersions() - 1
		final, err := w.Store.GetVersion(last)
		if err != nil {
			return nil, err
		}

		// Persist base + every transition, then measure reopening it.
		storeDir := filepath.Join(dir, "store")
		s, err := store.Create(storeDir, w.N, w.Base)
		if err != nil {
			return nil, err
		}
		for tr := 0; tr < transitions; tr++ {
			if err := s.AppendBatch(w.Store.Additions(tr).Edges(), w.Store.Deletions(tr).Edges(), 0); err != nil {
				return nil, err
			}
		}
		walPerWin, walMBs, err := measureWALAppend(s, w.N, b)
		if err != nil {
			return nil, err
		}
		if err := s.Close(); err != nil {
			return nil, err
		}

		// The text baseline re-ingests the final snapshot only — strictly
		// less work than the store, which recovers the whole window.
		textPath := filepath.Join(dir, "final.txt")
		tf, err := os.Create(textPath)
		if err != nil {
			return nil, err
		}
		if err := graph.WriteText(tf, w.N, final); err != nil {
			tf.Close()
			return nil, err
		}
		if err := tf.Close(); err != nil {
			return nil, err
		}

		var cold, text, mat, mapped time.Duration
		for r := 0; r < measureRepeats; r++ {
			runtime.GC()
			d, err := measureColdOpen(storeDir, last, p.src())
			if err != nil {
				return nil, err
			}
			if r == 0 || d < cold {
				cold = d
			}
			runtime.GC()
			d, err = measureTextIngest(textPath, p.src())
			if err != nil {
				return nil, err
			}
			if r == 0 || d < text {
				text = d
			}
			runtime.GC()
			d, err = measureSegmentOpen(storeDir, transitions, false)
			if err != nil {
				return nil, err
			}
			if r == 0 || d < mat {
				mat = d
			}
			runtime.GC()
			d, err = measureSegmentOpen(storeDir, transitions, true)
			if err != nil {
				return nil, err
			}
			if r == 0 || d < mapped {
				mapped = d
			}
		}
		t.AddRow(name, fmt.Sprintf("%d", len(final)),
			secs(text), secs(cold), speedup(text, cold),
			secs(mat), secs(mapped), speedup(mat, mapped),
			secs(walPerWin), fmt.Sprintf("%.1f", walMBs))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d transitions of +%d/-%d edges; ColdOpen = store.Open + Snapshot + first BFS; TextIngest = ReadText of the final snapshot + first BFS", transitions, b, b/4),
		fmt.Sprintf("SegOpen = store open + base and %d overlay segment loads to first edge views; mmap defers CRC to VerifyMapped and copies nothing", transitions),
		"WAL/win = fsynced Journal append of one window's raw updates; MB/s over the 28-byte record encoding")
	return t, nil
}

// measureColdOpen times store.Open + full materialization + a first BFS
// from src — everything a restarted cgquery pays before its first answer.
func measureColdOpen(dir string, version int, src graph.VertexID) (time.Duration, error) {
	start := time.Now()
	s, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	snap, err := s.Snapshot()
	if err != nil {
		return 0, err
	}
	edges, err := snap.GetVersion(version - s.Origin())
	if err != nil {
		return 0, err
	}
	kickstarter.New(s.NumVertices(), edges, algo.BFS{}, src, engine.Options{})
	return time.Since(start), nil
}

// measureSegmentOpen times store open through first edge views of every
// segment — the cost a restarted process pays before it can traverse.
func measureSegmentOpen(dir string, transitions int, mapped bool) (time.Duration, error) {
	start := time.Now()
	s, err := store.OpenWith(dir, store.Options{MapSegments: mapped})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if _, err := s.Base(); err != nil {
		return 0, err
	}
	for tr := 0; tr < transitions; tr++ {
		if _, _, err := s.Overlay(tr); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// measureTextIngest times the path cold starts used before the store:
// parse the text edge list and run the same first BFS.
func measureTextIngest(path string, src graph.VertexID) (time.Duration, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, edges, err := graph.ReadText(f)
	if err != nil {
		return 0, err
	}
	kickstarter.New(n, edges, algo.BFS{}, src, engine.Options{})
	return time.Since(start), nil
}

// measureWALAppend journals one window's worth of raw updates (fsync per
// Journal call, as the ingest path does per Push) and reports the
// per-window latency and encoded-byte throughput.
func measureWALAppend(s *store.Store, n, window int) (time.Duration, float64, error) {
	us := make([]store.RawUpdate, window)
	for i := range us {
		us[i] = store.RawUpdate{Op: store.RawAdd, Edge: graph.Edge{
			Src: graph.VertexID(i % n), Dst: graph.VertexID((i + 1) % n), W: 1}}
	}
	const rounds = 8
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if err := s.Journal(us); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	// Consume the journaled records so the cold-open measurement below
	// reopens a clean store rather than replaying benchmark traffic.
	if err := s.AppendBatch(nil, nil, us[len(us)-1].Seq); err != nil {
		return 0, 0, err
	}
	perWin := elapsed / rounds
	bytes := float64(rounds*window) * 28
	mbs := bytes / elapsed.Seconds() / (1 << 20)
	return perWin, mbs, nil
}
