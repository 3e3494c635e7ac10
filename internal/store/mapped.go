package store

import (
	"fmt"
	"os"

	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// mappedSeg is one segment file opened as a read-only memory mapping.
// Unlike the materializing path (readSegment), opening a mapped segment
// copies nothing and computes no checksum: the kernel pages bytes in as
// the edge views are traversed, and the open-time cost is the structural
// decode (header + section bounds — a few dozen bytes). The CRC trailer
// still exists and is validated lazily: callers that want the scrub run
// Store.VerifyMapped, which walks every mapping once (paging it in — the
// page-fault proxy metric counts these bytes) and caches the verdict.
//
// Lifetime: the edge views handed out by Base/Overlay/Snapshot alias the
// mapping directly, so they are valid only until Store.Close unmaps.
// Compaction may unlink a mapped file early; on unix the pages stay valid
// until munmap, so readers holding old views are safe.
type mappedSeg struct {
	name     string
	data     []byte
	vertices int
	sections []graph.EdgeList
	verified bool // CRC scrub passed (guarded by Store.mu)
}

// openSegmentMapped maps a segment file read-only and validates its
// structure (not its CRC). The file descriptor is closed before
// returning — the mapping keeps the pages alive.
func openSegmentMapped(dir, name string, wantKind uint32) (*mappedSeg, error) {
	if err := faults.Check(faults.StoreMapOpen); err != nil {
		return nil, fmt.Errorf("store: map segment %s: %w", name, err)
	}
	sp := obs.Env().StartSpan("store.segment_map", obs.String("segment", name))
	defer sp.End()
	f, err := os.Open(segPath(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if size < segHeaderLen+4 {
		return nil, fmt.Errorf("store: segment %s: %w: %d bytes", name, ErrCorrupt, size)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("store: map segment %s: %w", name, err)
	}
	vertices, sections, err := decodeSegmentStructure(data, wantKind)
	if err != nil {
		munmapFile(data) //nolint:errcheck // already failing; the decode error wins
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	obs.SegmentMaps().Inc()
	obs.SegmentMapBytes().Add(int64(size))
	sp.SetAttr(obs.Int("bytes", size))
	return &mappedSeg{name: name, data: data, vertices: vertices, sections: sections}, nil
}

// verify runs the deferred CRC scrub over the whole mapping (paging every
// byte in). Idempotent: a passed scrub is cached.
func (m *mappedSeg) verify() error {
	if m.verified {
		return nil
	}
	obs.SegmentMapScrubs().Inc()
	obs.SegmentMapScrubBytes().Add(int64(len(m.data)))
	if err := verifySegmentCRC(m.data); err != nil {
		return fmt.Errorf("store: segment %s: %w", m.name, err)
	}
	m.verified = true
	return nil
}

// close unmaps the segment. The StoreMapClose kill point models a failed
// munmap; the mapping is released regardless so an injected fault never
// leaks address space.
func (m *mappedSeg) close() error {
	ferr := faults.Check(faults.StoreMapClose)
	if m.data != nil {
		if err := munmapFile(m.data); err != nil && ferr == nil {
			ferr = err
		}
		m.data = nil
		m.sections = nil
	}
	if ferr != nil {
		return fmt.Errorf("store: unmap segment %s: %w", m.name, ferr)
	}
	return nil
}
