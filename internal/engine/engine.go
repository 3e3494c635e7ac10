package engine

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// Mode selects the scheduler policy of §4.3: synchronous level-barriered
// iterations for large frontiers, or an asynchronous worklist where an
// update becomes visible within the current pass, which is faster for the
// small frontiers typical of incremental batches.
type Mode int

const (
	// Auto picks Async when the seed frontier is below AsyncThreshold,
	// Sync otherwise (the paper's scheduler policy).
	Auto Mode = iota
	// Sync runs barrier-separated parallel iterations.
	Sync
	// Async runs a worklist to fixpoint with immediate visibility.
	Async
)

// Options tunes an engine run.
type Options struct {
	// Workers is the parallel width for Sync iterations; 0 means
	// GOMAXPROCS.
	Workers int
	// Mode selects the scheduler (default Auto).
	Mode Mode
	// AsyncThreshold is the seed-frontier size below which Auto chooses
	// Async; 0 means DefaultAsyncThreshold.
	AsyncThreshold int
	// AsyncWorkers bounds the parallel width of the Async worklist; 0 or
	// 1 keeps the sequential FIFO drain (lowest overhead, deterministic
	// pop order). Larger values let Auto mode's small-frontier path use
	// cores too: workers share one bounded worklist and an improvement
	// becomes visible within the pass, as in the sequential drain.
	AsyncWorkers int
	// Span, when non-nil, is the caller's trace span: each Run /
	// IncrementalAddParts emits one child span carrying its Stats. Spans
	// are per engine pass, never per vertex — the hot loop stays
	// untouched, and a nil Span costs one pointer test per pass.
	Span *obs.Span
}

// WithSpan returns a copy of the options with the trace span replaced —
// the executors stamp their current schedule-edge span onto the engine
// pass they are about to run.
func (o Options) WithSpan(s *obs.Span) Options {
	o.Span = s
	return o
}

// DefaultAsyncThreshold is the Auto-mode cutover point.
const DefaultAsyncThreshold = 2048

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) threshold() int {
	if o.AsyncThreshold > 0 {
		return o.AsyncThreshold
	}
	return DefaultAsyncThreshold
}

func (o Options) asyncWorkers() int {
	if o.AsyncWorkers > 1 {
		return o.AsyncWorkers
	}
	return 1
}

// Stats reports the work an engine pass performed.
type Stats struct {
	Iterations  int   // sync iterations (0 for async runs)
	EdgesPushed int64 // out-edges examined from active vertices
	Improved    int64 // successful value improvements
	Trimmed     int64 // vertices invalidated by deletion trimming
}

// Add accumulates another pass's stats into s.
func (s *Stats) Add(o Stats) {
	s.Iterations += o.Iterations
	s.EdgesPushed += o.EdgesPushed
	s.Improved += o.Improved
	s.Trimmed += o.Trimmed
}

func (s *Stats) add(o Stats) { s.Add(o) }

// Run evaluates the query from scratch: it allocates fresh state with only
// the source set and propagates to fixpoint over g. A from-scratch solve
// touches the whole graph regardless of its one-vertex seed, so Auto mode
// resolves to Sync (level-synchronous parallel iterations) here; pass
// Async explicitly to force the worklist.
func Run(g delta.Graph, a algo.Algorithm, src graph.VertexID, opt Options) (*State, Stats) {
	sp := opt.Span.StartChild("engine.run", obs.String("algo", a.Name()))
	st := NewState(g.NumVertices(), a, src)
	seed := newFrontier(g.NumVertices())
	seed.setSeq(src)
	if opt.Mode == Auto {
		opt.Mode = Sync
	}
	stats := propagate(g, st, seed, opt)
	sp.SetAttr(statAttrs(stats)...)
	sp.End()
	return st, stats
}

// statAttrs renders a pass's Stats as span attributes.
func statAttrs(s Stats) []obs.Attr {
	return []obs.Attr{
		obs.Int("iterations", s.Iterations),
		obs.Int64("edges_pushed", s.EdgesPushed),
		obs.Int64("improved", s.Improved),
	}
}

// Propagate drives an already-seeded frontier to fixpoint over g,
// following the Options scheduler policy. Exposed for the incremental
// paths (addition seeding, trim re-propagation). Duplicate seeds are
// deduplicated; the frontier starts in its sparse representation, so a
// small seed set never pays a bitset-scan.
func Propagate(g delta.Graph, st *State, seeds []graph.VertexID, opt Options) Stats {
	f := newFrontier(g.NumVertices())
	for _, v := range seeds {
		f.setSeq(v)
	}
	return propagate(g, st, f, opt)
}

// flatLayer is one CSR layer's backing slices, captured once per pass so
// the inner loops index the arrays directly (no closure per edge).
type flatLayer struct {
	offs []int32
	tgts []graph.VertexID
	wts  []graph.Weight
}

// flatten probes g for the fused flat-traversal contract
// (delta.FlatSource). A nil return routes the pass through the callback
// Graph interface — the path the mutable KickStarter adjacency uses.
func flatten(g delta.Graph) []flatLayer {
	fs, ok := g.(delta.FlatSource)
	if !ok {
		return nil
	}
	csrs := fs.OutCSRs()
	layers := make([]flatLayer, len(csrs))
	for i, c := range csrs {
		layers[i] = flatLayer{offs: c.Offsets(), tgts: c.Targets(), wts: c.Weights()}
	}
	return layers
}

// degree sums u's row lengths across the layers.
func degree(layers []flatLayer, u graph.VertexID) int {
	d := 0
	for i := range layers {
		offs := layers[i].offs
		d += int(offs[u+1] - offs[u])
	}
	return d
}

func propagate(g delta.Graph, st *State, seed *frontier, opt Options) Stats {
	mode := opt.Mode
	if mode == Auto {
		if seed.count() <= opt.threshold() {
			mode = Async
		} else {
			mode = Sync
		}
	}
	layers := flatten(g)
	if mode == Async {
		if w := opt.asyncWorkers(); w > 1 {
			return runAsyncParallel(g, st, seed, layers, w)
		}
		return runAsync(g, st, seed, layers)
	}
	return runSync(g, st, seed, opt.workers(), layers)
}

// Scheduling constants of the sync hot path.
const (
	// seqEdgeCutoff: an iteration examining fewer edges than this runs on
	// the calling goroutine — spawning workers costs more than the work.
	seqEdgeCutoff = 4096
	// chunkTargetPerWorker: the stealing cursor hands out roughly this
	// many chunks per worker, so a slow chunk (a hub's row) delays one
	// chunk, not a worker's whole share.
	chunkTargetPerWorker = 8
	// minChunkEdges floors the degree-aware chunk size.
	minChunkEdges = 1024
	// denseWordChunk is the stealing granularity of dense word scans.
	denseWordChunk = 128
	// sparseVertexChunk is the stealing granularity of sparse scans when
	// no flat layers are available (no degree information).
	sparseVertexChunk = 256
)

// syncRunner holds one sync pass's reusable scratch: the next frontier,
// per-worker buffers, and the degree-prefix array of the sparse path.
// Everything is allocated once per pass and recycled across iterations.
type syncRunner struct {
	g       delta.Graph
	st      *State
	alg     algo.Algorithm
	id      algo.Value
	layers  []flatLayer
	workers int
	min     bool
	next    *frontier
	prefix  []int
	bufs    [][]graph.VertexID
}

// runSync runs level-synchronized iterations. Each iteration picks the
// frontier representation (sparse list vs dense bitset scan) and the
// execution shape (sequential below seqEdgeCutoff; otherwise degree-aware
// chunks handed to workers through an atomic work-stealing cursor).
func runSync(g delta.Graph, st *State, cur *frontier, workers int, layers []flatLayer) Stats {
	var stats Stats
	n := g.NumVertices()
	r := &syncRunner{
		g: g, st: st, alg: st.a, id: st.a.Identity(), min: st.minimize(),
		layers: layers, workers: workers, next: newFrontier(n),
	}
	for !cur.empty() {
		stats.Iterations++
		p, imp := r.iterate(cur)
		stats.EdgesPushed += p
		stats.Improved += imp
		cur, r.next = r.next, cur
		r.next.clear()
	}
	return stats
}

// iterate processes one frontier into r.next and returns (pushed,
// improved) counts.
func (r *syncRunner) iterate(cur *frontier) (int64, int64) {
	if cur.isSparse() && r.layers != nil {
		list := cur.list()
		// Degree prefix over the active list: prefix[i] is the number of
		// frontier edges before list[i]. It prices the iteration exactly
		// (sequential vs parallel) and lets chunks cut in edge space, so
		// a hub's row splits across chunks instead of serializing one.
		if cap(r.prefix) < len(list)+1 {
			r.prefix = make([]int, len(list)+1)
		}
		prefix := r.prefix[:len(list)+1]
		total := 0
		for i, u := range list {
			prefix[i] = total
			total += degree(r.layers, u)
		}
		prefix[len(list)] = total
		if r.workers == 1 || total <= seqEdgeCutoff {
			return r.sparseSeq(list)
		}
		return r.sparsePar(list, prefix, total)
	}
	if cur.isSparse() {
		// Sparse without flat layers (mutable baseline adjacency): no
		// degree information, so chunk by vertex count.
		list := cur.list()
		if r.workers == 1 || len(list) <= sparseVertexChunk {
			return r.callbackSeqList(list)
		}
		return r.callbackParList(list)
	}
	// Dense: ordered word scan.
	if r.workers == 1 || cur.words() <= 2*denseWordChunk {
		return r.denseSeq(cur)
	}
	return r.densePar(cur)
}

// sparseSeq drains a sparse flat frontier on the calling goroutine; the
// next frontier is maintained with non-atomic writes.
func (r *syncRunner) sparseSeq(list []graph.VertexID) (int64, int64) {
	var p, imp int64
	st, next, id, min := r.st, r.next, r.id, r.min
	for _, u := range list {
		uval := st.Value(u)
		if uval == id {
			continue
		}
		for li := range r.layers {
			L := &r.layers[li]
			lo, hi := L.offs[u], L.offs[u+1]
			ts := L.tgts[lo:hi]
			ws := L.wts[lo:hi]
			for i, v := range ts {
				cand := r.alg.Propagate(uval, ws[i])
				if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
					imp++
					next.setSeq(v)
				}
			}
			p += int64(len(ts))
		}
	}
	return p, imp
}

// denseSeq scans the bitset words in order on the calling goroutine.
func (r *syncRunner) denseSeq(cur *frontier) (int64, int64) {
	var p, imp int64
	st, next, id, min := r.st, r.next, r.id, r.min
	if r.layers == nil {
		cur.forEachInWordRange(0, cur.words(), func(u graph.VertexID) {
			uval := st.Value(u)
			if uval == id {
				return
			}
			r.g.OutEdges(u, func(v graph.VertexID, w graph.Weight) {
				p++
				cand := r.alg.Propagate(uval, w)
				if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
					imp++
					next.setSeq(v)
				}
			})
		})
		return p, imp
	}
	cur.forEachInWordRange(0, cur.words(), func(u graph.VertexID) {
		uval := st.Value(u)
		if uval == id {
			return
		}
		for li := range r.layers {
			L := &r.layers[li]
			lo, hi := L.offs[u], L.offs[u+1]
			ts := L.tgts[lo:hi]
			ws := L.wts[lo:hi]
			for i, v := range ts {
				cand := r.alg.Propagate(uval, ws[i])
				if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
					imp++
					next.setSeq(v)
				}
			}
			p += int64(len(ts))
		}
	})
	return p, imp
}

// buffers returns w cleared per-worker collection buffers.
func (r *syncRunner) buffers(w int) [][]graph.VertexID {
	for len(r.bufs) < w {
		r.bufs = append(r.bufs, nil)
	}
	for i := 0; i < w; i++ {
		r.bufs[i] = r.bufs[i][:0]
	}
	return r.bufs[:w]
}

// publish installs the workers' collected vertices as r.next's exact
// sparse list (or drops to dense past the size threshold).
func (r *syncRunner) publish(bufs [][]graph.VertexID) {
	collected := r.next.sparse[:0]
	for _, b := range bufs {
		collected = append(collected, b...)
	}
	r.next.adopt(collected)
}

// chunkEdges is the degree-aware chunk size for an edge-space scan:
// roughly chunkTargetPerWorker chunks per worker, floored so tiny
// frontiers do not shatter into cache-hostile slivers.
func chunkEdges(totalEdges, workers int) int {
	if workers < 1 {
		workers = 1
	}
	sz := totalEdges / (workers * chunkTargetPerWorker)
	if sz < minChunkEdges {
		sz = minChunkEdges
	}
	return sz
}

// sparsePar processes a sparse flat frontier with degree-aware chunks in
// edge space: chunk k owns frontier-edge positions [k*sz, (k+1)*sz), and
// an atomic cursor lets idle workers steal the next chunk. A hub vertex's
// row spans several chunks, so it parallelizes instead of pinning the
// worker that drew it.
func (r *syncRunner) sparsePar(list []graph.VertexID, prefix []int, total int) (int64, int64) {
	sz := chunkEdges(total, r.workers)
	chunks := (total + sz - 1) / sz
	workers := r.workers
	if workers > chunks {
		workers = chunks
	}
	bufs := r.buffers(workers)
	var cursor atomic.Int64
	var pushed, improved atomic.Int64
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer box.capture()
			var p, imp int64
			buf := bufs[w]
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					break
				}
				lo := c * sz
				hi := lo + sz
				if hi > total {
					hi = total
				}
				// First vertex whose edge range reaches past lo.
				i := sort.Search(len(list), func(i int) bool { return prefix[i+1] > lo })
				for ; i < len(list) && prefix[i] < hi; i++ {
					a, b := lo-prefix[i], hi-prefix[i]
					if a < 0 {
						a = 0
					}
					if d := prefix[i+1] - prefix[i]; b > d {
						b = d
					}
					p2, i2 := r.pushRange(list[i], a, b, &buf)
					p += p2
					imp += i2
				}
			}
			bufs[w] = buf //cgvet:ignore lockdiscipline -- index-disjoint, one w per goroutine
			pushed.Add(p)
			improved.Add(imp)
		}(w)
	}
	wg.Wait()
	box.rethrow()
	r.publish(bufs)
	return pushed.Load(), improved.Load()
}

// pushRange pushes u's frontier-edge positions [a, b) — a sub-range of
// its concatenated layer rows — collecting newly activated vertices.
func (r *syncRunner) pushRange(u graph.VertexID, a, b int, buf *[]graph.VertexID) (int64, int64) {
	uval := r.st.Value(u)
	if uval == r.id {
		return 0, 0
	}
	var p, imp int64
	st, next, min := r.st, r.next, r.min
	off := 0
	for li := range r.layers {
		L := &r.layers[li]
		lo, hi := L.offs[u], L.offs[u+1]
		d := int(hi - lo)
		if off+d <= a {
			off += d
			continue
		}
		if off >= b {
			break
		}
		s, e := 0, d
		if a > off {
			s = a - off
		}
		if b-off < d {
			e = b - off
		}
		ts := L.tgts[lo+int32(s) : lo+int32(e)]
		ws := L.wts[lo+int32(s) : lo+int32(e)]
		for i, v := range ts {
			cand := r.alg.Propagate(uval, ws[i])
			if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
				imp++
				if next.trySet(v) {
					*buf = append(*buf, v)
				}
			}
		}
		p += int64(len(ts))
		off += d
	}
	return p, imp
}

// pushFull pushes u's whole row (all layers), collecting newly activated
// vertices — the dense-scan worker body.
func (r *syncRunner) pushFull(u graph.VertexID, buf *[]graph.VertexID) (int64, int64) {
	uval := r.st.Value(u)
	if uval == r.id {
		return 0, 0
	}
	var p, imp int64
	st, next, min := r.st, r.next, r.min
	if r.layers == nil {
		r.g.OutEdges(u, func(v graph.VertexID, w graph.Weight) {
			p++
			cand := r.alg.Propagate(uval, w)
			if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
				imp++
				if next.trySet(v) {
					*buf = append(*buf, v)
				}
			}
		})
		return p, imp
	}
	for li := range r.layers {
		L := &r.layers[li]
		lo, hi := L.offs[u], L.offs[u+1]
		ts := L.tgts[lo:hi]
		ws := L.wts[lo:hi]
		for i, v := range ts {
			cand := r.alg.Propagate(uval, ws[i])
			if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
				imp++
				if next.trySet(v) {
					*buf = append(*buf, v)
				}
			}
		}
		p += int64(len(ts))
	}
	return p, imp
}

// densePar scans the bitset in word chunks behind a stealing cursor.
func (r *syncRunner) densePar(cur *frontier) (int64, int64) {
	words := cur.words()
	chunks := (words + denseWordChunk - 1) / denseWordChunk
	workers := r.workers
	if workers > chunks {
		workers = chunks
	}
	bufs := r.buffers(workers)
	var cursor atomic.Int64
	var pushed, improved atomic.Int64
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer box.capture()
			var p, imp int64
			buf := bufs[w]
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					break
				}
				lo := c * denseWordChunk
				hi := lo + denseWordChunk
				if hi > words {
					hi = words
				}
				cur.forEachInWordRange(lo, hi, func(u graph.VertexID) {
					p2, i2 := r.pushFull(u, &buf)
					p += p2
					imp += i2
				})
			}
			bufs[w] = buf //cgvet:ignore lockdiscipline -- index-disjoint, one w per goroutine
			pushed.Add(p)
			improved.Add(imp)
		}(w)
	}
	wg.Wait()
	box.rethrow()
	r.publish(bufs)
	return pushed.Load(), improved.Load()
}

// callbackSeqList drains a sparse frontier through the callback interface
// on the calling goroutine (no flat layers: the mutable baseline).
func (r *syncRunner) callbackSeqList(list []graph.VertexID) (int64, int64) {
	var p, imp int64
	st, next, id, min := r.st, r.next, r.id, r.min
	for _, u := range list {
		uval := st.Value(u)
		if uval == id {
			continue
		}
		r.g.OutEdges(u, func(v graph.VertexID, w graph.Weight) {
			p++
			cand := r.alg.Propagate(uval, w)
			if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
				imp++
				next.setSeq(v)
			}
		})
	}
	return p, imp
}

// callbackParList chunks a sparse frontier by vertex count (no degree
// information without layers) behind the stealing cursor.
func (r *syncRunner) callbackParList(list []graph.VertexID) (int64, int64) {
	chunks := (len(list) + sparseVertexChunk - 1) / sparseVertexChunk
	workers := r.workers
	if workers > chunks {
		workers = chunks
	}
	bufs := r.buffers(workers)
	var cursor atomic.Int64
	var pushed, improved atomic.Int64
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer box.capture()
			var p, imp int64
			buf := bufs[w]
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					break
				}
				lo := c * sparseVertexChunk
				hi := lo + sparseVertexChunk
				if hi > len(list) {
					hi = len(list)
				}
				for _, u := range list[lo:hi] {
					p2, i2 := r.pushFull(u, &buf)
					p += p2
					imp += i2
				}
			}
			bufs[w] = buf //cgvet:ignore lockdiscipline -- index-disjoint, one w per goroutine
			pushed.Add(p)
			improved.Add(imp)
		}(w)
	}
	wg.Wait()
	box.rethrow()
	r.publish(bufs)
	return pushed.Load(), improved.Load()
}
