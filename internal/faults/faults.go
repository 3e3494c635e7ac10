// Package faults is the repo's deterministic fault-injection registry —
// the testing backbone of the fault-tolerance layer. Production code
// declares *named injection points* at the places a long-running
// evolving-graph service can actually fail (store writes, overlay builds,
// engine runs, schedule-subtree walks, ingest window closes, window
// maintenance); tests arm a seeded Plan that makes chosen points return
// errors or panic on chosen hits. Disarmed — the default, and the only
// state production ever sees — a Check is a single atomic load and
// injects nothing.
//
// Determinism: firing decisions depend only on the Plan (its Seed, for
// probabilistic "chaos" specs, drives a splitmix64 stream) and on the
// per-point hit counters, never on wall time or the global rand source,
// so a failing chaos seed replays exactly.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"commongraph/internal/obs"
)

// Point names one injection site. The constants below are the registry's
// vocabulary; Check at an unlisted Point still works (points are just
// names), but the matrix tests enumerate Points().
type Point string

// Named injection points, one per failure-prone boundary of the stack.
const (
	// StoreNewVersion gates snapshot.Store.NewVersion — the store write
	// that creates a snapshot from an update batch.
	StoreNewVersion Point = "store.new-version"
	// CoreEngineRun gates the from-scratch engine solve on the common
	// graph, the entry of every evaluation strategy.
	CoreEngineRun Point = "core.engine-run"
	// CoreOverlayBuild gates overlay construction — once per Direct-Hop
	// and per degraded-fallback snapshot.
	CoreOverlayBuild Point = "core.overlay-build"
	// CoreSubtreeWalk gates every schedule-edge boundary of the
	// Work-Sharing DFS (sequential and parallel) — the cooperative
	// cancellation checkpoint.
	CoreSubtreeWalk Point = "core.subtree-walk"
	// CoreMaintainAppend and CoreMaintainAdvance gate the two maintained-
	// window updates (§4.1), for atomicity/rollback tests.
	CoreMaintainAppend  Point = "core.maintain-append"
	CoreMaintainAdvance Point = "core.maintain-advance"
	// IngestWindowClose gates Batcher's batch emission — the moment a raw
	// update window compacts and hands off to the sink.
	IngestWindowClose Point = "ingest.window-close"
	// The durable-store write boundaries (internal/store), in protocol
	// order: a raw-update journal append (before the write), the fsync of
	// that write (after bytes are in the file but before they are
	// acknowledged), an overlay/base segment write, the atomic manifest
	// swap, the post-commit WAL rotation, and the background compaction
	// fold. The crash-recovery matrix kills the store at each of these
	// and reopens.
	StoreWALAppend    Point = "store.wal-append"
	StoreWALSync      Point = "store.wal-sync"
	StoreSegmentWrite Point = "store.segment-write"
	StoreManifestSwap Point = "store.manifest-swap"
	StoreWALRotate    Point = "store.wal-rotate"
	StoreCompact      Point = "store.compact"
	// StoreMapOpen and StoreMapClose gate the mmap'd segment open path:
	// the mmap(2) of a CRC-trailed segment file (before the mapping is
	// handed to a reader) and the munmap on store Close. The crash matrix
	// kills the open at each and asserts a clean error, no leaked
	// mapping, and that a materializing reopen still serves the segment.
	StoreMapOpen  Point = "store.map-open"
	StoreMapClose Point = "store.map-close"
	// The replication boundaries (internal/repl), in wire order: a frame
	// write on the shipping side, a frame read on the receiving side, the
	// follower's replay of one committed batch into its own store
	// (between receipt and AppendBatch — the batch is on the wire but not
	// yet durable), and the promotion epoch bump (before the manifest
	// swap that makes the new epoch durable). The follower crash/failover
	// matrix kills a replica at each of these and reconnects.
	ReplShipFrame   Point = "repl.ship-frame"
	ReplRecvFrame   Point = "repl.recv-frame"
	ReplReplayBatch Point = "repl.replay-batch"
	ReplPromote     Point = "repl.promote"
	// ServeCacheInsert gates the query service's result-cache insert,
	// between the evaluation (keyed by the generation observed at lookup)
	// and the cache write. The invalidation race test parks a request
	// here, commits a window behind its back, and asserts the stale-keyed
	// insert can never be served.
	ServeCacheInsert Point = "serve.cache-insert"
)

// Points returns every named injection point, in declaration order — the
// domain of the fault-injection matrix tests.
func Points() []Point {
	return []Point{
		StoreNewVersion, CoreEngineRun, CoreOverlayBuild, CoreSubtreeWalk,
		CoreMaintainAppend, CoreMaintainAdvance, IngestWindowClose,
		StoreWALAppend, StoreWALSync, StoreSegmentWrite, StoreManifestSwap,
		StoreWALRotate, StoreCompact, StoreMapOpen, StoreMapClose,
		ReplShipFrame, ReplRecvFrame, ReplReplayBatch, ReplPromote,
		ServeCacheInsert,
	}
}

// ErrInjected is the sentinel every injected error wraps; tests assert
// errors.Is(err, faults.ErrInjected) to distinguish injected failures from
// genuine ones.
var ErrInjected = errors.New("injected fault")

// Fault is the error an armed Error-mode spec injects. It identifies its
// Point and hit number and unwraps to ErrInjected.
type Fault struct {
	Point     Point
	Hit       int
	transient bool
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected fault at %s (hit %d)", f.Point, f.Hit)
}

// Unwrap makes errors.Is(err, ErrInjected) hold for wrapped faults.
func (f *Fault) Unwrap() error { return ErrInjected }

// Transient reports whether the fault models a retryable condition.
func (f *Fault) Transient() bool { return f.transient }

// InjectedPanic is the value a Panic-mode spec panics with; panic
// containment layers surface it inside a recovered-panic error.
type InjectedPanic struct {
	Point Point
	Hit   int
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// IsTransient reports whether err is marked retryable — the classification
// the watcher's bounded-retry maintenance path keys on.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Mode selects what an armed spec does when it fires.
type Mode int

const (
	// Error makes Check return a *Fault.
	Error Mode = iota
	// Panic makes Check panic with an *InjectedPanic — exercising the
	// containment wrappers around spawned goroutines.
	Panic
)

// Spec arms one point. The zero value of everything but Point means
// "fire an error on every hit".
type Spec struct {
	Point Point
	Mode  Mode
	// After skips the first After hits of the point before the spec may
	// fire (deterministic mid-run failures).
	After int
	// Times caps how often the spec fires; 0 means every eligible hit.
	Times int
	// Prob, when positive, fires the spec with this probability per
	// eligible hit, drawn from the Plan's seeded stream — chaos mode.
	Prob float64
	// Transient marks injected errors retryable (IsTransient).
	Transient bool
}

// Plan is what a test arms: the specs plus the seed for probabilistic
// draws and an optional observer.
type Plan struct {
	Seed  uint64
	Specs []Spec
	// Observer, when set, sees every Check of every point while armed
	// (fired or not), with the point's 1-based hit number — tests use it
	// to cancel contexts or count schedule edges at exact moments. It is
	// called without the registry lock held.
	Observer func(p Point, hit int)
}

type registry struct {
	mu    sync.Mutex
	plan  *Plan
	hits  map[Point]int
	fired []int  // per-spec fire counts
	rng   uint64 // splitmix64 state, seeded by the plan
}

var (
	armed atomic.Bool
	reg   registry
)

// Arm installs a plan and returns its disarm function. Arming while armed
// panics: overlapping plans would make hit counts meaningless, so tests
// must disarm (usually via t.Cleanup or defer) before arming again.
func Arm(p *Plan) (disarm func()) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.plan != nil {
		panic("faults: Arm while already armed; disarm the previous plan first")
	}
	reg.plan = p
	reg.hits = make(map[Point]int)
	reg.fired = make([]int, len(p.Specs))
	reg.rng = p.Seed
	armed.Store(true)
	return func() {
		reg.mu.Lock()
		defer reg.mu.Unlock()
		armed.Store(false)
		reg.plan = nil
		reg.hits = nil
		reg.fired = nil
	}
}

// Enabled reports whether a plan is currently armed.
func Enabled() bool { return armed.Load() }

// Hits returns how many times the point has been checked under the
// current plan (0 when disarmed).
func Hits(p Point) int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.hits[p]
}

// Check records a hit at point p and consults the armed plan: it returns
// an injected *Fault, panics with an *InjectedPanic, or returns nil.
// Disarmed it returns nil after one atomic load — the production fast
// path.
func Check(p Point) error {
	if !armed.Load() {
		return nil
	}
	return reg.check(p)
}

func (r *registry) check(p Point) error {
	r.mu.Lock()
	plan := r.plan
	if plan == nil {
		// Disarmed between the atomic load and acquiring the lock.
		r.mu.Unlock()
		return nil
	}
	r.hits[p]++
	hit := r.hits[p]
	var firing *Spec
	for i := range plan.Specs {
		s := &plan.Specs[i]
		if s.Point != p || hit <= s.After {
			continue
		}
		if s.Times > 0 && r.fired[i] >= s.Times {
			continue
		}
		if s.Prob > 0 && r.next() >= s.Prob {
			continue
		}
		r.fired[i]++
		firing = s
		break
	}
	observer := plan.Observer
	r.mu.Unlock()
	if observer != nil {
		observer(p, hit)
	}
	if firing == nil {
		return nil
	}
	// Every firing is observable: the canonical counter makes chaos runs
	// scrapeable (commongraph_fault_injections_total{point=...}) and the
	// process tracer — COMMONGRAPH_TRACE=log under `make chaos` — emits
	// one inspectable event per injection.
	obs.FaultFirings(string(p)).Inc()
	mode := "error"
	if firing.Mode == Panic {
		mode = "panic"
	}
	obs.Env().Event("fault.injected",
		obs.String("point", string(p)), obs.Int("hit", hit),
		obs.String("mode", mode), obs.Bool("transient", firing.Transient))
	if firing.Mode == Panic {
		panic(&InjectedPanic{Point: p, Hit: hit})
	}
	return &Fault{Point: p, Hit: hit, transient: firing.Transient}
}

// next draws a deterministic float64 in [0, 1) from the plan's splitmix64
// stream (the same generator internal/gen seeds its RNG with).
func (r *registry) next() float64 {
	r.rng += 0x9E3779B97F4A7C15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
