package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler tracks the peak live heap (the heap retained as of each
// garbage collection) while a workload runs.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64 // the sampler's result, sent once when it stops
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var peak uint64
		defer func() { h.peak <- peak }()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v := liveHeap(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopMB ends sampling and returns the peak live heap in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	peak := <-h.peak
	if v := liveHeap(); v > peak {
		peak = v
	}
	return float64(peak) / (1 << 20)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
