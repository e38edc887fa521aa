package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// heapSampler tracks the peak heap footprint (bytes in heap objects, live
// or not yet swept) by polling runtime/metrics, which unlike
// runtime.ReadMemStats does not stop the world.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	b := heapBytes()
	for {
		p := h.peak.Load()
		if b <= p || h.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// takePeakMB returns the peak since the previous call, in MiB, and starts
// a new window.
func (h *heapSampler) takePeakMB() float64 {
	h.observe()
	return float64(h.peak.Swap(heapBytes())) / (1 << 20)
}

// Stop ends sampling and waits for the sampler goroutine to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.done.Wait()
}
