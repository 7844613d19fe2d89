package main

import (
	"container/heap"
	"slices"
	"sync"
	"time"
)

// The benchmark shares its host with other tenants, whose load changes the
// host's speed by tens of percent for minutes at a time; on the 2-vCPU host
// the bounds were set on, the run phase of one fixed simulation varied by
// 25% (range over median) between windows of a few seconds, while its ratio
// to the reference computation below, timed alternately with it, varied by
// 9%. So the benchmark times the reference between its measured intervals
// throughout the run, and scales each host-time sample it gates by
// refNominal over the reference time nearest to it (see measure). Raw
// times are printed beside the calibrated ones.
//
// The reference is event-queue work like the simulator's — heap churn,
// scattered table updates, a sort — written with the standard library
// only and allocation-free, so no change to the simulator or to the
// collector's tuning can speed it up or slow it down. Its working memory is
// allocated once, before any heap measurement, and live_heap_mb measures
// differences, so it does not count there.

// refNominal is the reference's time in seconds on an idle host of the
// kind the bounds were set on (Intel Xeon, 2 vCPUs, Go 1.24). It only sets
// the scale: calibrated times are comparable on one host, not across hosts.
const refNominal = 0.014

type refItem struct{ at, seq int64 }

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refState is the reference's working memory.
type refState struct {
	items [2048]refItem
	slots [2048]*refItem
	queue refHeap
	table [1 << 16]int64
}

// run performs the fixed reference computation.
func (s *refState) run() {
	s.queue = s.slots[:0]
	clear(s.table[:])
	x := uint64(88172645463325252) // xorshift64 state: a fixed sequence
	next := func(mask int64) int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x) & mask
	}
	var seq int64
	for i := range s.items {
		seq++
		s.items[i] = refItem{at: next(1<<20 - 1), seq: seq}
		heap.Push(&s.queue, &s.items[i])
	}
	for i := 0; i < 40000; i++ {
		it := heap.Pop(&s.queue).(*refItem)
		s.table[it.at&(1<<16-1)] += it.seq
		seq++
		it.at += next(1<<12 - 1)
		it.seq = seq
		heap.Push(&s.queue, it)
	}
	slices.Sort(s.table[:])
}

// reference times copies of the reference computation, one per core the
// workload keeps busy, all at once, so contention on any of those cores
// counts. A one-engine workload is calibrated against one copy: two copies
// also sampled the core its collector uses, and made the calibrated time
// of websearch_dcp swing by 28% between two consecutive runs.
type reference struct{ copies []refState }

func newReference(cores int) *reference {
	return &reference{copies: make([]refState, cores)}
}

// time runs every copy once, concurrently, and returns the duration in
// seconds.
func (r *reference) time() float64 {
	t := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(r.copies) - 1)
	for i := 1; i < len(r.copies); i++ {
		go func(s *refState) {
			defer wg.Done()
			s.run()
		}(&r.copies[i])
	}
	r.copies[0].run()
	wg.Wait()
	return time.Since(t).Seconds()
}
