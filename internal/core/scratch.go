package core

import (
	"bilsh/internal/hierarchy"
	"bilsh/internal/multiprobe"
	"bilsh/internal/topk"
)

// scratch is the per-query reusable state that makes the read path
// allocation-free in steady state (the Section V design goal: the short
// list should be gathered and ranked at memory bandwidth, not at the
// allocator's pace). One scratch serves one query at a time:
//
//   - Query draws one from the index's sync.Pool and returns it;
//   - QueryBatch gives each worker goroutine one for its whole share of
//     the batch (workers == 1 is serial: one scratch for every query).
//
// Candidate dedup uses an epoch-stamped visited array instead of a map:
// visited[id] == epoch means id was already collected this query, and
// bumping epoch invalidates all stamps at once, so there is nothing to
// clear between queries.
type scratch struct {
	proj    []float64 // projection buffer (len M)
	key     []byte    // bucket key byte buffer
	okey    []byte    // composed overlay key buffer (group+table prefix)
	cands   []int32   // deduplicated candidate ids, in collection order
	visited []uint32  // per-id stamp; visited[id] == epoch <=> collected
	epoch   uint32
	hierIDs []int32 // raw hierarchy group ids before dedup

	hier hierarchy.Scratch
	mp   multiprobe.Scratch

	heap  *topk.Heap
	items []topk.Item // reusable sorted-heap output
	dists []float64   // rank distance buffer

	// Hamming query state (see gatherHamming): the packed query sketch,
	// per-plane margins, the per-table key-bit flip order (sorted by
	// ascending |margin|) and the probe key currently being flipped.
	qbits    []uint64
	qmarg    []float64
	bitOrder []int
	flipKey  []byte

	// Quantized-scan re-rank state (see rankBaseQuantized): a second
	// bounded heap selects the top k×RerankFactor approximate candidates,
	// whose ids and exact distances reuse these buffers.
	rheap  *topk.Heap
	ritems []topk.Item
	rids   []int32
	rdists []float64
}

// getScratch draws a scratch from the pool (the pool's zero value works:
// a nil entry becomes a fresh zero scratch whose buffers grow on first
// use).
func (ix *Index) getScratch() *scratch {
	s, _ := ix.scratchPool.Get().(*scratch)
	if s == nil {
		s = &scratch{}
	}
	return s
}

func (ix *Index) putScratch(s *scratch) { ix.scratchPool.Put(s) }

// begin readies the scratch for one query against the snapshot sn: sizes
// the projection and visited buffers and opens a fresh dedup epoch. The
// visited array covers every id sn can ever surface — the active memtable
// counts at full capacity, so rows published after begin still stamp in
// bounds.
func (s *scratch) begin(sn *snapshot) {
	if m := sn.opts.Params.M; cap(s.proj) < m {
		s.proj = make([]float64, m)
	} else {
		s.proj = s.proj[:m]
	}
	if sn.sketcher != nil {
		if w := sn.sketcher.Words(); cap(s.qbits) < w {
			s.qbits = make([]uint64, w)
		} else {
			s.qbits = s.qbits[:w]
		}
		if b := sn.sketcher.Bits(); cap(s.qmarg) < b {
			s.qmarg = make([]float64, b)
		} else {
			s.qmarg = s.qmarg[:b]
		}
	}
	if total := sn.idCapacity(); len(s.visited) < total {
		s.visited = make([]uint32, total)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // stamp wraparound: all stamps stale, reset
		clear(s.visited)
		s.epoch = 1
	}
	s.cands = s.cands[:0]
}

// topK returns the reusable bounded heap, re-created only when k changes.
func (s *scratch) topK(k int) *topk.Heap {
	if s.heap == nil || s.heap.K() != k {
		s.heap = topk.New(k)
	} else {
		s.heap.Reset()
	}
	return s.heap
}

// rerankTopK returns the reusable re-rank shortlist heap, re-created only
// when the shortlist size changes.
func (s *scratch) rerankTopK(r int) *topk.Heap {
	if s.rheap == nil || s.rheap.K() != r {
		s.rheap = topk.New(r)
	} else {
		s.rheap.Reset()
	}
	return s.rheap
}

// addCandidates stamps and appends every live, not-yet-seen id, counting
// scanned (pre-dedup, post-tombstone) entries like the original map-based
// gather did. This is the single candidate-collection core shared by all
// probe modes and by the median rule's plain short-list sizing, so
// deleted-row filtering and overlay handling cannot diverge between them.
func (sn *snapshot) addCandidates(s *scratch, st *QueryStats, ids []int) {
	for _, id := range ids {
		if sn.isDeleted(id) {
			continue
		}
		st.Scanned++
		if s.visited[id] == s.epoch {
			continue
		}
		s.visited[id] = s.epoch
		s.cands = append(s.cands, int32(id))
	}
}

// addCandidates32 is addCandidates for int32 id buffers (hierarchy output
// and overlay buckets).
func (sn *snapshot) addCandidates32(s *scratch, st *QueryStats, ids []int32) {
	for _, id := range ids {
		if sn.isDeleted(int(id)) {
			continue
		}
		st.Scanned++
		if s.visited[id] == s.epoch {
			continue
		}
		s.visited[id] = s.epoch
		s.cands = append(s.cands, id)
	}
}
