package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"sync"
)

// dataset is a workload's inputs as the benchmark knows them: row-major
// float32 base and query vectors. The program only ever sees them through
// the fvecs files written from here.
type dataset struct {
	d       int
	base    []float32
	queries []float32
}

func (ds *dataset) n() int                { return len(ds.base) / ds.d }
func (ds *dataset) nq() int               { return len(ds.queries) / ds.d }
func (ds *dataset) row(i int) []float32   { return ds.base[i*ds.d : (i+1)*ds.d] }
func (ds *dataset) query(i int) []float32 { return ds.queries[i*ds.d : (i+1)*ds.d] }

// model is a clustered-manifold generator: every point is a cluster
// centre plus a combination of `intrinsic` random directions with
// geometrically falling scales (aspect 6 between the first and last),
// plus small isotropic noise. It uses only math/rand/v2's PCG, so no
// change to the repository's own packages can alter a workload.
//
// The geometry (centres and directions) comes from its own seed and the
// points from another. The benchmark fixes the geometry, so every --seed
// draws a fresh sample of one workload instead of a different workload:
// with the geometry drawn from --seed too, one seed's knn-batch index
// restarted 15% slower than another's on every run, a spread that is the
// data's and not the program's.
type model struct {
	rng     *rand.Rand
	d       int
	centres [][]float64
	dirs    [][][]float64
	acc     []float64
}

func newModel(geometrySeed, pointSeed uint64, d, clusters, intrinsic int) *model {
	const spread, aspect = 4.0, 6.0
	geo := rand.New(rand.NewPCG(geometrySeed, 0x5eed_b15e))
	m := &model{rng: rand.New(rand.NewPCG(pointSeed, 0x9015_7a3e)), d: d, acc: make([]float64, d)}
	for c := 0; c < clusters; c++ {
		centre := make([]float64, d)
		for j := range centre {
			centre[j] = geo.NormFloat64() * spread
		}
		var dirs [][]float64
		for k := 0; k < intrinsic; k++ {
			dir := make([]float64, d)
			var norm float64
			for j := range dir {
				dir[j] = geo.NormFloat64()
				norm += dir[j] * dir[j]
			}
			scale := math.Pow(aspect, -float64(k)/float64(max(intrinsic-1, 1))) / math.Sqrt(norm)
			for j := range dir {
				dir[j] *= scale
			}
			dirs = append(dirs, dir)
		}
		m.centres, m.dirs = append(m.centres, centre), append(m.dirs, dirs)
	}
	return m
}

// rows draws the next count points, row-major.
func (m *model) rows(count int) []float32 {
	const noise = 0.05
	out := make([]float32, count*m.d)
	for i := 0; i < count; i++ {
		c := m.rng.IntN(len(m.centres))
		copy(m.acc, m.centres[c])
		for _, dir := range m.dirs[c] {
			a := m.rng.NormFloat64() * 2
			for j := range m.acc {
				m.acc[j] += a * dir[j]
			}
		}
		row := out[i*m.d : (i+1)*m.d]
		for j := range row {
			row[j] = float32(m.acc[j] + m.rng.NormFloat64()*noise)
		}
	}
	return out
}

// geometrySeed fixes every workload's cluster geometry (see model).
const geometrySeed = 1

// generate draws a workload's base rows and then its queries; r.model
// keeps the stream for rows the workload inserts later.
func (r *run) generate() *dataset {
	wl := r.wl
	r.model = newModel(geometrySeed, r.seed, wl.Dim, wl.Clusters, wl.Intrinsic)
	base := r.model.rows(wl.N)
	return &dataset{d: wl.Dim, base: base, queries: r.model.rows(wl.Queries)}
}

// writeFvecs writes rows (row-major, dimension d) in the fvecs format and
// returns the SHA-256 of the bytes written.
func writeFvecs(path string, rows []float32, d int) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	rec := make([]byte, 4+4*d)
	binary.LittleEndian.PutUint32(rec, uint32(d))
	for i := 0; i < len(rows)/d; i++ {
		for j, v := range rows[i*d : (i+1)*d] {
			binary.LittleEndian.PutUint32(rec[4+4*j:], math.Float32bits(v))
		}
		if _, err := w.Write(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashFile is the SHA-256 of a file's bytes.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashTruth is the SHA-256 of an answer key (ids in rank order).
func hashTruth(truth [][]int32) string {
	h := sha256.New()
	var b [4]byte
	for _, row := range truth {
		for _, id := range row {
			binary.LittleEndian.PutUint32(b[:], uint32(id))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sqDist is the squared Euclidean distance in float64.
func sqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		x := float64(a[i]) - float64(b[i])
		s += x * x
	}
	return s
}

// sqDist32 is the squared distance with four float32 accumulators, the
// brute-force inner loop.
func sqDist32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x0 := a[i] - b[i]
		x1 := a[i+1] - b[i+1]
		x2 := a[i+2] - b[i+2]
		x3 := a[i+3] - b[i+3]
		s0 += x0 * x0
		s1 += x1 * x1
		s2 += x2 * x2
		s3 += x3 * x3
	}
	for ; i < len(a); i++ {
		x := a[i] - b[i]
		s0 += x * x
	}
	return (s0 + s1) + (s2 + s3)
}

// bruteForce returns, for each query, the ids of its k nearest rows of
// base (dimension d), nearest first; ties break toward the smaller id.
// It is the benchmark's own oracle: it uses no repository code.
func bruteForce(base []float32, d int, queries [][]float32, k int, workers int) [][]int32 {
	n := len(base) / d
	out := make([][]int32, len(queries))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]int32, 0, k+1)
			dists := make([]float32, 0, k+1)
			for qi := range next {
				q := queries[qi]
				ids, dists = ids[:0], dists[:0]
				for id := 0; id < n; id++ {
					dd := sqDist32(base[id*d:(id+1)*d], q)
					if len(ids) == k && dd >= dists[k-1] {
						continue
					}
					// Insert in order (k is small).
					pos := len(ids)
					for pos > 0 && dists[pos-1] > dd {
						pos--
					}
					if len(ids) < k {
						ids = append(ids, 0)
						dists = append(dists, 0)
					}
					copy(ids[pos+1:], ids[pos:len(ids)-1])
					copy(dists[pos+1:], dists[pos:len(dists)-1])
					ids[pos], dists[pos] = int32(id), dd
				}
				out[qi] = append([]int32(nil), ids...)
			}
		}()
	}
	for qi := range queries {
		next <- qi
	}
	close(next)
	wg.Wait()
	return out
}

// rowsOf slices a row-major matrix into row views.
func rowsOf(flat []float32, d, count int) [][]float32 {
	out := make([][]float32, count)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d]
	}
	return out
}

// writeInputs writes the base and query files of ds into dir, records
// their hashes, and checks them against the reference hashes when the
// run uses the reference seed.
func (r *run) writeInputs(ds *dataset) (basePath, queryPath string, err error) {
	basePath = r.path("base.fvecs")
	queryPath = r.path("queries.fvecs")
	hb, err := writeFvecs(basePath, ds.base, ds.d)
	if err != nil {
		return "", "", err
	}
	hq, err := writeFvecs(queryPath, ds.queries, ds.d)
	if err != nil {
		return "", "", err
	}
	// Read back what the program will read: the file on disk must be
	// the bytes the benchmark hashed.
	for path, want := range map[string]string{basePath: hb, queryPath: hq} {
		got, err := hashFile(path)
		if err != nil {
			return "", "", err
		}
		if got != want {
			return "", "", fmt.Errorf("%s: hash changed between write and read-back", path)
		}
	}
	r.detail.Hashes["base"] = hb
	r.detail.Hashes["queries"] = hq
	return basePath, queryPath, nil
}

// recordTruth hashes the answer key and checks every hash of this run
// against workloads.json's reference hashes when the seed is the
// reference seed.
func (r *run) recordTruth(truth [][]int32) {
	r.detail.Hashes["truth"] = hashTruth(truth)
	if r.seed != r.cfg.ReferenceSeed {
		return
	}
	ref := r.cfg.ReferenceHashes[r.name]
	for k, v := range r.detail.Hashes {
		if want, ok := ref[k]; ok && want != v {
			r.gate.fail("input %s of %s at the reference seed hashes to %s, want %s (workload or answer key changed)", k, r.name, v, want)
		}
	}
}
