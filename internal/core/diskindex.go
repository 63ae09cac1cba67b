package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"bilsh/internal/durable"
	"bilsh/internal/mmap"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
)

// Disk-backed index — the out-of-core mode the paper names as future work
// ("we also need to design efficient out-of-core algorithms to handle very
// large datasets").
//
// Writers emit the paged v3 layout (see disklayout.go): page-aligned
// CRC-protected sections that the reader maps into the address space, so
// a serving index holds memory proportional to what queries actually
// touch, not to the N×D payload. Two legacy layouts still open and query
// byte-identically to how they did when written:
//
//	v1/v2 "bilsh.Disk/1|2": wire metadata decoded to heap, float32 rows
//	in a fixed-stride section fetched with ReadAt per shortlist row.
//
// Version sniffing happens on the first 16 bytes, so OpenDisk handles any
// generation of file transparently.
const diskMagicLen = 16

var (
	diskMagicV1 = [diskMagicLen]byte{'b', 'i', 'l', 's', 'h', '.', 'D', 'i', 's', 'k', '/', '1'}
	diskMagic   = [diskMagicLen]byte{'b', 'i', 'l', 's', 'h', '.', 'D', 'i', 's', 'k', '/', '2'}
)

// diskSource captures the clean snapshot fields the v3 writer needs.
func (sn *snapshot) diskSource(opts Options) *diskV3Source {
	return &diskV3Source{
		opts:   opts,
		n:      sn.data.N,
		d:      sn.data.D,
		quant:  sn.quant,
		tree:   sn.tree,
		km:     sn.km,
		groups: sn.groups,
		rows: func(w io.Writer) error {
			payload := make([]byte, 4*sn.data.D)
			for i := 0; i < sn.data.N; i++ {
				row := sn.data.Row(i)
				for j, v := range row {
					binary.LittleEndian.PutUint32(payload[4*j:], math.Float32bits(v))
				}
				if _, err := w.Write(payload); err != nil {
					return fmt.Errorf("core: writing row %d: %w", i, err)
				}
			}
			return nil
		},
	}
}

// WriteDiskTo serializes the index in the paged disk layout (v3). The
// writer must support seeking (an *os.File does): section offsets and
// CRCs are back-patched into the header once the sections are streamed.
// It returns the total bytes written.
func (ix *Index) WriteDiskTo(f io.WriteSeeker) (int64, error) {
	if ix.opts.Metric == MetricHamming {
		// The paged layout keeps float rows on disk and scans them through
		// the pager; the Hamming plane ranks resident packed sketches
		// instead. Use WriteTo/ReadIndex (wire v4) for Hamming indexes.
		return 0, fmt.Errorf("core: Hamming indexes do not support the paged disk layout; use WriteTo")
	}
	sn := ix.loadSnap()
	if err := sn.requireClean(); err != nil {
		return 0, err
	}
	if sn.fetch != nil {
		return 0, fmt.Errorf("core: cannot re-serialize a disk-backed index; Compact materializes it first")
	}
	return writeDiskV3(f, sn.diskSource(ix.opts))
}

// writeDiskV2To emits the legacy v2 fixed-stride layout. Kept (unexported)
// so the backward-compatibility tests can mint real v2 files and pin that
// they keep opening and querying byte-identically.
func (ix *Index) writeDiskV2To(f io.WriteSeeker) (int64, error) {
	sn := ix.loadSnap()
	if err := sn.requireClean(); err != nil {
		return 0, err
	}
	if sn.fetch != nil {
		return 0, fmt.Errorf("core: cannot re-serialize a disk-backed index; Compact materializes it first")
	}
	var header [diskMagicLen + 8]byte
	copy(header[:], diskMagic[:])
	if _, err := f.Write(header[:]); err != nil {
		return 0, err
	}

	meta := wire.NewWriter(f)
	writeOptions(meta, ix.opts)
	meta.Int(sn.data.N)
	meta.Int(sn.data.D)
	writeQuant(meta, sn.quant)
	writeStructure(meta, sn.tree, sn.km, sn.groups)
	if err := meta.Flush(); err != nil {
		return 0, err
	}
	dataOffset, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}

	payload := make([]byte, 4*sn.data.D)
	for i := 0; i < sn.data.N; i++ {
		row := sn.data.Row(i)
		for j, v := range row {
			binary.LittleEndian.PutUint32(payload[4*j:], math.Float32bits(v))
		}
		if _, err := f.Write(payload); err != nil {
			return 0, fmt.Errorf("core: writing row %d: %w", i, err)
		}
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}

	binary.LittleEndian.PutUint64(header[diskMagicLen:], uint64(dataOffset))
	if _, err := f.Seek(diskMagicLen, io.SeekStart); err != nil {
		return 0, err
	}
	if _, err := f.Write(header[diskMagicLen:]); err != nil {
		return 0, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return 0, err
	}
	return end, nil
}

// SaveDisk writes the disk-backed layout to path atomically: the bytes
// stream to path+".tmp", which is fsynced and renamed over path, so a
// crash mid-save never leaves a truncated index behind and any previous
// file at path stays intact until the new one is complete. The rename
// also means an index currently serving from the old file keeps its
// mapping — the old inode lives until the last open handle drops.
func (ix *Index) SaveDisk(path string) error {
	return durable.AtomicWrite(path, func(f *os.File) error {
		_, err := ix.WriteDiskTo(f)
		return err
	})
}

// DiskIndex is a queryable index whose vector rows live on disk. It
// supports the full reader API (Query, QueryPlan, QueryBatch, ExactKNN); dynamic inserts work (new rows live in memory) and Compact
// materializes the whole index back into memory. For v3 files the index
// is served straight off the mapping — see docs/outofcore.md.
type DiskIndex struct {
	*Index
	f       *os.File
	mapping *mmap.Mapping // non-nil for mapped v3 files
	res     *residency    // non-nil when mapping is
}

// OpenDisk opens a disk index with default options (v3 files map with
// the default residency policy; v1/v2 files use the ReadAt fetch path).
func OpenDisk(path string) (*DiskIndex, error) {
	return OpenDiskWith(path, DiskOpenOptions{Residency: ResidencyPolicy{PinCodes: true}})
}

// OpenDiskWith opens a disk index with explicit open options. The
// options only affect v3 paged files; legacy v1/v2 files always use the
// per-row ReadAt path.
func OpenDiskWith(path string, o DiskOpenOptions) (*DiskIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	di, err := openDisk(f, o)
	if err != nil {
		f.Close()
		return nil, err
	}
	return di, nil
}

func openDisk(f *os.File, opts DiskOpenOptions) (*DiskIndex, error) {
	var magic [diskMagicLen]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("core: reading disk index header: %w", err)
	}
	if bytes.Equal(magic[:], diskMagicV3[:]) {
		ix, m, res, err := openDiskV3(f, 0, opts)
		if err != nil {
			return nil, err
		}
		return &DiskIndex{Index: ix, f: f, mapping: m, res: res}, nil
	}
	return openDiskLegacy(f, magic)
}

// openDiskLegacy handles v1/v2 fixed-stride files via the ReadAt fetch
// closure.
func openDiskLegacy(f *os.File, magic [diskMagicLen]byte) (*DiskIndex, error) {
	var version int
	switch {
	case bytes.Equal(magic[:], diskMagic[:]):
		version = 2
	case bytes.Equal(magic[:], diskMagicV1[:]):
		version = 1
	default:
		return nil, fmt.Errorf("core: not a bilsh disk index")
	}
	var offB [8]byte
	if _, err := f.ReadAt(offB[:], diskMagicLen); err != nil {
		return nil, fmt.Errorf("core: reading disk index header: %w", err)
	}
	dataOffset := int64(binary.LittleEndian.Uint64(offB[:]))
	if dataOffset < diskMagicLen+8 {
		return nil, fmt.Errorf("core: disk index data offset %d implausible", dataOffset)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if dataOffset > st.Size() {
		return nil, fmt.Errorf("core: disk index data offset %d beyond file size %d", dataOffset, st.Size())
	}

	meta := wire.NewReader(io.NewSectionReader(f, diskMagicLen+8, dataOffset-diskMagicLen-8))
	o, err := readOptions(meta, version)
	if err != nil {
		return nil, err
	}
	n := meta.Int()
	d := meta.Int()
	if err := meta.Err(); err != nil {
		return nil, err
	}
	if n < 0 || d <= 0 {
		return nil, fmt.Errorf("core: disk index shape %dx%d implausible", n, d)
	}
	if want := dataOffset + int64(n)*int64(d)*4; st.Size() < want {
		return nil, fmt.Errorf("core: disk index truncated: %d bytes, want %d", st.Size(), want)
	}

	var quant *vec.QuantizedMatrix
	if version >= 2 {
		if quant, err = readQuant(meta, n, d); err != nil {
			return nil, err
		}
	}
	tree, km, groups, err := readStructure(meta, o, n)
	if err != nil {
		return nil, err
	}
	stride := int64(4 * d)
	fetch := func(id int) []float32 {
		buf := make([]byte, stride)
		if _, err := f.ReadAt(buf, dataOffset+int64(id)*stride); err != nil {
			// A read failure below the size check above means the file
			// changed underneath us; surface loudly rather than return
			// garbage distances.
			panic(fmt.Sprintf("core: disk index row %d: %v", id, err))
		}
		row := make([]float32, d)
		for j := range row {
			row[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		return row
	}
	ix := newIndex(o, &vec.Matrix{N: n, D: d}, fetch, quant, tree, km, groups)
	return &DiskIndex{Index: ix, f: f}, nil
}

// Mapped reports whether the index serves from an mmap'd file (true only
// for v3 files on hosts with working mmap).
func (di *DiskIndex) Mapped() bool { return di.mapping != nil && di.mapping.Mapped() }

// Residency samples the resident-set stats of a mapped index (zero value
// when not mapped).
func (di *DiskIndex) Residency() ResidencyStats {
	if di.res == nil {
		return ResidencyStats{}
	}
	return di.res.sample()
}

// EnforceResidency applies the residency policy now: sample, and evict
// exact-row pages when over budget. Safe to call concurrently with
// queries; typically driven by a serving-tier ticker.
func (di *DiskIndex) EnforceResidency() ResidencyStats {
	if di.res == nil {
		return ResidencyStats{}
	}
	return di.res.enforce()
}

// SetRowsBudget replaces the exact-row resident budget (bytes; 0 means
// unlimited) for subsequent EnforceResidency calls.
func (di *DiskIndex) SetRowsBudget(b int64) {
	if di.res != nil {
		di.res.setBudget(b)
	}
}

// Close releases the file handle and, for mapped files, the mapping.
// The index must not be queried after Close: mapped reads would fault.
func (di *DiskIndex) Close() error {
	if di.mapping != nil {
		di.mapping.Close()
	}
	return di.f.Close()
}
