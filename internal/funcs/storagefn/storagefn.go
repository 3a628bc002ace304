// Package storagefn implements the fio benchmark substrate of paper
// §3.4: remote storage access over NVMe-oF. The storage server runs a
// RAMDisk emulating a fast 16 GB block device; the compute server (host
// CPU or SNIC CPU) issues 64 KB block I/O at iodepth 4 through the
// NVMe-oF offloading engine in the (S)NIC.
package storagefn

import (
	"fmt"

	"repro/internal/sim"
)

// Paper configuration constants.
const (
	// BlockBytes is the fio request size.
	BlockBytes = 64 << 10
	// RAMDiskBytes is the emulated device size.
	RAMDiskBytes = 16 << 30
)

// OpKind is the fio operation (Table 3: Read, Write).
type OpKind int

const (
	// RandRead is fio randread.
	RandRead OpKind = iota
	// RandWrite is fio randwrite.
	RandWrite
)

func (o OpKind) String() string {
	if o == RandWrite {
		return "randwrite"
	}
	return "randread"
}

// RAMDisk is a sparse in-memory block device: blocks materialize on
// first write, reads of untouched blocks return zeros (exactly how a
// fresh RAMDisk behaves). Sparseness keeps a 16 GB device testable.
type RAMDisk struct {
	sizeBytes int64
	blockSize int
	blocks    map[int64][]byte

	reads, writes uint64
}

// NewRAMDisk returns a device of sizeBytes with the given block size.
func NewRAMDisk(sizeBytes int64, blockSize int) *RAMDisk {
	if sizeBytes <= 0 || blockSize <= 0 || sizeBytes%int64(blockSize) != 0 {
		panic("storagefn: size must be a positive multiple of block size")
	}
	return &RAMDisk{
		sizeBytes: sizeBytes,
		blockSize: blockSize,
		blocks:    make(map[int64][]byte),
	}
}

// NumBlocks returns the device's block count.
func (d *RAMDisk) NumBlocks() int64 { return d.sizeBytes / int64(d.blockSize) }

// BlockSize returns the device block size.
func (d *RAMDisk) BlockSize() int { return d.blockSize }

func (d *RAMDisk) checkBlock(idx int64) error {
	if idx < 0 || idx >= d.NumBlocks() {
		return fmt.Errorf("storagefn: block %d out of range [0,%d)", idx, d.NumBlocks())
	}
	return nil
}

// ReadBlock copies block idx into dst (len >= BlockSize).
func (d *RAMDisk) ReadBlock(idx int64, dst []byte) error {
	if err := d.checkBlock(idx); err != nil {
		return err
	}
	if len(dst) < d.blockSize {
		return fmt.Errorf("storagefn: read buffer %d < block size %d", len(dst), d.blockSize)
	}
	d.reads++
	if b, ok := d.blocks[idx]; ok {
		copy(dst, b)
		return nil
	}
	for i := 0; i < d.blockSize; i++ {
		dst[i] = 0
	}
	return nil
}

// WriteBlock stores src (len >= BlockSize) as block idx.
func (d *RAMDisk) WriteBlock(idx int64, src []byte) error {
	if err := d.checkBlock(idx); err != nil {
		return err
	}
	if len(src) < d.blockSize {
		return fmt.Errorf("storagefn: write buffer %d < block size %d", len(src), d.blockSize)
	}
	d.writes++
	b, ok := d.blocks[idx]
	if !ok {
		b = make([]byte, d.blockSize)
		d.blocks[idx] = b
	}
	copy(b, src)
	return nil
}

// Reads and Writes expose counters.
func (d *RAMDisk) Reads() uint64  { return d.reads }
func (d *RAMDisk) Writes() uint64 { return d.writes }

// JobSpec is a fio job description.
type JobSpec struct {
	Op     OpKind
	Blocks int64 // number of I/Os to issue
	Seed   uint64
}

// NextOffsets precomputes the random block offsets a job touches.
func (j JobSpec) NextOffsets(numBlocks int64) []int64 {
	r := sim.NewRNG(j.Seed)
	out := make([]int64, j.Blocks)
	for i := range out {
		out[i] = int64(r.Uint64n(uint64(numBlocks)))
	}
	return out
}
