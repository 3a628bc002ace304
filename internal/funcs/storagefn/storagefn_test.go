package storagefn

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRAMDiskReadWrite(t *testing.T) {
	d := NewRAMDisk(1<<20, 4096)
	src := bytes.Repeat([]byte{0xAB}, 4096)
	if err := d.WriteBlock(5, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4096)
	if err := d.ReadBlock(5, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("read returned different data")
	}
}

func TestRAMDiskFreshBlocksZero(t *testing.T) {
	d := NewRAMDisk(1<<20, 4096)
	dst := bytes.Repeat([]byte{0xFF}, 4096)
	if err := d.ReadBlock(0, dst); err != nil {
		t.Fatal(err)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestRAMDiskSparse(t *testing.T) {
	d := NewRAMDisk(RAMDiskBytes, BlockBytes)
	if d.NumBlocks() != (16<<30)/(64<<10) {
		t.Fatalf("blocks = %d", d.NumBlocks())
	}
	buf := make([]byte, BlockBytes)
	if err := d.WriteBlock(d.NumBlocks()-1, buf); err != nil {
		t.Fatal(err)
	}
	// One 64 KB block materialized from a 16 GB device.
	if n := len(d.blocks) * d.blockSize; n != BlockBytes {
		t.Fatalf("materialized = %d", n)
	}
}

func TestRAMDiskBounds(t *testing.T) {
	d := NewRAMDisk(1<<20, 4096)
	buf := make([]byte, 4096)
	if err := d.ReadBlock(-1, buf); err == nil {
		t.Fatal("negative block accepted")
	}
	if err := d.WriteBlock(d.NumBlocks(), buf); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if err := d.ReadBlock(0, buf[:10]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestRAMDiskCopiesOnWrite(t *testing.T) {
	d := NewRAMDisk(1<<20, 4096)
	src := make([]byte, 4096)
	src[0] = 1
	d.WriteBlock(0, src)
	src[0] = 99
	dst := make([]byte, 4096)
	d.ReadBlock(0, dst)
	if dst[0] != 1 {
		t.Fatal("device aliased caller buffer")
	}
}

func TestRAMDiskCounters(t *testing.T) {
	d := NewRAMDisk(1<<20, 4096)
	buf := make([]byte, 4096)
	d.WriteBlock(0, buf)
	d.ReadBlock(0, buf)
	d.ReadBlock(1, buf)
	if d.Writes() != 1 || d.Reads() != 2 {
		t.Fatalf("reads=%d writes=%d", d.Reads(), d.Writes())
	}
}

func TestRAMDiskBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple size did not panic")
		}
	}()
	NewRAMDisk(1000, 4096)
}

// Property: write-then-read is identity for any block content.
func TestWriteReadIdentityProperty(t *testing.T) {
	d := NewRAMDisk(1<<20, 256)
	f := func(idx uint8, content [256]byte) bool {
		block := int64(idx) % d.NumBlocks()
		if err := d.WriteBlock(block, content[:]); err != nil {
			return false
		}
		out := make([]byte, 256)
		if err := d.ReadBlock(block, out); err != nil {
			return false
		}
		return bytes.Equal(out, content[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJobOffsetsInRangeAndDeterministic(t *testing.T) {
	j := JobSpec{Op: RandRead, Blocks: 4096, Seed: 0xf10}
	d := NewRAMDisk(RAMDiskBytes, BlockBytes)
	a := j.NextOffsets(d.NumBlocks())
	b := j.NextOffsets(d.NumBlocks())
	if len(a) != int(j.Blocks) {
		t.Fatalf("offsets = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("offsets not deterministic")
		}
		if a[i] < 0 || a[i] >= d.NumBlocks() {
			t.Fatalf("offset %d out of range", a[i])
		}
	}
}

func TestOpKindString(t *testing.T) {
	if RandRead.String() != "randread" || RandWrite.String() != "randwrite" {
		t.Fatal("op names wrong")
	}
}
