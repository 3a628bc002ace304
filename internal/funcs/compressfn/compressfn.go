// Package compressfn implements the compression benchmark of paper §3.4:
// the Deflate algorithm at level 9 ("to get the best compression ratio")
// over two inputs from a compression corpus — an application binary
// ("app", Application3) and a text file ("txt", Text1). The host path is
// ISA-L-accelerated Deflate; the SNIC path stages buffers to the
// BlueField-2 compression engine via two staging cores.
//
// Compression here is real compress/flate: the corpus generator produces
// inputs whose compressibility matches the two file classes, and tests
// verify ratios and lossless round trips.
package compressfn

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Input names the two corpus files of Table 3.
type Input string

const (
	// InputApp resembles Application3: machine code and mixed binary
	// structure; moderate compressibility (~2:1).
	InputApp Input = "app"
	// InputTxt resembles Text1: natural-language text; ~3:1 at level 9.
	InputTxt Input = "txt"
)

// PaperLevel is the paper's Deflate setting.
const PaperLevel = 9

// GenCorpus deterministically generates size bytes resembling the named
// input class.
func GenCorpus(in Input, size int, seed uint64) []byte {
	r := sim.NewRNG(seed ^ uint64(len(in)))
	switch in {
	case InputApp:
		return genBinary(r, size)
	case InputTxt:
		return genText(r, size)
	default:
		panic(fmt.Sprintf("compressfn: unknown input %q", in))
	}
}

// genBinary emits opcode-like byte runs: a skewed byte histogram with
// repeated short sequences (function prologues, padding) and incompressible
// stretches (embedded data).
func genBinary(r *sim.RNG, size int) []byte {
	out := make([]byte, 0, size)
	idioms := make([][]byte, 24)
	for i := range idioms {
		seq := make([]byte, 3+r.Intn(10))
		for j := range seq {
			seq[j] = byte(r.Uint64())
		}
		idioms[i] = seq
	}
	for len(out) < size {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // common idiom repeated
			out = append(out, idioms[r.Intn(len(idioms))]...)
		case 4, 5: // zero padding
			n := 4 + r.Intn(28)
			out = append(out, make([]byte, n)...)
		case 6, 7, 8: // skewed "opcodes"
			for i := 0; i < 8; i++ {
				out = append(out, byte(r.Intn(64)))
			}
		default: // incompressible embedded data
			n := 8 + r.Intn(40)
			for i := 0; i < n; i++ {
				out = append(out, byte(r.Uint64()))
			}
		}
	}
	return out[:size]
}

var textWords = []string{
	"the", "of", "and", "a", "to", "in", "is", "was", "he", "for",
	"it", "with", "as", "his", "on", "be", "at", "by", "i", "this",
	"had", "not", "are", "but", "from", "or", "have", "an", "they",
	"which", "one", "you", "were", "her", "all", "she", "there",
	"would", "their", "we", "him", "been", "has", "when", "who",
	"will", "more", "no", "if", "out", "system", "network", "packet",
	"server", "measurement", "throughput", "latency", "energy",
}

// genText emits word-frequency-realistic English-like text.
func genText(r *sim.RNG, size int) []byte {
	z := sim.NewZipf(r.Fork(3), uint64(len(textWords)), 1.0)
	var buf bytes.Buffer
	buf.Grow(size + 16)
	col := 0
	for buf.Len() < size {
		w := textWords[z.Next()]
		buf.WriteString(w)
		col += len(w) + 1
		if col > 70 {
			buf.WriteByte('\n')
			col = 0
		} else {
			buf.WriteByte(' ')
		}
	}
	return buf.Bytes()[:size]
}

// Compress deflates data at the given level.
func Compress(data []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		return nil, fmt.Errorf("compressfn: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return nil, fmt.Errorf("compressfn: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("compressfn: %w", err)
	}
	return buf.Bytes(), nil
}

// Decompress inflates a Compress output.
func Decompress(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("compressfn: %w", err)
	}
	return out, nil
}

// Ratio returns original/compressed size.
func Ratio(original, compressed []byte) float64 {
	if len(compressed) == 0 {
		return 0
	}
	return float64(len(original)) / float64(len(compressed))
}

// HostRates quotes the calibrated host Deflate throughput with ISA-L
// (paper: the accelerator achieves up to 3.5× the host, and the engine
// caps near 50 Gb/s → host ISA-L level-9 ≈ 14.6 Gb/s). The txt input
// compresses further but costs slightly more per byte.
func HostRates(in Input) float64 {
	switch in {
	case InputApp:
		return 14.6e9
	case InputTxt:
		return 13.2e9
	default:
		panic(fmt.Sprintf("compressfn: unknown input %q", in))
	}
}

// ChunkBytes is the staging buffer size used when feeding files to the
// engine (dpdk-test-compress-perf style).
const ChunkBytes = 64 << 10
