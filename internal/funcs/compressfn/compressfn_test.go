package compressfn

import (
	"bytes"
	"testing"
)

func TestRoundTripBothInputs(t *testing.T) {
	for _, in := range []Input{InputApp, InputTxt} {
		data := GenCorpus(in, 256<<10, 42)
		comp, err := Compress(data, PaperLevel)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		back, err := Decompress(comp)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%s: lossy round trip", in)
		}
	}
}

func TestCompressibilityByClass(t *testing.T) {
	app := GenCorpus(InputApp, 512<<10, 42)
	txt := GenCorpus(InputTxt, 512<<10, 42)
	appC, err := Compress(app, PaperLevel)
	if err != nil {
		t.Fatal(err)
	}
	txtC, err := Compress(txt, PaperLevel)
	if err != nil {
		t.Fatal(err)
	}
	appR, txtR := Ratio(app, appC), Ratio(txt, txtC)
	if appR < 1.5 || appR > 3.0 {
		t.Errorf("app ratio = %.2f, want ~2:1 (binary class)", appR)
	}
	if txtR < 2.5 {
		t.Errorf("txt ratio = %.2f, want >= 2.5 (text class)", txtR)
	}
	if txtR <= appR {
		t.Errorf("text (%.2f) must compress better than binary (%.2f)", txtR, appR)
	}
}

func TestLevelAffectsRatio(t *testing.T) {
	data := GenCorpus(InputTxt, 256<<10, 7)
	l1, err := Compress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	l9, err := Compress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(l9) > len(l1) {
		t.Fatalf("level 9 (%d) larger than level 1 (%d)", len(l9), len(l1))
	}
}

func TestGenCorpusDeterministicAndSized(t *testing.T) {
	a := GenCorpus(InputApp, 10000, 5)
	b := GenCorpus(InputApp, 10000, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("corpus not deterministic")
	}
	if len(a) != 10000 {
		t.Fatalf("size = %d", len(a))
	}
	c := GenCorpus(InputApp, 10000, 6)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestDecompressGarbageFails(t *testing.T) {
	if _, err := Decompress([]byte{0xff, 0x00, 0xab, 0xcd}); err == nil {
		t.Fatal("garbage inflated without error")
	}
}

func TestCompressBadLevelFails(t *testing.T) {
	if _, err := Compress([]byte("x"), 42); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestHostRatesCalibration(t *testing.T) {
	// Accelerator effective ~51 Gb/s over host 14.6 Gb/s ≈ 3.5×
	// (paper: "up to 3.5× maximum throughput" for Compression).
	if r := 51e9 / HostRates(InputApp); r < 3.3 || r > 3.7 {
		t.Errorf("accel/host compression ratio = %.2f, want ~3.5", r)
	}
	if HostRates(InputTxt) >= HostRates(InputApp) {
		t.Error("txt should cost slightly more per byte than app")
	}
}

func TestRatioEdgeCases(t *testing.T) {
	if Ratio([]byte("abc"), nil) != 0 {
		t.Fatal("empty compressed must yield ratio 0")
	}
}

func BenchmarkDeflateLevel9Txt(b *testing.B) {
	data := GenCorpus(InputTxt, ChunkBytes, 42)
	b.SetBytes(ChunkBytes)
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, PaperLevel); err != nil {
			b.Fatal(err)
		}
	}
}
