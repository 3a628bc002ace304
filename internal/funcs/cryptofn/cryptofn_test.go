package cryptofn

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAESRoundTrip(t *testing.T) {
	c := NewAESCipher("seed1")
	msg := []byte("the quick brown fox")
	ct := c.Encrypt(msg)
	if bytes.Equal(ct, msg) {
		t.Fatal("ciphertext equals plaintext")
	}
	if got := c.Decrypt(ct); !bytes.Equal(got, msg) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestAESDeterministicPerSeed(t *testing.T) {
	a := NewAESCipher("s").Encrypt([]byte("data"))
	b := NewAESCipher("s").Encrypt([]byte("data"))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different ciphertexts")
	}
	c := NewAESCipher("other").Encrypt([]byte("data"))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical ciphertexts")
	}
}

func TestAESRoundTripProperty(t *testing.T) {
	c := NewAESCipher("prop")
	f := func(msg []byte) bool {
		return bytes.Equal(c.Decrypt(c.Encrypt(msg)), msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSHA1KnownVector(t *testing.T) {
	// FIPS 180 test vector: SHA1("abc").
	got := SHA1Sum([]byte("abc"))
	want := [20]byte{
		0xa9, 0x99, 0x3e, 0x36, 0x47, 0x06, 0x81, 0x6a, 0xba, 0x3e,
		0x25, 0x71, 0x78, 0x50, 0xc2, 0x6c, 0x9c, 0xd0, 0xd8, 0x9d,
	}
	if got != want {
		t.Fatalf("SHA1(abc) = %x", got)
	}
}

func TestRSASignVerify(t *testing.T) {
	msg := []byte("sign me")
	sig, err := RSASign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != 256 {
		t.Fatalf("RSA-2048 signature length = %d, want 256", len(sig))
	}
	if err := RSAVerify(msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := RSAVerify([]byte("tampered"), sig); err == nil {
		t.Fatal("verify accepted tampered message")
	}
}

func TestCalibratedHostRatesMatchPaperRatios(t *testing.T) {
	// Fig. 4 discussion: host beats engine by 38.5% (AES) and 91.2%
	// (RSA); engine beats host by 1/0.528 = 1.894x on SHA-1.
	hr := CalibratedHostRates()
	const engineAES, engineSHA, engineRSA = 34e9, 25e9, 21_000
	if r := hr.AESBits / engineAES; r < 1.38 || r > 1.39 {
		t.Errorf("AES host/engine = %v, want 1.385", r)
	}
	if r := hr.RSAOps / engineRSA; r < 1.91 || r > 1.92 {
		t.Errorf("RSA host/engine = %v, want 1.912", r)
	}
	if r := engineSHA / hr.SHABits; r < 1.88 || r > 1.90 {
		t.Errorf("SHA engine/host = %v, want ~1.894", r)
	}
}

func BenchmarkAESEncrypt1KB(b *testing.B) {
	c := NewAESCipher("bench")
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf)
	}
}

func BenchmarkSHA1_1KB(b *testing.B) {
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		SHA1Sum(buf)
	}
}
