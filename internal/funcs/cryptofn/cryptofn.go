// Package cryptofn implements the cryptography benchmark of paper §3.4:
// the AES, RSA and SHA-1 algorithms OpenSSL-style applications use, run
// locally on the server (no client packets). The host path leverages ISA
// extensions (AES-NI, RDRAND-assisted paths); the SNIC path submits
// commands to the BlueField-2 PKA accelerator.
//
// The implementations are the real stdlib algorithms — outputs are
// verified in tests — while experiment timing comes from the calibrated
// platform cost models.
package cryptofn

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"fmt"
	"sync"
)

// Algo names the paper's three algorithms.
type Algo string

const (
	AES Algo = "aes-256-ctr"
	RSA Algo = "rsa-2048"
	SHA Algo = "sha-1"
)

// AESCipher is a reusable AES-256-CTR encryptor.
type AESCipher struct {
	block cipher.Block
	iv    [aes.BlockSize]byte
}

// NewAESCipher derives a cipher from a seed string (deterministic keys
// keep simulations reproducible; this is a benchmark, not a KMS).
func NewAESCipher(seed string) *AESCipher {
	key := sha256.Sum256([]byte("key:" + seed))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("cryptofn: %v", err)) // 32-byte key cannot fail
	}
	c := &AESCipher{block: block}
	ivh := sha256.Sum256([]byte("iv:" + seed))
	copy(c.iv[:], ivh[:aes.BlockSize])
	return c
}

// Encrypt returns the CTR keystream XOR of src.
func (c *AESCipher) Encrypt(src []byte) []byte {
	dst := make([]byte, len(src))
	cipher.NewCTR(c.block, c.iv[:]).XORKeyStream(dst, src)
	return dst
}

// Decrypt inverts Encrypt (CTR is symmetric).
func (c *AESCipher) Decrypt(src []byte) []byte { return c.Encrypt(src) }

// SHA1Sum returns the SHA-1 digest of data.
func SHA1Sum(data []byte) [20]byte { return sha1.Sum(data) }

// rsaKey is generated once per process: 2048-bit keygen is expensive and
// irrelevant to the benchmark, which measures sign/verify throughput.
var (
	rsaOnce sync.Once
	rsaPriv *rsa.PrivateKey
)

func rsaKeyPair() *rsa.PrivateKey {
	rsaOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			panic(fmt.Sprintf("cryptofn: RSA keygen: %v", err))
		}
		rsaPriv = k
	})
	return rsaPriv
}

// RSASign performs one RSA-2048 private-key operation (PKCS#1 v1.5 over a
// SHA-256 digest) — the op the PKA engine rate and the host rate are
// quoted in.
func RSASign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return signPKCS1v15(rsaKeyPair(), digest)
}

// RSAVerify checks a signature from RSASign.
func RSAVerify(msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	return verifyPKCS1v15(&rsaKeyPair().PublicKey, digest, sig)
}

// HostRates quotes the calibrated host-CPU rates for each algorithm when
// its ISA extensions are available (paper Fig. 4 discussion):
//
//	AES:  engine × 1.385  (host 38.5% higher)   → ~47.1 Gb/s
//	RSA:  engine × 1.912  (host 91.2% higher)   → ~40.2 kops/s
//	SHA1: engine × 0.528  (host 47.2% lower)    → ~13.2 Gb/s
//
// Bulk rates are bits/s; RSA is ops/s.
type HostRates struct {
	AESBits float64
	SHABits float64
	RSAOps  float64
}

// CalibratedHostRates returns the Fig. 4 anchors, derived from the PKA
// engine rates in package accel (34 Gb/s AES, 25 Gb/s SHA-1, 21 kops/s
// RSA).
func CalibratedHostRates() HostRates {
	return HostRates{
		AESBits: 34e9 * 1.385,
		RSAOps:  21_000 * 1.912,
		SHABits: 25e9 * 0.528,
	}
}
