// Package aes provides AES-128 CTR-mode encryption for the paper's VPN
// workload. The block cipher is the standard library's crypto/aes; the
// VPN element encrypts real payload bytes with it and charges the
// modelled software-AES compute cycles (see cyclesPerBlock), making VPN
// the system's representative CPU-intensive packet processing.
package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// Cipher is an expanded AES-128 key plus the CTR keystream and counter
// scratch. Keeping the scratch here rather than on CTR's stack keeps the
// per-packet path allocation-free (a stack array passed through the
// cipher.Block interface call would escape). A Cipher is therefore not
// safe for concurrent use; each VPN element owns its own.
type Cipher struct {
	block     cipher.Block
	keystream [BlockSize]byte
	counter   [BlockSize]byte
}

// NewCipher expands a 16-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: key length %d, want %d", len(key), KeySize)
	}
	b, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aes: %w", err)
	}
	return &Cipher{block: b}, nil
}

// CTR encrypts (or, identically, decrypts) buf in place using counter
// mode with the given 16-byte IV, incremented big-endian across all 16
// bytes per block. CTR turns the block cipher into a stream cipher, so
// arbitrary payload lengths need no padding — the mode VPN tunnels
// typically use.
//
//dataplane:hotpath
func (c *Cipher) CTR(iv [16]byte, buf []byte) {
	c.counter = iv
	for off := 0; off < len(buf); off += BlockSize {
		c.block.Encrypt(c.keystream[:], c.counter[:])
		subtle.XORBytes(buf[off:], buf[off:], c.keystream[:])
		for i := BlockSize - 1; i >= 0; i-- {
			c.counter[i]++
			if c.counter[i] != 0 {
				break
			}
		}
	}
}
