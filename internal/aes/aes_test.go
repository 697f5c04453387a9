package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/netpkt"
	"pktpredict/internal/rng"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// encryptBlock returns the cipher's encryption of one block: CTR over
// 16 zero bytes with the block as the counter is exactly E(block).
func encryptBlock(t *testing.T, key, block []byte) []byte {
	t.Helper()
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var ctr [16]byte
	copy(ctr[:], block)
	out := make([]byte, 16)
	c.CTR(ctr, out)
	return out
}

// FIPS-197 Appendix C.1 known-answer test.
func TestFIPS197Vector(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	pt := unhex(t, "00112233445566778899aabbccddeeff")
	want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	if got := encryptBlock(t, key, pt); !bytes.Equal(got, want) {
		t.Fatalf("E(pt) = %x, want %x", got, want)
	}
}

// FIPS-197 Appendix B known-answer test.
func TestFIPS197AppendixB(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := unhex(t, "3243f6a8885a308d313198a2e0370734")
	want := unhex(t, "3925841d02dc09fbdc118597196a0b32")
	if got := encryptBlock(t, key, pt); !bytes.Equal(got, want) {
		t.Fatalf("E(pt) = %x, want %x", got, want)
	}
}

func TestBadKeyLength(t *testing.T) {
	if _, err := NewCipher(make([]byte, 15)); err == nil {
		t.Fatal("15-byte key must be rejected")
	}
	if _, err := NewCipher(make([]byte, 32)); err == nil {
		t.Fatal("32-byte key must be rejected (AES-128 only)")
	}
}

// NIST SP 800-38A F.5.1 CTR-AES128 vector (first two blocks).
func TestCTRKnownVector(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	var iv [16]byte
	copy(iv[:], unhex(t, "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
	buf := unhex(t, "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51")
	want := unhex(t, "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff")
	c, _ := NewCipher(key)
	c.CTR(iv, buf)
	if !bytes.Equal(buf, want) {
		t.Fatalf("CTR = %x, want %x", buf, want)
	}
}

func TestCTRIsInvolution(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	c, _ := NewCipher(key)
	msg := []byte("counter mode handles arbitrary-length payloads without padding")
	orig := append([]byte(nil), msg...)
	var iv [16]byte
	iv[15] = 1
	c.CTR(iv, msg)
	if bytes.Equal(msg, orig) {
		t.Fatal("CTR did not change the payload")
	}
	c.CTR(iv, msg)
	if !bytes.Equal(msg, orig) {
		t.Fatal("CTR twice with the same IV must restore the payload")
	}
}

func TestCTRCounterOverflow(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	c, _ := NewCipher(key)
	var iv [16]byte
	for i := range iv {
		iv[i] = 0xff // counter wraps immediately
	}
	buf := make([]byte, 48)
	c.CTR(iv, buf) // must not panic, and blocks must differ
	if bytes.Equal(buf[0:16], buf[16:32]) {
		t.Fatal("keystream repeated across counter wrap")
	}
}

// TestCTRMatchesStdlib checks CTR against crypto/cipher's CTR stream
// for every payload length from 0 to 600 bytes (whole and partial final
// blocks) and for an IV whose 16-byte counter wraps mid-payload.
func TestCTRMatchesStdlib(t *testing.T) {
	r := rng.New(7)
	key := make([]byte, KeySize)
	r.Fill(key)
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	block, err := stdaes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var wrap [16]byte
	for i := range wrap {
		wrap[i] = 0xff
	}
	wrap[15] = 0xfe // wraps all 16 bytes after the second block
	var random [16]byte
	r.Fill(random[:])
	for _, iv := range [][16]byte{random, wrap} {
		for n := 0; n <= 600; n++ {
			buf := make([]byte, n)
			r.Fill(buf)
			want := make([]byte, n)
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, buf)
			c.CTR(iv, buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("iv %x, %d bytes: CTR = %x, want %x", iv, n, buf, want)
			}
		}
	}
}

func TestVPNElementEncryptsPayload(t *testing.T) {
	v, err := NewVPN(unhex(t, "000102030405060708090a0b0c0d0e0f"), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 256)
	netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 256, TTL: 64, Proto: netpkt.ProtoUDP, Src: 1, Dst: 2})
	orig := append([]byte(nil), b...)
	p := &click.Packet{Data: b, Addr: 0x10000}
	var ctx click.Ctx
	if verdict := v.Process(&ctx, p); verdict != click.Continue {
		t.Fatalf("verdict = %v", verdict)
	}
	if bytes.Equal(b[20:], orig[20:]) {
		t.Fatal("payload unchanged")
	}
	if !bytes.Equal(b[:20], orig[:20]) {
		t.Fatal("header must not be encrypted")
	}

	var computes, loads, stores int
	for _, op := range ctx.Ops {
		switch op.Kind {
		case hw.OpCompute:
			computes++
		case hw.OpLoad:
			loads++
		case hw.OpStore:
			stores++
		}
	}
	// 236-byte payload spans 4-5 lines; ensure both passes traced.
	if loads < 4 || stores < 4 || computes == 0 {
		t.Fatalf("trace: %d loads / %d stores / %d computes", loads, stores, computes)
	}
}

func TestVPNElementDistinctIVs(t *testing.T) {
	v, _ := NewVPN(unhex(t, "000102030405060708090a0b0c0d0e0f"), nil, 0, 0)
	var ctx click.Ctx
	mk := func() []byte {
		b := make([]byte, 64)
		netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 64, TTL: 64, Proto: netpkt.ProtoUDP, Src: 1, Dst: 2})
		return b
	}
	b1, b2 := mk(), mk()
	v.Process(&ctx, &click.Packet{Data: b1, Addr: 0x1000})
	v.Process(&ctx, &click.Packet{Data: b2, Addr: 0x2000})
	if bytes.Equal(b1[20:], b2[20:]) {
		t.Fatal("identical plaintexts encrypted identically: IV reuse")
	}
}
