package hw

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// Differential tests: seeded random streams replayed through the
// production cache model and the reference in cacheref_test.go must agree
// on every hit, victim, statistic and counter.

// sameCache fails unless got holds exactly want's lines, stamps, dirty
// bits and statistics. An invalid way must be clean; its stamp is free.
func sameCache(t *testing.T, name string, got *Cache, want *refCache) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s stats = %+v, reference %+v", name, got.Stats, want.Stats)
	}
	for i, l := range want.lines {
		tag, meta := uint64(invalidTag), uint64(0) // a cache never used is unallocated
		if got.tags != nil {
			tag, meta = got.tags[i], got.meta[i]
		}
		if l.tag == invalidTag {
			// An invalid way's stamp is never read.
			l.stamp, l.dirty = meta>>1, false
		}
		if tag != l.tag || meta>>1 != l.stamp || (meta&1 != 0) != l.dirty {
			t.Fatalf("%s set %d way %d = {tag %#x stamp %d dirty %v}, reference %+v", name,
				i/want.ways, i%want.ways, tag, meta>>1, meta&1 != 0, l)
		}
	}
}

func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct {
		g      CacheGeom
		policy ReplacementPolicy
	}{
		{CacheGeom{SizeBytes: 4 << 10, Ways: 4}, ReplaceLRU},     // 16 sets: mask index
		{CacheGeom{SizeBytes: 12 * 64 * 6, Ways: 6}, ReplaceLRU}, // 12 sets: modulo index
		{CacheGeom{SizeBytes: 64 * 16, Ways: 1}, ReplaceLRU},     // direct-mapped
		{CacheGeom{SizeBytes: 64 * 8, Ways: 8}, ReplaceLRU},      // fully associative
		{CacheGeom{SizeBytes: 12 * 64 * 4, Ways: 4}, ReplaceRandom},
	}
	for gi, tc := range geoms {
		t.Run(fmt.Sprintf("%d-%dB-%dway-policy%d", gi, tc.g.SizeBytes, tc.g.Ways, tc.policy), func(t *testing.T) {
			got := NewCache("got", tc.g, tc.policy)
			want := newRefCache(tc.g, tc.policy)
			r := rand.New(rand.NewPCG(uint64(gi), 7))
			lines := uint64(3 * tc.g.SizeBytes / LineSize)
			for n := 0; n < 50000; n++ {
				addr := Addr(r.Uint64N(lines)<<LineShift | r.Uint64N(LineSize))
				write := r.IntN(4) == 0
				switch k := r.IntN(16); {
				case k < 10: // a lookup, filled on a miss as the platform does
					h1, h2 := got.Access(addr, write), want.Access(addr, write)
					if h1 != h2 {
						t.Fatalf("op %d: Access(%#x) hit %v, reference %v", n, addr, h1, h2)
					}
					if h1 || r.IntN(8) == 0 {
						continue
					}
					fallthrough
				case k < 13:
					v1, d1, e1 := got.Insert(addr, write)
					v2, d2, e2 := want.Insert(addr, write)
					if v1 != v2 || d1 != d2 || e1 != e2 {
						t.Fatalf("op %d: Insert(%#x) = %#x %v %v, reference %#x %v %v", n, addr, v1, d1, e1, v2, d2, e2)
					}
				case k < 15:
					p1, d1 := got.Invalidate(addr)
					p2, d2 := want.Invalidate(addr)
					if p1 != p2 || d1 != d2 {
						t.Fatalf("op %d: Invalidate(%#x) = %v %v, reference %v %v", n, addr, p1, d1, p2, d2)
					}
				default:
					if m1, m2 := got.MarkDirty(addr), want.MarkDirty(addr); m1 != m2 {
						t.Fatalf("op %d: MarkDirty(%#x) = %v, reference %v", n, addr, m1, m2)
					}
				}
			}
			sameCache(t, "cache", got, want)
		})
	}
}

// quickCfg is the reduced hierarchy the quick experiment scale uses.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.L1D = CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	return cfg
}

func TestPlatformMatchesReference(t *testing.T) {
	random := quickCfg()
	random.L3Policy = ReplaceRandom
	exclusive := quickCfg()
	exclusive.InclusiveL3 = false
	wide := DefaultConfig()
	wide.CoresPerSocket = 65 // more cores than a sharer mask has bits
	wide.L1D = CacheGeom{SizeBytes: 1 << 10, Ways: 2}
	wide.L2 = CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	wide.L3 = CacheGeom{SizeBytes: 64 << 10, Ways: 8}
	cases := []struct {
		name  string
		cfg   Config
		ops   int
		flush bool // flush socket 0's L3 alone, later every cache
	}{
		{"quick", quickCfg(), 200000, false},
		{"quick-flushes", quickCfg(), 200000, true},
		{"default", DefaultConfig(), 400000, false},
		{"random-l3", random, 200000, false},
		{"non-inclusive", exclusive, 200000, false},
		{"65-core-socket", wide, 100000, false},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "default" {
				t.Skip("replays a paper-scale L3")
			}
			got := NewPlatform(tc.cfg)
			want := newRefPlatform(tc.cfg)
			if got.Cores[0].Socket.L3.filtering() != (tc.cfg.InclusiveL3 && tc.cfg.CoresPerSocket <= 64) {
				t.Fatalf("sharer filter on = %v for %d inclusive=%v cores per socket",
					got.Cores[0].Socket.L3.filtering(), tc.cfg.CoresPerSocket, tc.cfg.InclusiveL3)
			}
			r := rand.New(rand.NewPCG(uint64(ci), 11))
			// Half the references go to a hot set the size of one L2, the
			// rest to three times as many lines as fit in a window of up
			// to 1024 L3 sets, so that even a paper-scale L3 evicts.
			hot := uint64(tc.cfg.L2.SizeBytes / LineSize)
			sets := uint64(tc.cfg.L3.Sets())
			window := min(sets, 1024)
			depth := uint64(3 * tc.cfg.L3.Ways)
			clocks := make([]uint64, len(got.Cores))
			check := func(op int) {
				t.Helper()
				for i, c := range got.Cores {
					rc := want.cores[i]
					if c.Counters != rc.counters {
						t.Fatalf("op %d: core %d counters %+v, reference %+v", op, i, c.Counters, rc.counters)
					}
					sameCache(t, fmt.Sprintf("op %d core %d L1", op, i), c.L1, rc.l1)
					sameCache(t, fmt.Sprintf("op %d core %d L2", op, i), c.L2, rc.l2)
				}
				for s, sock := range got.Sockets {
					sameCache(t, fmt.Sprintf("op %d socket %d L3", op, s), sock.L3, want.sockets[s].l3)
					checkSharers(t, sock)
				}
			}
			for n := 0; n < tc.ops; n++ {
				if tc.flush && n == tc.ops/3 {
					got.Sockets[0].L3.Flush()
					want.sockets[0].l3.flush()
				}
				if tc.flush && n == 2*tc.ops/3 {
					got.FlushCaches()
					want.flushCaches()
				}
				ci := r.IntN(len(got.Cores))
				line := r.Uint64N(hot)
				if r.IntN(2) == 0 {
					line = hot + r.Uint64N(depth)*sets + r.Uint64N(window)
				}
				addr := DomainBase(int(line%2)) + Addr(line<<LineShift|r.Uint64N(LineSize))
				fn := FuncID(r.IntN(4))
				now := clocks[ci]
				switch k := r.IntN(20); {
				case k == 0:
					got.Cores[ci].DMAWrite(now, addr)
					want.cores[ci].DMAWrite(now, addr)
				default:
					write := k < 5
					l1, l2 := got.Cores[ci].Access(now, addr, write, fn), want.cores[ci].Access(now, addr, write, fn)
					if l1 != l2 {
						t.Fatalf("op %d: core %d Access(%#x, write=%v) latency %d, reference %d", n, ci, addr, write, l1, l2)
					}
					clocks[ci] += l1
				}
				clocks[ci] += uint64(r.IntN(20))
				if n%50000 == 0 {
					check(n)
				}
			}
			check(tc.ops)
			for s, sock := range want.sockets {
				if sock.l3.Stats.Evictions == 0 {
					t.Fatalf("the stream never evicts from socket %d's L3", s)
				}
			}
		})
	}
}

// checkSharers asserts the sharer-mask invariant while the filter is on:
// every line in a core's L1 or L2 is in the L3, and its way's mask has
// the core's bit.
func checkSharers(t *testing.T, sock *Socket) {
	t.Helper()
	if !sock.L3.filtering() {
		return
	}
	for _, c := range sock.Cores {
		for _, cache := range []*Cache{c.L1, c.L2} {
			for _, line := range cache.tags {
				if line == invalidTag {
					continue
				}
				w := sock.L3.find(line)
				if w < 0 {
					t.Fatalf("%s holds line %#x the inclusive L3 does not", cache.Name, line)
				}
				if sock.L3.sharers[w]&c.bit == 0 {
					t.Fatalf("%s holds line %#x but its L3 sharer mask %#x lacks core bit %#x",
						cache.Name, line, sock.L3.sharers[w], c.bit)
				}
			}
		}
	}
}
