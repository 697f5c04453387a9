package iplookup

import (
	"runtime"
	"sync"
	"weak"
)

// The RadixIPLookup elements of one process share each route table: the
// flow's solo run, its sweep points, its element-baseline run and every
// runtime replica with the same seed build identical tables. The cache
// below canonicalises them without keeping any alive by itself — it holds
// only weak pointers, and a table is dropped once the last view of it is
// garbage — so memory stays bounded by the tables in use. It is package
// state because elements are built through the click registry, which
// hands their constructors no owner that could hold it.

// tableKey identifies a RandomTable's content.
type tableKey struct {
	routes  int
	seed    uint64
	strides string // one byte per stride
}

// keyOf returns the key of RandomTable(n, seed, strides).
func keyOf(n int, seed uint64, strides []int) tableKey {
	sk := make([]byte, len(strides))
	for i, s := range strides {
		sk[i] = byte(s)
	}
	return tableKey{n, seed, string(sk)}
}

// tableSlot is one key's cache entry. Its fields are written before done
// is closed and only read after, so readers need no lock.
type tableSlot struct {
	key   tableKey
	done  chan struct{}
	table weak.Pointer[Table]
	err   error
}

var tables = struct {
	sync.Mutex
	slots  map[tableKey]*tableSlot
	builds int // tables built so far, for tests
}{slots: map[tableKey]*tableSlot{}}

// sharedRandomTable returns RandomTable(n, seed, strides), building it only
// when no live table with that content exists. Concurrent callers of one
// key wait for a single build.
func sharedRandomTable(n int, seed uint64, strides []int) (*Table, error) {
	if strides == nil {
		strides = DefaultStrides
	}
	key := keyOf(n, seed, strides)
	for {
		tables.Lock()
		s := tables.slots[key]
		if s == nil {
			s = &tableSlot{key: key, done: make(chan struct{})}
			tables.slots[key] = s
			tables.builds++
			tables.Unlock()
			return s.build(n, seed, strides)
		}
		tables.Unlock()
		<-s.done
		if s.err != nil {
			return nil, s.err
		}
		if t := s.table.Value(); t != nil {
			return t, nil
		}
		// The table was collected and its cleanup has not run yet.
		dropSlot(s)
	}
}

// build fills s and publishes it. A failed build leaves no slot behind,
// so the error reaches only the callers already waiting on it.
func (s *tableSlot) build(n int, seed uint64, strides []int) (*Table, error) {
	defer close(s.done)
	t, err := RandomTable(n, seed, strides)
	if err != nil {
		s.err = err
		dropSlot(s)
		return nil, err
	}
	s.table = weak.Make(t)
	runtime.AddCleanup(t, dropSlot, s)
	return t, nil
}

// dropSlot removes s from the cache unless a newer slot has replaced it.
func dropSlot(s *tableSlot) {
	tables.Lock()
	if tables.slots[s.key] == s {
		delete(tables.slots, s.key)
	}
	tables.Unlock()
}
