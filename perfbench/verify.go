package main

import (
	"encoding/binary"

	"repro/internal/block"
)

// stampWords is the number of 64-bit words in one 512-byte block.
const stampWords = block.Size / 8

// A stamp names the block it belongs to in plain words — word 0 holds the
// version and block number, word 1 the tenant — and fills the rest from a
// hash of the three, so a single flipped byte anywhere breaks it.
func stampSeed(tenant int, number uint64, version uint32) uint64 {
	x := uint64(tenant)<<48 ^ number<<20 ^ uint64(version)
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

const stampStep = 0xD6E8FEB86659FD93

// stamp fills one block with version `version` of block `number` of
// tenant `tenant`.
func stamp(p []byte, tenant int, number uint64, version uint32) {
	binary.LittleEndian.PutUint64(p, uint64(version)|number<<32)
	binary.LittleEndian.PutUint64(p[8:], uint64(tenant))
	w := stampSeed(tenant, number, version)
	for i := 2; i < stampWords; i++ {
		binary.LittleEndian.PutUint64(p[i*8:], w)
		w += stampStep
	}
}

// stampOK reports whether p holds exactly that stamp; version 0 means
// the block was never written and must read as zero.
func stampOK(p []byte, tenant int, number uint64, version uint32) bool {
	if version == 0 {
		for i := 0; i < stampWords; i++ {
			if binary.LittleEndian.Uint64(p[i*8:]) != 0 {
				return false
			}
		}
		return true
	}
	if binary.LittleEndian.Uint64(p) != uint64(version)|number<<32 || binary.LittleEndian.Uint64(p[8:]) != uint64(tenant) {
		return false
	}
	w := stampSeed(tenant, number, version)
	for i := 2; i < stampWords; i++ {
		if binary.LittleEndian.Uint64(p[i*8:]) != w {
			return false
		}
		w += stampStep
	}
	return true
}

// stampVersion returns the version p is a stamp of, if it is one.
func stampVersion(p []byte, tenant int, number uint64) (uint32, bool) {
	v := uint32(binary.LittleEndian.Uint64(p))
	return v, stampOK(p, tenant, number, v)
}

// shadow is the benchmark's record of its own writes: the current version
// of every block of every tenant. Each tenant is driven by one goroutine
// at a time, so a tenant's row needs no lock.
type shadow struct {
	vers [][]uint32 // [tenant][block number]
}

func newShadow(blocksPerTenant []uint64) *shadow {
	s := &shadow{vers: make([][]uint32, len(blocksPerTenant))}
	for t, n := range blocksPerTenant {
		s.vers[t] = make([]uint32, n)
	}
	return s
}

// write stamps p (whole blocks starting at block `first`) with each
// block's next version and records it.
func (s *shadow) write(p []byte, tenant int, first uint64) {
	row := s.vers[tenant]
	for i := 0; i*block.Size < len(p); i++ {
		n := first + uint64(i)
		row[n]++
		stamp(p[i*block.Size:(i+1)*block.Size], tenant, n, row[n])
	}
}

// check reports whether p (whole blocks starting at block `first`) holds
// what the shadow says each block holds.
func (s *shadow) check(p []byte, tenant int, first uint64) bool {
	row := s.vers[tenant]
	for i := 0; i*block.Size < len(p); i++ {
		n := first + uint64(i)
		if !stampOK(p[i*block.Size:(i+1)*block.Size], tenant, n, row[n]) {
			return false
		}
	}
	return true
}
