package archive

import (
	"hash/fnv"
)

// segBloomBytes sizes the per-segment keyword Bloom filter: 8192 bits
// keep the false-positive rate under ~2% for the few hundred distinct
// keywords a segment accumulates, at 1 KiB of index per segment (keyword
// skipping below segment level is the per-block filters' job).
const segBloomBytes = 8192 / 8

// bloomHashes is every filter's hash count.
const bloomHashes = 4

// blockBloomBits sizes one block's zone-map keyword filter from its
// (approximate) distinct-string count: 8 bits per key (~2% false
// positives at 4 hashes), a multiple of 64 bits between 256 and 2²⁰.
func blockBloomBits(keys int) int {
	bits := min(max(8*keys, 256), 1<<20)
	return (bits + 63) &^ 63
}

// bloom is a Bloom filter over keyword strings, using double hashing
// (h1 + i·h2) over one 64-bit FNV-1a pass. The bit-array length is the
// modulus, so filters of different sizes coexist in one segment.
type bloom []byte

func newBloom(bits int) bloom { return make(bloom, bits/8) }

// clone deep-copies the filter (for point-in-time views of the still-
// mutating active filter).
func (b bloom) clone() bloom { return append(bloom(nil), b...) }

func bloomHash(s string) (h1, h2 uint32) {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash.Hash never errors
	v := h.Sum64()
	h1 = uint32(v)
	h2 = uint32(v>>32) | 1 // odd, so the probe sequence cycles all bits
	return
}

func (b bloom) add(s string) {
	n := uint32(len(b) * 8)
	h1, h2 := bloomHash(s)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % n
		b[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether s could have been added (false positives
// possible, false negatives not). An empty filter admits everything.
func (b bloom) mayContain(s string) bool {
	n := uint32(len(b) * 8)
	if n == 0 {
		return true
	}
	h1, h2 := bloomHash(s)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % n
		if b[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
