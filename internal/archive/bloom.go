package archive

import (
	"encoding/base64"
	"hash/fnv"
)

// defaultBloomBits / defaultBloomHashes size the per-segment keyword
// Bloom filter: 8192 bits with 4 hashes keeps the false-positive rate
// under ~2% for the few hundred distinct keywords a segment
// accumulates, at 1 KiB of sidecar per segment (keyword skipping below
// segment level is the per-block filters' job). The oldest sidecars
// carry no hash count, so 4 is also the decode default — changing it
// would turn old filters into false-negative machines.
const (
	defaultBloomBits   = 8192
	defaultBloomHashes = 4
)

// blockBitsPerKey / blockBloomHashes size the per-block keyword
// filters of v2 zone maps. Blocks are small and their filters are
// sized from the block's actual distinct-keyword count, so 8 bits/key
// (~2% false positives at 4 hashes) costs a few dozen bytes per block.
const (
	blockBitsPerKey  = 8
	blockBloomHashes = 4
)

// bloomParams is the sizing of one filter.
type bloomParams struct {
	bits   int
	hashes int
}

// blockBloomParams sizes one block's zone-map keyword filter from its
// (approximate) distinct-string count.
func blockBloomParams(keys int) bloomParams {
	bits := blockBitsPerKey * keys
	if bits < 256 {
		bits = 256
	}
	if bits > 1<<20 {
		bits = 1 << 20
	}
	bits = (bits + 63) &^ 63
	return bloomParams{bits: bits, hashes: blockBloomHashes}
}

// bloom is a Bloom filter over keyword strings, using double hashing
// (h1 + i·h2) over one 64-bit FNV-1a pass. The bit-array length (any
// multiple of 64 bits) is the modulus, so filters of different sizes
// coexist in one archive; the hash count rides along because it must
// match between add and probe.
type bloom struct {
	bits []byte
	k    int
}

func newBloom() bloom {
	return newBloomSized(bloomParams{bits: defaultBloomBits, hashes: defaultBloomHashes})
}

func newBloomSized(p bloomParams) bloom {
	return bloom{bits: make([]byte, p.bits/8), k: p.hashes}
}

func (b bloom) empty() bool { return len(b.bits) == 0 }

// clone deep-copies the filter (for point-in-time views of the still-
// mutating active filter).
func (b bloom) clone() bloom {
	if b.empty() {
		return bloom{}
	}
	return bloom{bits: append([]byte(nil), b.bits...), k: b.k}
}

func bloomHash(s string) (h1, h2 uint32) {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash.Hash never errors
	v := h.Sum64()
	h1 = uint32(v)
	h2 = uint32(v>>32) | 1 // odd, so the probe sequence cycles all bits
	return
}

func (b bloom) add(s string) {
	n := uint32(len(b.bits) * 8)
	if n == 0 {
		return
	}
	h1, h2 := bloomHash(s)
	for i := uint32(0); i < uint32(b.k); i++ {
		bit := (h1 + i*h2) % n
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether s could have been added (false positives
// possible, false negatives not). An empty filter admits everything.
func (b bloom) mayContain(s string) bool {
	n := uint32(len(b.bits) * 8)
	if n == 0 || n%64 != 0 {
		// Unknown filter shape (corrupt or future sidecar): never skip.
		return true
	}
	h1, h2 := bloomHash(s)
	for i := uint32(0); i < uint32(b.k); i++ {
		bit := (h1 + i*h2) % n
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

func (b bloom) encode() string { return base64.StdEncoding.EncodeToString(b.bits) }

// decodeBloom rebuilds a filter from its sidecar encoding with the
// sidecar's recorded hash count; k ≤ 0 selects the legacy count (the
// oldest sidecars carry none).
func decodeBloom(s string, k int) bloom {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return bloom{}
	}
	if k <= 0 {
		k = defaultBloomHashes
	}
	return bloom{bits: raw, k: k}
}
