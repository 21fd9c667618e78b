package archive

import (
	"bytes"

	"repro/internal/jsonw"
)

// A Record is one /query element: its JSON tags name the members, and
// the encoders below write the bytes encoding/json writes for it
// (internal/server's differential tests hold them to that), whether the
// record is whole or a row of a decoded block.

// The element's member keys after "id", laid out in advance.
var (
	keyState         = jsonw.KeyLit("state")
	keyKeywords      = jsonw.KeyLit("keywords")
	keyAllKeywords   = jsonw.KeyLit("all_keywords")
	keyRank          = jsonw.KeyLit("rank")
	keyPeakRank      = jsonw.KeyLit("peak_rank")
	keyBornQuantum   = jsonw.KeyLit("born_quantum")
	keyLastQuantum   = jsonw.KeyLit("last_quantum")
	keyEvolved       = jsonw.KeyLit("evolved")
	keySize          = jsonw.KeyLit("size")
	keySupport       = jsonw.KeyLit("support")
	keyReported      = jsonw.KeyLit("reported")
	keyFirstReported = jsonw.KeyLit("first_reported")
	keyMergedInto    = jsonw.KeyLit("merged_into")
	keySplitFrom     = jsonw.KeyLit("split_from")
	keySpurious      = jsonw.KeyLit("spurious")
)

// EncodeQueryEvent writes ev as one /query element: Record under its
// own JSON tags.
func EncodeQueryEvent(w *jsonw.Writer, ev *Record) {
	w.BeginObject()
	w.Key("id").Uint(ev.ID)
	w.Member(&keyState).String(ev.State)
	w.Member(&keyKeywords).Strings(ev.Keywords)
	if len(ev.AllKeywords) > 0 {
		w.Member(&keyAllKeywords).Strings(ev.AllKeywords)
	}
	w.Member(&keyRank).Float(ev.Rank)
	w.Member(&keyPeakRank).Float(ev.PeakRank)
	w.Member(&keyBornQuantum).Int(ev.BornQuantum)
	w.Member(&keyLastQuantum).Int(ev.LastQuantum)
	w.Member(&keyEvolved).Bool(ev.Evolved)
	w.Member(&keySize).Int(ev.Size)
	w.Member(&keySupport).Int(ev.Support)
	w.Member(&keyReported).Bool(ev.Reported)
	if ev.FirstReported != 0 {
		w.Member(&keyFirstReported).Int(ev.FirstReported)
	}
	if ev.MergedInto != 0 {
		w.Member(&keyMergedInto).Uint(ev.MergedInto)
	}
	if ev.SplitFrom != 0 {
		w.Member(&keySplitFrom).Uint(ev.SplitFrom)
	}
	w.Member(&keySpurious).Bool(ev.Spurious)
	w.EndObject()
}

// RowJSON returns row i as one /query element: the bytes
// EncodeQueryEvent writes for b.Record(i). The first call renders every
// row of the block, once, and charges the bytes to the cache entry that
// holds the block; the slice is shared and must not be written.
func (b *Block) RowJSON(i int) []byte {
	b.render.Do(b.renderRows)
	return b.rows[b.rowOff[i]:b.rowOff[i+1]]
}

func (b *Block) renderRows() {
	// Each dictionary string is escaped once, not once per row naming it.
	dict := quotedDict{buf: make([]byte, 0, b.dictBytes+2*len(b.Dict)), off: make([]uint32, len(b.Dict)+1)}
	for d, s := range b.Dict {
		dict.buf = jsonw.AppendString(dict.buf, s)
		dict.off[d+1] = uint32(len(dict.buf))
	}
	jw := jsonw.Compact()
	off := make([]uint32, b.Len()+1)
	for i := 0; i < b.Len(); i++ {
		encodeBlockRow(jw, b, i, &dict)
		off[i+1] = uint32(len(jw.Bytes()))
	}
	b.rows, b.rowOff = bytes.Clone(jw.Bytes()), off
	jw.Close() //nolint:errcheck // no destination, no error
	if b.ent != nil {
		blocks.charge(b.ent, int64(cap(b.rows)+4*cap(b.rowOff)))
	}
}

// quotedDict is a block's dictionary as JSON strings: entry d is
// buf[off[d]:off[d+1]].
type quotedDict struct {
	buf []byte
	off []uint32
}

func (q *quotedDict) at(d uint32) []byte { return q.buf[q.off[d]:q.off[d+1]] }

// encodeBlockRow writes row i of b straight from its columns, the
// strings from dict.
func encodeBlockRow(w *jsonw.Writer, b *Block, i int, dict *quotedDict) {
	w.BeginObject()
	w.Key("id").Uint(b.ID[i])
	w.Member(&keyState).Raw(dict.at(b.State[i]))
	w.Member(&keyKeywords)
	if b.KeywordsNil(i) {
		w.Null()
	} else {
		dictStrings(w, dict, b.Keywords(i))
	}
	if all := b.AllKeywords(i); len(all) > 0 {
		w.Member(&keyAllKeywords)
		dictStrings(w, dict, all)
	}
	w.Member(&keyRank).Float(b.Rank[i])
	w.Member(&keyPeakRank).Float(b.PeakRank[i])
	w.Member(&keyBornQuantum).Int(b.BornQuantum[i])
	w.Member(&keyLastQuantum).Int(b.LastQuantum[i])
	w.Member(&keyEvolved).Bool(b.Evolved(i))
	w.Member(&keySize).Int(b.Size[i])
	w.Member(&keySupport).Int(b.Support[i])
	w.Member(&keyReported).Bool(b.Reported(i))
	if v := b.FirstReported[i]; v != 0 {
		w.Member(&keyFirstReported).Int(v)
	}
	if v := b.MergedInto[i]; v != 0 {
		w.Member(&keyMergedInto).Uint(v)
	}
	if v := b.SplitFrom[i]; v != 0 {
		w.Member(&keySplitFrom).Uint(v)
	}
	w.Member(&keySpurious).Bool(b.Spurious(i))
	w.EndObject()
}

// dictStrings writes the dictionary strings at indexes idx as a JSON
// array.
func dictStrings(w *jsonw.Writer, dict *quotedDict, idx []uint32) {
	w.BeginArray()
	for _, j := range idx {
		w.Elem().Raw(dict.at(j))
	}
	w.EndArray()
}
