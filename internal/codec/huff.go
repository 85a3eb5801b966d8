package codec

import (
	"encoding/binary"
	"errors"
)

// This file is the huff plane mode (DESIGN.md §6): an order-0 canonical
// Huffman coder for one byte plane. Code lengths are capped at huffMaxBits so
// the decoder is a single table lookup per symbol; code words are written
// most-significant bit first, so the 2^(12−l) table entries of an l-bit code
// are contiguous and the canonical code of a value is its first table slot
// shifted down.
//
// A huff body is the code lengths, then the stream. The lengths take the
// smaller of two forms: a zero byte and 128 bytes holding the 256 lengths as
// nibbles, value 0 in the low half of the first; or a count byte k ≥ 1, the k
// used values in ascending order, and their lengths as ⌈k/2⌉ bytes of nibbles.
const (
	huffMaxBits   = 12
	huffTableSize = 1 << huffMaxBits
	huffSparseMax = 85 // most used values for which the list, 1+k+⌈k/2⌉ bytes, beats the 129-byte array
)

// huffCoder is the huff mode's share of the pooled scratch.
type huffCoder struct {
	lens  [256]uint8            // code length per byte value, 0 = unused
	list  int                   // encoder: the header's count byte — used values listed, 0 for the array form
	codes [256]uint16           // encoder: length<<12 | code word
	table [huffTableSize]uint16 // decoder: next 12 stream bits → value<<8 | length
	a, b  [256]uint64           // build's sort buffers: count<<8 | value
}

var (
	errHuffHeader    = errors.New("huff: body ends inside the code lengths")
	errHuffLengths   = errors.New("huff: code lengths are not a complete prefix code of at most 12 bits")
	errHuffTruncated = errors.New("huff: stream ends before the plane is full")
	errHuffTooLong   = errors.New("huff: stream is longer than the plane's code words")
)

// build sets h.lens to the length-limited Huffman code of hist, which must
// count at least two distinct values, and returns the size of the plane's body
// under it. Lengths are a pure function of the histogram: values are ranked by
// (count, value), so ties never fall to sort order.
//
//machlint:allocfree
func (h *huffCoder) build(hist *[256]uint32) (size int) {
	// Rank the used values: a stable byte-wise radix sort on the count of a
	// list that starts in value order.
	k := 0
	var digits uint32 // OR of the counts: which radix passes have anything to sort
	for v, c := range hist {
		if c != 0 {
			h.a[k] = uint64(c)<<8 | uint64(v)
			k++
			digits |= c
		}
	}
	rank, spare := h.a[:k], h.b[:k]
	for shift := uint(8); digits>>(shift-8) != 0; shift += 8 {
		var start [256]int
		for _, key := range rank {
			start[byte(key>>shift)]++
		}
		sum := 0
		for d, c := range start {
			start[d], sum = sum, sum+c
		}
		for _, key := range rank {
			d := byte(key >> shift)
			spare[start[d]] = key
			start[d]++
		}
		rank, spare = spare, rank
	}

	// Moffat–Katajainen in-place minimum-redundancy lengths over the
	// ascending counts: w[i] ends as the code length of rank[i].
	var w [256]uint32
	for i, key := range rank {
		w[i] = uint32(key >> 8)
	}
	w[0] += w[1]
	root, leaf := 0, 2
	for next := 1; next < k-1; next++ {
		if leaf >= k || w[root] < w[leaf] {
			w[next] = w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] = w[leaf]
			leaf++
		}
		if leaf >= k || (root < next && w[root] < w[leaf]) {
			w[next] += w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] += w[leaf]
			leaf++
		}
	}
	w[k-2] = 0
	for next := k - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	avail, inner, depth := 1, 0, uint32(0)
	root, next := k-2, k-1
	for avail > 0 {
		for root >= 0 && w[root] == depth {
			inner++
			root--
		}
		for avail > inner {
			w[next] = depth
			next--
			avail--
		}
		avail, inner = 2*inner, 0
		depth++
	}

	// Cap the lengths: fold everything deeper into huffMaxBits, then repay
	// the Kraft overdraft one 2^-12 at a time by splitting the longest code
	// shorter than the cap.
	var count [huffMaxBits + 1]int
	for _, l := range w[:k] {
		count[min(l, huffMaxBits)]++
	}
	total := 0
	for l := 1; l <= huffMaxBits; l++ {
		total += count[l] << (huffMaxBits - l)
	}
	for ; total > huffTableSize; total-- {
		count[huffMaxBits]--
		for l := huffMaxBits - 1; l > 0; l-- {
			if count[l] != 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}

	// Shortest codes to the highest ranks.
	h.lens = [256]uint8{}
	if h.list = k; k > huffSparseMax {
		h.list = 0
	}
	var streamBits uint64
	i := k
	for l := 1; l <= huffMaxBits; l++ {
		for c := count[l]; c > 0; c-- {
			i--
			h.lens[byte(rank[i])] = uint8(l)
			streamBits += (rank[i] >> 8) * uint64(l)
		}
	}
	return lengthsSize(h.list) + int((streamBits+7)/8)
}

// lengthsSize is the size of a code-length header whose count byte is list.
func lengthsSize(list int) int {
	if list == 0 {
		return 1 + 128
	}
	return 1 + list + (list+1)/2
}

// putLengths writes the code-length header of h.lens into dst.
func (h *huffCoder) putLengths(dst []byte) {
	dst[0] = byte(h.list)
	if h.list == 0 {
		for v := 0; v < 256; v += 2 {
			dst[1+v/2] = h.lens[v] | h.lens[v+1]<<4
		}
		return
	}
	values, nibbles := dst[1:1+h.list], dst[1+h.list:]
	j := 0
	for v, l := range h.lens {
		if l != 0 {
			values[j] = byte(v)
			if j&1 == 0 {
				nibbles[j/2] = l
			} else {
				nibbles[j/2] |= l << 4
			}
			j++
		}
	}
}

// readLengths parses the code-length header at the front of body into h.lens
// and returns its size. It accepts only a complete prefix code — every length
// at most huffMaxBits, Kraft sum exactly one, which also rules out a
// one-value code — so the table setTable builds has no unassigned entry.
//
//machlint:allocfree
func (h *huffCoder) readLengths(body []byte) (size int, err error) {
	if len(body) == 0 {
		return 0, errHuffHeader
	}
	h.lens = [256]uint8{}
	k := int(body[0])
	if size = lengthsSize(k); len(body) < size {
		return 0, errHuffHeader
	}
	if k == 0 {
		for v := 0; v < 256; v += 2 {
			h.lens[v], h.lens[v+1] = body[1+v/2]&15, body[1+v/2]>>4
		}
	} else {
		values, nibbles := body[1:1+k], body[1+k:size]
		for j, v := range values {
			if j > 0 && v <= values[j-1] {
				return 0, errHuffLengths
			}
			h.lens[v] = nibbles[j/2] >> (4 * (j & 1)) & 15
		}
	}
	for _, l := range h.lens {
		if l > huffMaxBits {
			return 0, errHuffLengths
		}
	}
	if _, total := h.slots(); total != huffTableSize {
		return 0, errHuffLengths
	}
	return size, nil
}

// slots returns, for every code length, the first table slot of its codes in
// canonical order (shorter codes first, equal lengths by value), and the
// number of slots h.lens claims in all: huffTableSize for a complete code.
func (h *huffCoder) slots() (first [huffMaxBits + 1]int, total int) {
	var count [huffMaxBits + 1]int
	for _, l := range h.lens {
		count[l]++
	}
	for l := 1; l <= huffMaxBits; l++ {
		first[l] = total
		total += count[l] << (huffMaxBits - l)
	}
	return first, total
}

// encode writes the body of plane under the code build chose — the lengths,
// then the code words — into dst, which must be eight bytes longer than the
// size build returned: the bit buffer is flushed a word at a time.
//
//machlint:allocfree
//machlint:noalias dst,plane
func (h *huffCoder) encode(dst, plane []byte) {
	h.putLengths(dst)
	dst = dst[lengthsSize(h.list):]
	first, _ := h.slots()
	for v, l := range h.lens {
		if l != 0 {
			h.codes[v] = uint16(l)<<huffMaxBits | uint16(first[l]>>(huffMaxBits-l))
			first[l] += 1 << (huffMaxBits - l)
		}
	}
	var acc uint64 // code words enter at the low end
	var nbits uint // pending bits in acc, under 8 after a flush
	pos, i := 0, 0
	for ; i+4 <= len(plane); i += 4 {
		p := plane[i : i+4 : i+4]
		c0, c1, c2, c3 := h.codes[p[0]], h.codes[p[1]], h.codes[p[2]], h.codes[p[3]]
		acc = acc<<(c0>>huffMaxBits) | uint64(c0&(huffTableSize-1))
		acc = acc<<(c1>>huffMaxBits) | uint64(c1&(huffTableSize-1))
		acc = acc<<(c2>>huffMaxBits) | uint64(c2&(huffTableSize-1))
		acc = acc<<(c3>>huffMaxBits) | uint64(c3&(huffTableSize-1))
		nbits += uint(c0>>huffMaxBits + c1>>huffMaxBits + c2>>huffMaxBits + c3>>huffMaxBits)
		binary.BigEndian.PutUint64(dst[pos:], acc<<((64-nbits)&63))
		pos += int(nbits >> 3)
		nbits &= 7
	}
	for ; i < len(plane); i++ {
		c := h.codes[plane[i]]
		acc = acc<<(c>>huffMaxBits) | uint64(c&(huffTableSize-1))
		nbits += uint(c >> huffMaxBits)
	}
	if nbits != 0 {
		binary.BigEndian.PutUint64(dst[pos:], acc<<((64-nbits)&63))
	}
}

// setTable builds the decode table of the code readLengths accepted.
//
//machlint:allocfree
func (h *huffCoder) setTable() {
	first, _ := h.slots()
	for v, l := range h.lens {
		if l == 0 {
			continue
		}
		span := 1 << (huffMaxBits - l)
		run := h.table[first[l] : first[l]+span]
		for j := range run {
			run[j] = uint16(v)<<8 | uint16(l)
		}
		first[l] += span
	}
}

// decode fills dst from the stream src under the table setTable built. The
// stream must hold exactly len(dst) code words and end inside its last byte.
//
//machlint:allocfree
//machlint:noalias dst,src
func (h *huffCoder) decode(dst, src []byte) error {
	var acc uint64 // unread stream bits, next one at the top
	var nbits uint // how many of them are accounted to pos
	pos, i := 0, 0
	for ; i+4 <= len(dst) && pos+8 <= len(src); i += 4 {
		acc |= binary.BigEndian.Uint64(src[pos:]) >> (nbits & 63)
		pos += int(63-nbits) >> 3
		nbits |= 56
		d := dst[i : i+4 : i+4]
		e := h.table[acc>>(64-huffMaxBits)]
		d[0] = byte(e >> 8)
		acc <<= e & 63
		nbits -= uint(e & 63)
		e = h.table[acc>>(64-huffMaxBits)]
		d[1] = byte(e >> 8)
		acc <<= e & 63
		nbits -= uint(e & 63)
		e = h.table[acc>>(64-huffMaxBits)]
		d[2] = byte(e >> 8)
		acc <<= e & 63
		nbits -= uint(e & 63)
		e = h.table[acc>>(64-huffMaxBits)]
		d[3] = byte(e >> 8)
		acc <<= e & 63
		nbits -= uint(e & 63)
	}
	for ; i < len(dst); i++ {
		for nbits <= 56 && pos < len(src) {
			acc |= uint64(src[pos]) << (56 - nbits)
			pos++
			nbits += 8
		}
		e := h.table[acc>>(64-huffMaxBits)]
		l := uint(e & 63)
		if l > nbits {
			return errHuffTruncated
		}
		dst[i] = byte(e >> 8)
		acc <<= l
		nbits -= l
	}
	if pos != len(src) || nbits >= 8 {
		return errHuffTooLong
	}
	return nil
}
