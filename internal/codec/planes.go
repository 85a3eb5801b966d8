package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// This file is the codec's entropy stage (DESIGN.md §6). The XORed words are
// cut into byte planes — all lowest bytes first, all highest bytes last — and
// every plane is packed on its own, because the planes of a float vector have
// nothing in common: agreeing sign/exponent/mantissa-prefix bits leave the
// high planes constant or nearly so, while the low mantissa planes are noise
// no compressor shrinks. A payload is the planes in order, each a mode byte
// followed by its body.
const (
	modeConst   = iota // one distinct byte; body: that byte
	modeStored         // incompressible; body: the plane verbatim
	modeDeflate        // body: uvarint stream length, then a DEFLATE stream of the plane
)

// scratch is the pooled working memory of one Encode or Decode call. The
// flate writers (~650 KB each) and the reader are created on first use and
// Reset afterwards, never built per call.
type scratch struct {
	words      []uint64     // XORed bit patterns, one per parameter
	plane      []byte       // the plane being packed or inflated
	out        appendWriter // payload under construction
	huff, fast appendWriter // candidate DEFLATE bodies of the current plane
	hw, fw     *flate.Writer
	br         bytes.Reader
	fr         io.ReadCloser // flate reader over br; implements flate.Resetter
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// appendWriter is the io.Writer the pooled flate writers emit into.
type appendWriter []byte

func (w *appendWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// grow returns b resliced to n elements, reallocating only when it is too small.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// pack builds the blob of s.words: its payload is header, then the low width
// byte planes of the words (none for an empty vector). One pass per plane
// gathers and histograms its bytes, and the histogram picks the mode: one
// distinct byte is const; a plane whose order-0 information is within 1/17 of
// its length is stored untried (the bound under which flate's Huffman block
// writer itself gives up and stores); the rest go through the Huffman-only
// writer, planes under two bits per byte (sparse changes, runs) through the
// match-searching BestSpeed writer too, and the smallest of those and the
// stored plane wins.
//
//machlint:allocfree
func (s *scratch) pack(scheme Scheme, baseID uint64, header []byte, width int) (Blob, error) {
	s.out = append(s.out[:0], header...)
	if len(s.words) == 0 {
		width = 0
	}
	n := float64(len(s.words))
	s.plane = grow(s.plane, len(s.words))
	plane := s.plane
	for p := 0; p < width; p++ {
		var hist [256]uint32
		for i, u := range s.words {
			v := byte(u >> (8 * p))
			plane[i] = v
			hist[v]++
		}
		if hist[plane[0]] == uint32(len(plane)) {
			s.out = append(s.out, modeConst, plane[0])
			continue
		}
		var info float64 // Σ c·log2(n/c) bits
		for _, c := range hist {
			if c != 0 {
				info += float64(c) * math.Log2(n/float64(c))
			}
		}
		if 17*info < 16*8*n {
			if err := deflate(&s.hw, flate.HuffmanOnly, &s.huff, plane); err != nil {
				return Blob{}, err
			}
			body := s.huff
			if info < 2*n {
				if err := deflate(&s.fw, flate.BestSpeed, &s.fast, plane); err != nil {
					return Blob{}, err
				}
				if len(s.fast) < len(body) {
					body = s.fast
				}
			}
			var size [binary.MaxVarintLen64]byte
			if k := binary.PutUvarint(size[:], uint64(len(body))); k+len(body) < len(plane) {
				s.out = append(append(append(s.out, modeDeflate), size[:k]...), body...)
				continue
			}
		}
		s.out = append(append(s.out, modeStored), plane...)
	}
	return Blob{Scheme: scheme, Baseline: baseID, Count: len(s.words), Data: append([]byte(nil), s.out...)}, nil
}

// deflate compresses plane into dst through the pooled writer *w, created at
// the given level on first use.
func deflate(w **flate.Writer, level int, dst *appendWriter, plane []byte) (err error) {
	*dst = (*dst)[:0]
	if *w == nil {
		if *w, err = flate.NewWriter(nil, level); err != nil {
			return fmt.Errorf("codec: deflate init: %w", err)
		}
	}
	(*w).Reset(dst)
	if _, err = (*w).Write(plane); err == nil {
		err = (*w).Close()
	}
	if err != nil {
		return fmt.Errorf("codec: deflate: %w", err)
	}
	return nil
}

// unpack parses width planes of n bytes (none when n is 0) out of data into
// s.words, the inverse of pack. The whole plane directory is validated — known modes, no truncated
// plane, no trailing bytes — before anything is allocated or inflated, and
// every DEFLATE stream must yield exactly n bytes and end with its declared
// length, so hostile input costs at most the 9·n bytes of scratch.
//
//machlint:allocfree
func (s *scratch) unpack(data []byte, width, n int) error {
	if n == 0 {
		width = 0
	}
	var modes [8]byte
	var bodies [8][]byte
	for p := 0; p < width; p++ {
		if len(data) == 0 {
			return fmt.Errorf("codec: payload ends before plane %d", p)
		}
		modes[p] = data[0]
		data = data[1:]
		size := uint64(1)
		switch modes[p] {
		case modeConst:
		case modeStored:
			size = uint64(n)
		case modeDeflate:
			var k int
			if size, k = binary.Uvarint(data); k <= 0 {
				return fmt.Errorf("codec: plane %d: bad stream length", p)
			}
			data = data[k:]
		default:
			return fmt.Errorf("codec: plane %d: unknown mode %d", p, modes[p])
		}
		if size > uint64(len(data)) {
			return fmt.Errorf("codec: plane %d truncated: %d of %d bytes", p, len(data), size)
		}
		bodies[p], data = data[:size], data[size:]
	}
	if len(data) != 0 {
		return fmt.Errorf("codec: %d trailing payload bytes", len(data))
	}

	s.words = grow(s.words, n)
	words := s.words
	clear(words)
	for p := 0; p < width; p++ {
		src := bodies[p]
		switch modes[p] {
		case modeConst:
			if c := uint64(src[0]) << (8 * p); c != 0 {
				for i := range words {
					words[i] |= c
				}
			}
			continue
		case modeDeflate:
			s.plane = grow(s.plane, n)
			if err := s.inflate(s.plane, src); err != nil {
				return fmt.Errorf("codec: plane %d: %w", p, err)
			}
			src = s.plane
		}
		for i, v := range src {
			words[i] |= uint64(v) << (8 * p)
		}
	}
	return nil
}

// inflate decodes, through the pooled reader, one DEFLATE stream that must
// fill dst exactly and span the whole of src.
//
//machlint:noalias dst,src
func (s *scratch) inflate(dst, src []byte) error {
	s.br.Reset(src)
	if s.fr == nil {
		s.fr = flate.NewReader(&s.br)
	} else if err := s.fr.(flate.Resetter).Reset(&s.br, nil); err != nil {
		return fmt.Errorf("inflate reset: %w", err)
	}
	if _, err := io.ReadFull(s.fr, dst); err != nil {
		return fmt.Errorf("inflate %d bytes: %w", len(dst), err)
	}
	var tail [1]byte
	if k, err := s.fr.Read(tail[:]); k != 0 || err != io.EOF || s.br.Len() != 0 {
		return fmt.Errorf("stream longer than the declared %d bytes", len(dst))
	}
	return nil
}
