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
	modeHuff           // body: uvarint length, then code lengths and the Huffman stream (huff.go)
)

// scratch is the pooled working memory of one Encode or Decode call. The
// flate writer (~650 KB) and reader are created on first use and Reset
// afterwards, never built per call.
type scratch struct {
	words  []uint64       // Encode: XORed bit patterns, one per parameter
	planes []byte         // Encode: all eight planes of words; Decode: the entropy-coded planes, decoded
	hist   [8][256]uint32 // Encode: byte counts per plane
	src    [8][]byte      // Decode: where each plane's bytes are — payload, planes or zero
	fixed  uint64         // Decode: the const planes' bytes, in place
	zero   []byte         // Decode: stands in for const and absent planes; never written
	out    []byte         // payload under construction
	huff   huffCoder
	fast   appendWriter // the current plane's DEFLATE body
	fw     *flate.Writer
	br     bytes.Reader
	fr     io.ReadCloser // flate reader over br; implements flate.Resetter
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// appendWriter is the io.Writer the pooled flate writer emits into.
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
// byte planes of the words (none for an empty vector). One sweep over the
// words cuts all planes and counts their bytes, and the counts pick each
// plane's mode. One distinct byte is const. A plane whose collision entropy
// −log2 Σp² is within 1/17 of eight bits is stored unpriced — its Shannon
// entropy is no lower, and that is the bound at which the flate writer this
// stage once ran gave up and stored. Every other plane is priced exactly under
// its Huffman code; where one byte value is most of the plane and the order-0
// information is under half a bit per byte — half of Huffman's floor: on fed
// traffic a match search wins only below 0.4, and bare sign planes sit a
// hair under the floor itself — the BestSpeed writer runs too; and the
// smallest of those and the stored plane wins.
//
//machlint:allocfree
func (s *scratch) pack(scheme Scheme, baseID uint64, header []byte, width int) (Blob, error) {
	n := len(s.words)
	if n == 0 {
		width = 0
	}
	s.planes = grow(s.planes, 8*n)
	s.cut()
	if most := len(header) + width*(1+n) + 8; cap(s.out) < most { // +8: huff's flush slack
		s.out = make([]byte, 0, most)
	}
	s.out = append(s.out[:0], header...)
	for p := 0; p < width; p++ {
		plane, hist := s.planes[p*n:(p+1)*n], &s.hist[p]
		var top uint32
		var squares float64
		for _, c := range hist {
			top = max(top, c)
			squares += float64(c) * float64(c)
		}
		if int(top) == n {
			s.out = append(s.out, modeConst, plane[0])
			continue
		}
		if 185*squares > float64(n)*float64(n) { // Σp² > 2^(−8·16/17)
			mode, size := byte(modeHuff), s.huff.build(hist)
			if 2*int(top) > n && 2*information(hist, n) < float64(n) {
				if err := s.deflate(plane); err != nil {
					return Blob{}, err
				}
				if len(s.fast) < size {
					mode, size = modeDeflate, len(s.fast)
				}
			}
			var prefix [binary.MaxVarintLen64]byte
			if k := binary.PutUvarint(prefix[:], uint64(size)); k+size < n {
				s.out = append(append(s.out, mode), prefix[:k]...)
				if mode == modeDeflate {
					s.out = append(s.out, s.fast...)
				} else {
					at := len(s.out)
					s.huff.encode(s.out[at:at+size+8], plane)
					s.out = s.out[:at+size]
				}
				continue
			}
		}
		s.out = append(append(s.out, modeStored), plane...)
	}
	return Blob{Scheme: scheme, Baseline: baseID, Count: n, Data: append([]byte(nil), s.out...)}, nil
}

// cut transposes s.words into s.planes, plane p at [p·n, (p+1)·n), and counts
// every plane's bytes into s.hist.
//
//machlint:allocfree
func (s *scratch) cut() {
	n := len(s.words)
	b, h := s.planes, &s.hist
	*h = [8][256]uint32{}
	p0, p1, p2, p3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	p4, p5, p6, p7 := b[4*n:5*n], b[5*n:6*n], b[6*n:7*n], b[7*n:8*n]
	for i, u := range s.words {
		v0, v1, v2, v3 := byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		v4, v5, v6, v7 := byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56)
		p0[i], p1[i], p2[i], p3[i] = v0, v1, v2, v3
		p4[i], p5[i], p6[i], p7[i] = v4, v5, v6, v7
		h[0][v0]++
		h[1][v1]++
		h[2][v2]++
		h[3][v3]++
		h[4][v4]++
		h[5][v5]++
		h[6][v6]++
		h[7][v7]++
	}
}

// information is the order-0 information, in bits, of a plane of n bytes
// counted in hist: Σ c·log2(n/c).
func information(hist *[256]uint32, n int) (bits float64) {
	for _, c := range hist {
		if c != 0 {
			bits += float64(c) * math.Log2(float64(n)/float64(c))
		}
	}
	return bits
}

// deflate compresses plane into s.fast through the pooled BestSpeed writer.
func (s *scratch) deflate(plane []byte) (err error) {
	s.fast = s.fast[:0]
	if s.fw == nil {
		if s.fw, err = flate.NewWriter(nil, flate.BestSpeed); err != nil {
			return fmt.Errorf("codec: deflate init: %w", err)
		}
	}
	s.fw.Reset(&s.fast)
	if _, err = s.fw.Write(plane); err == nil {
		err = s.fw.Close()
	}
	if err != nil {
		return fmt.Errorf("codec: deflate: %w", err)
	}
	return nil
}

// unpack parses width planes of n bytes (none when n is 0) out of data, the
// inverse of pack's plane directory: afterwards s.src[p][:n] is plane p, with
// the const planes' bytes gathered in s.fixed and s.zero standing in for them.
// The whole directory is validated — known modes, no truncated plane, a
// complete length-capped code ahead of every Huffman stream, no trailing
// bytes — before anything is allocated or decoded, and every coded stream must
// yield exactly n bytes and end with its declared length, so hostile input
// costs at most 9·n bytes of scratch.
//
//machlint:allocfree
func (s *scratch) unpack(data []byte, width, n int) error {
	if n == 0 {
		width = 0
	}
	var modes [8]byte
	var bodies [8][]byte
	coded := 0
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
		case modeDeflate, modeHuff:
			var k int
			if size, k = binary.Uvarint(data); k <= 0 {
				return fmt.Errorf("codec: plane %d: bad stream length", p)
			}
			data = data[k:]
			coded++
		default:
			return fmt.Errorf("codec: plane %d: unknown mode %d", p, modes[p])
		}
		if size > uint64(len(data)) {
			return fmt.Errorf("codec: plane %d truncated: %d of %d bytes", p, len(data), size)
		}
		bodies[p], data = data[:size], data[size:]
		if modes[p] == modeHuff {
			if _, err := s.huff.readLengths(bodies[p]); err != nil {
				return fmt.Errorf("codec: plane %d: %w", p, err)
			}
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("codec: %d trailing payload bytes", len(data))
	}

	s.planes = grow(s.planes, coded*n)
	s.zero = grow(s.zero, n)
	s.fixed = 0
	for p := range s.src {
		s.src[p] = s.zero
	}
	for p := 0; p < width; p++ {
		switch modes[p] {
		case modeConst:
			s.fixed |= uint64(bodies[p][0]) << (8 * p)
		case modeStored:
			s.src[p] = bodies[p]
		default:
			coded--
			s.src[p] = s.planes[coded*n : (coded+1)*n]
			var err error
			if modes[p] == modeDeflate {
				err = s.inflate(s.src[p], bodies[p])
			} else {
				var at int // the directory pass checked these lengths; the one coder holds a plane's at a time
				if at, err = s.huff.readLengths(bodies[p]); err == nil {
					s.huff.setTable()
					err = s.huff.decode(s.src[p], bodies[p][at:])
				}
			}
			if err != nil {
				return fmt.Errorf("codec: plane %d: %w", p, err)
			}
		}
	}
	return nil
}

// join writes into out the float64s whose bit patterns are the words of the
// eight unpacked planes XORed with baseline's (nil: none) — the one sweep that
// undoes cut.
//
//machlint:allocfree
//machlint:noalias out,baseline
func (s *scratch) join(out, baseline []float64) {
	n, fixed := len(out), s.fixed
	p0, p1, p2, p3 := s.src[0][:n], s.src[1][:n], s.src[2][:n], s.src[3][:n]
	p4, p5, p6, p7 := s.src[4][:n], s.src[5][:n], s.src[6][:n], s.src[7][:n]
	for i := range out {
		u := fixed | uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
			uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56
		if baseline != nil {
			u ^= math.Float64bits(baseline[i])
		}
		out[i] = math.Float64frombits(u)
	}
}

// word32 is the i-th word of the four low unpacked planes.
func (s *scratch) word32(i int) uint32 {
	return uint32(s.fixed) | uint32(s.src[0][i]) | uint32(s.src[1][i])<<8 | uint32(s.src[2][i])<<16 | uint32(s.src[3][i])<<24
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
