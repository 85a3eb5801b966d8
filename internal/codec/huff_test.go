package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// flateHuffman is the coder the huff mode replaced — compress/flate's
// Huffman-only writer — kept as its size oracle.
func flateHuffman(t testing.TB, plane []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.HuffmanOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(plane); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// planesOf cuts a transfer's XORed words into its eight byte planes.
func planesOf(tr transfer) [8][]byte {
	var planes [8][]byte
	for p := range planes {
		planes[p] = make([]byte, len(tr.params))
	}
	for i, v := range tr.params {
		u := math.Float64bits(v)
		if tr.baseline != nil {
			u ^= math.Float64bits(tr.baseline[i])
		}
		for p := range planes {
			planes[p][i] = byte(u >> (8 * p))
		}
	}
	return planes
}

// skewedPlane draws n bytes from an alphabet of k values spread over the byte
// range, value j with weight ratio^j.
func skewedPlane(rng *rand.Rand, n, k int, ratio float64) []byte {
	cum := make([]float64, k)
	w, sum := 1.0, 0.0
	for j := range cum {
		sum += w
		cum[j] = sum
		w *= ratio
	}
	plane := make([]byte, n)
	for i := range plane {
		x, j := rng.Float64()*sum, 0
		for cum[j] < x {
			j++
		}
		plane[i] = byte(j * 255 / max(k-1, 1))
	}
	return plane
}

// huffRoundtrip codes plane with a fresh coder, checks the code is a complete
// prefix code under the length cap and that a second coder decodes the body
// back, and returns the body.
func huffRoundtrip(t testing.TB, label string, plane []byte) []byte {
	t.Helper()
	var hist [256]uint32
	for _, v := range plane {
		hist[v]++
	}
	enc := new(huffCoder)
	size := enc.build(&hist)
	if _, total := enc.slots(); total != huffTableSize {
		t.Fatalf("%s: code lengths claim %d of %d table slots", label, total, huffTableSize)
	}
	for v, l := range enc.lens {
		if l > huffMaxBits || (l == 0) != (hist[v] == 0) {
			t.Fatalf("%s: value %#x counted %d times has length %d", label, v, hist[v], l)
		}
	}
	body := make([]byte, size+8)
	enc.encode(body, plane)
	body = body[:size]

	dec := new(huffCoder)
	at, err := dec.readLengths(body)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	dec.setTable()
	got := make([]byte, len(plane))
	if err := dec.decode(got, body[at:]); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got, plane) {
		t.Fatalf("%s: decoded plane differs", label)
	}
	return body
}

// huffHeaderSlack is how far a huff plane may exceed the flate.HuffmanOnly
// stream of the same bytes. The code words never do: both are minimum-
// redundancy codes, and the 12-bit cap (flate's is 15) costs under 6 bytes on
// any plane here. The allowance is the code-length header: flate run-length
// and Huffman-codes its lengths — 79–106 bytes on the 180–256-value planes of
// fed traffic, 70 on a smooth synthetic alphabet — where the nibble array is
// a flat 129; on planes of a few values the list form is the smaller by 12.
const huffHeaderSlack = 64

// TestHuffPlaneNoLargerThanFlateHuffman: over every plane of the fed traffic
// and synthetic alphabets of 2…256 values from uniform to steeply skewed, the
// huff body decodes back, its lengths satisfy Kraft equality under the 12-bit
// cap, and the plane costs within a header's difference of the
// flate.HuffmanOnly stream; round trips also hold at the sizes around the
// coder's strides.
func TestHuffPlaneNoLargerThanFlateHuffman(t *testing.T) {
	sizes := map[string][2]int{}
	check := func(class, label string, plane []byte) {
		body, oracle := huffRoundtrip(t, label, plane), flateHuffman(t, plane)
		cost := min(len(body), len(plane)) // pack stores a plane its code does not shrink, as flate does
		if cost > len(oracle)+huffHeaderSlack {
			t.Errorf("%s: huff plane %d bytes, flate.HuffmanOnly %d", label, cost, len(oracle))
		}
		s := sizes[class]
		sizes[class] = [2]int{s[0] + cost, s[1] + len(oracle)}
	}
	for r, tr := range fedTraffic(t, 5) {
		for p, plane := range planesOf(tr) {
			if bytes.Count(plane, plane[:1]) != len(plane) { // const planes have no code
				check(tr.class, fmt.Sprintf("%s %d plane %d", tr.class, r, p), plane)
			}
		}
	}
	rng := rand.New(rand.NewSource(33))
	for _, k := range []int{2, 3, 5, 16, 17, 85, 86, 200, 256} {
		for _, ratio := range []float64{1, 0.98, 0.9, 0.6, 0.3} {
			check("synthetic", fmt.Sprintf("k=%d ratio=%v", k, ratio), skewedPlane(rng, 8554, k, ratio))
		}
	}
	for _, class := range []string{"model", "sum", "delta", "synthetic"} {
		t.Logf("%-9s huff %7d B   flate.HuffmanOnly %7d B", class, sizes[class][0], sizes[class][1])
	}
	// A plane of one byte is const, so the coder's smallest plane has two.
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 2410, 8554, 18346} {
		for _, k := range []int{2, 7, 256} {
			plane := skewedPlane(rng, n, k, 0.9)
			plane[0], plane[n-1] = 0, 255 // at least two values at any n
			huffRoundtrip(t, fmt.Sprintf("n=%d k=%d", n, k), plane)
		}
	}
}

// TestHuffLengthCap drives build past the cap — Fibonacci counts make the
// deepest possible tree — and checks the repaired code is still complete and
// still gives the rarer value the longer code.
func TestHuffLengthCap(t *testing.T) {
	var plane []byte
	a, b := 1, 1
	for v := 0; v < 20; v++ {
		plane = append(plane, bytes.Repeat([]byte{byte(v)}, a)...)
		a, b = b, a+b
	}
	huffRoundtrip(t, "fibonacci", plane)
	var hist [256]uint32
	for _, v := range plane {
		hist[v]++
	}
	h := new(huffCoder)
	h.build(&hist)
	if h.lens[0] != huffMaxBits {
		t.Fatalf("rarest value has length %d, want the cap", h.lens[0])
	}
	for v := 1; v < 20; v++ {
		if h.lens[v] > h.lens[v-1] {
			t.Fatalf("value %d (more frequent) has length %d > %d", v, h.lens[v], h.lens[v-1])
		}
	}
}
