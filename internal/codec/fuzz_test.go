package codec

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzDecode from fuzzSeeds")

// fuzzBaseline is the vector FuzzDecode supplies when its input asks for a
// baseline: deterministic, so a corpus entry needs to carry only its length.
func fuzzBaseline(n int) []float64 {
	base := make([]float64, n)
	for i := range base {
		base[i] = 0.25 * float64(i%97-48)
	}
	return base
}

// fuzzSeed is one FuzzDecode input: a blob and whether to decode it against
// fuzzBaseline(Count).
type fuzzSeed struct {
	blob     Blob
	withBase bool
}

// fuzzSeeds builds the committed seed corpus: for every scheme a payload in
// every plane mode the scheme can produce, with and without a baseline, plus
// the malformed shapes the unpacker must reject.
func fuzzSeeds(t testing.TB) map[string]fuzzSeed {
	t.Helper()
	const n = 96
	base := fuzzBaseline(n)
	vectors := map[string][]float64{
		"const":  make([]float64, n),  // every plane constant
		"noise":  make([]float64, n),  // low planes stored, high planes huff
		"sparse": make([]float64, n),  // against the baseline: a few values per plane, huff
		"runs":   fuzzBaseline(4 * n), // against the baseline: two long runs of zeros, huff at its one-bit floor
	}
	for i := range base {
		vectors["const"][i] = 1.5
		vectors["noise"][i] = math.Float64frombits(0x3FB0000000000000 | uint64(i)*0x9E3779B97F4A7C15>>12)
		vectors["sparse"][i] = base[i]
		if i%31 == 0 {
			vectors["sparse"][i] += 1e-3
		}
	}
	vectors["runs"][n] += 1e-3
	seeds := map[string]fuzzSeed{}
	for _, scheme := range Schemes() {
		for name, v := range vectors {
			for _, withBase := range []bool{false, true} {
				if withBase && scheme == SchemeRaw {
					continue // raw carries no baseline
				}
				var bl []float64
				var id uint64
				if withBase {
					bl, id = fuzzBaseline(len(v)), 1
				}
				blob, err := Encode(scheme, v, bl, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				seeds[fmt.Sprintf("%v-%s-base%v", scheme, name, withBase)] = fuzzSeed{blob, withBase}
			}
		}
	}
	good := seeds["delta-sparse-basetrue"].blob
	mutated := func(count int, f func(d []byte) []byte) fuzzSeed {
		return fuzzSeed{Blob{Scheme: good.Scheme, Baseline: 1, Count: count, Data: f(append([]byte(nil), good.Data...))}, true}
	}
	seeds["bad-unknown-mode"] = mutated(n, func(d []byte) []byte { d[0] = 7; return d })
	seeds["bad-mode-2"] = mutated(n, func(d []byte) []byte { d[0] = 2; return d }) // once DEFLATE
	seeds["bad-truncated"] = mutated(n, func(d []byte) []byte { return d[:len(d)/2] })
	seeds["bad-trailing"] = mutated(n, func(d []byte) []byte { return append(d, 0, 0) })
	seeds["bad-count-short"] = mutated(n-1, func(d []byte) []byte { return d })
	seeds["bad-count-long"] = mutated(n+1, func(d []byte) []byte { return d })
	seeds["bad-count-negative"] = mutated(-1, func(d []byte) []byte { return d })
	seeds["bad-stream-length"] = mutated(n, func(d []byte) []byte {
		return append([]byte{modeHuff, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, d...)
	})
	// int8 range headers the encoder never writes: inverted, and NaN.
	int8Header := func(lo, hi float64) fuzzSeed {
		b := seeds["int8-noise-basefalse"].blob
		d := append([]byte(nil), b.Data...)
		binary.LittleEndian.PutUint64(d[0:], math.Float64bits(lo))
		binary.LittleEndian.PutUint64(d[8:], math.Float64bits(hi))
		return fuzzSeed{Blob{Scheme: SchemeInt8, Count: b.Count, Data: d}, false}
	}
	seeds["bad-int8-inverted-range"] = int8Header(1, -1)
	seeds["bad-int8-nan-range"] = int8Header(math.NaN(), 1)
	// Hand-built huff bodies: two one-bit codes over n/8 stream bytes, then
	// the ways the lengths and the stream can be wrong.
	pair, bits := []byte{2, 0, 1, 0x11}, make([]byte, n/8)
	seeds["huff-hand-built"] = fuzzSeed{huffBlob(n, pair, bits), false}
	seeds["bad-huff-oversubscribed"] = fuzzSeed{huffBlob(n, []byte{3, 0, 1, 2, 0x11, 0x01}, bits), false}
	seeds["bad-huff-13-bit-length"] = fuzzSeed{huffBlob(n, []byte{2, 0, 1, 0xD1}, bits), false}
	seeds["bad-huff-incomplete"] = fuzzSeed{huffBlob(n, []byte{2, 0, 1, 0x21}, bits), false}
	seeds["bad-huff-empty-array"] = fuzzSeed{huffBlob(n, make([]byte, 129), bits), false}
	seeds["bad-huff-truncated"] = fuzzSeed{huffBlob(n, pair, bits[:n/8-1]), false}
	seeds["bad-huff-long-stream"] = fuzzSeed{huffBlob(n, pair, append(bits, 0)), false}
	seeds["const-large-count"] = fuzzSeed{Blob{Scheme: SchemeDelta, Count: 1 << 13, Data: make([]byte, 16)}, false}
	seeds["bad-scheme"] = fuzzSeed{Blob{Scheme: Scheme(200), Count: n, Data: good.Data}, false}
	return seeds
}

func (s fuzzSeed) corpusFile() string {
	return fmt.Sprintf("go test fuzz v1\nbyte(%q)\nint(%d)\nbool(%v)\n[]byte(%q)\n",
		uint8(s.blob.Scheme), s.blob.Count, s.withBase, s.blob.Data)
}

// TestFuzzCorpusIsCurrent keeps the committed seed corpus equal to what
// fuzzSeeds builds from the current encoder, so a payload-format change
// cannot leave the fuzzer starting from stale shapes, and checks the encoder's
// seeds reach every plane mode under every plane-coded scheme. Regenerate with
// `go test ./internal/codec -run TestFuzzCorpusIsCurrent -update-corpus`.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	seeds := fuzzSeeds(t)
	seen := map[Scheme]map[byte]bool{SchemeDelta: {}, SchemeFloat32: {}, SchemeInt8: {}}
	for name, s := range seeds {
		if modes := seen[s.blob.Scheme]; modes != nil && strings.HasPrefix(name, s.blob.Scheme.String()) {
			for _, m := range schemePlaneModes(t, s.blob) {
				modes[m] = true
			}
		}
	}
	for scheme, modes := range seen {
		for _, m := range []byte{modeConst, modeStored, modeHuff} {
			if !modes[m] {
				t.Errorf("no %v seed has a plane in mode %d", scheme, m)
			}
		}
	}
	if *updateCorpus {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, s := range seeds {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(s.corpusFile()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, e := range entries {
		have = append(have, e.Name())
		s, ok := seeds[e.Name()]
		if !ok {
			continue // a crasher `go test -fuzz` saved here stays as a regression input
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != s.corpusFile() {
			t.Errorf("corpus file %s is stale; rerun with -update-corpus", e.Name())
		}
	}
	sort.Strings(have)
	for name := range seeds {
		if i := sort.SearchStrings(have, name); i == len(have) || have[i] != name {
			t.Errorf("corpus file %s is missing; rerun with -update-corpus", name)
		}
	}
}

// FuzzDecode feeds Decode hostile blobs. Whatever the bytes: no panic; heap
// growth bounded by a constant plus the 8·Count output and the 9·Count
// scratch, never by what the payload claims; a blob that decodes has Count
// parameters, and under the lossless scheme survives a re-encode bit for bit.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, scheme uint8, count int, withBase bool, data []byte) {
		if count > 1<<14 {
			count %= 1 << 14 // keep honest large vectors cheap; fed rejects foreign counts before Decode
		}
		blob := Blob{Scheme: Scheme(scheme), Count: count, Data: data}
		var baseline []float64
		if withBase && count >= 0 {
			blob.Baseline, baseline = 1, fuzzBaseline(count)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := Decode(blob, baseline)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(17*max(count, 0)+1<<18); grew > limit {
			t.Fatalf("Decode allocated %d bytes for count %d (limit %d)", grew, count, limit)
		}
		if err != nil {
			return
		}
		if len(out) != count {
			t.Fatalf("decoded %d params, blob count %d", len(out), count)
		}
		if blob.Scheme != SchemeDelta {
			return
		}
		again, err := Encode(SchemeDelta, out, baseline, blob.Baseline, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(again, baseline)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, back, out, "re-encode")
	})
}
