package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/tensor"
)

// oracleDelta is the entropy stage the plane packer replaced — the whole
// shuffled buffer through one level-9 DEFLATE stream — kept as the size and
// round-trip oracle of the new one.
func oracleDelta(t testing.TB, params, baseline []float64) []byte {
	t.Helper()
	n := len(params)
	shuffled := make([]byte, 8*n)
	for i, p := range params {
		u := math.Float64bits(p)
		if baseline != nil {
			u ^= math.Float64bits(baseline[i])
		}
		for b := 0; b < 8; b++ {
			shuffled[b*n+i] = byte(u >> (8 * b))
		}
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(shuffled); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleUndelta inverts oracleDelta.
func oracleUndelta(t testing.TB, data []byte, n int, baseline []float64) []float64 {
	t.Helper()
	planes := make([]byte, 8*n)
	if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(data)), planes); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i := range out {
		var u uint64
		for b := 0; b < 8; b++ {
			u |= uint64(planes[b*n+i]) << (8 * b)
		}
		if baseline != nil {
			u ^= math.Float64bits(baseline[i])
		}
		out[i] = math.Float64frombits(u)
	}
	return out
}

// transfer is one model-bearing message of the fed protocol.
type transfer struct {
	class            string
	params, baseline []float64
}

// fedTraffic replays the vectors internal/fed puts on the wire, produced by
// real SGD: an MLP of the fed_loopback shape (16×16 inputs, 32 hidden, 8,554
// parameters) trained for `rounds` edge rounds of five devices × ten local
// steps. Every round contributes the baseline-free base model (Device.SetBase)
// and the devices' update sum (TrainMany reply); the run ends with the global
// delta against the model the cloud distributed first.
func fedTraffic(t testing.TB, rounds int) []transfer {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	task, err := dataset.NewTask(dataset.MNISTLike(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	const devices, localSteps, batch = 5, 10, 8
	data := make([]*dataset.Dataset, devices)
	for m := range data {
		if data[m], err = task.Generate(rng, 64, nil); err != nil {
			t.Fatal(err)
		}
	}
	model := nn.NewMLP("traffic", 256, []int{32}, 10, rng)
	opt := nn.NewSGD(0.05)
	x, y, idx := tensor.New(batch, 1, 16, 16), make([]int, batch), make([]int, batch)

	first := model.ParamVector()
	base := first
	var out []transfer
	for r := 0; r < rounds; r++ {
		out = append(out, transfer{class: "model", params: base})
		sum := make([]float64, len(base))
		for m := 0; m < devices; m++ {
			if err := model.SetParamVector(base); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < localSteps; s++ {
				data[m].RandomBatchInto(rng, x, y, idx)
				model.TrainStep(x, y, opt)
			}
			for j, v := range model.ParamVector() {
				sum[j] += v - base[j]
			}
		}
		out = append(out, transfer{class: "sum", params: sum})
		next := make([]float64, len(base))
		for j := range next {
			next[j] = base[j] + sum[j]/devices
		}
		base = next
	}
	return append(out, transfer{class: "delta", params: base, baseline: first})
}

// TestPayloadNoLargerThanLevel9Oracle: over the fed traffic classes the
// plane-adaptive payloads total no more bytes than the level-9 whole-buffer
// encoder they replaced, and both decode to the same bits.
func TestPayloadNoLargerThanLevel9Oracle(t *testing.T) {
	sizes := map[string][2]int{}
	total := [2]int{}
	for _, tr := range fedTraffic(t, 5) {
		var id uint64
		if tr.baseline != nil {
			id = 1
		}
		blob, err := Encode(SchemeDelta, tr.params, tr.baseline, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob, tr.baseline)
		if err != nil {
			t.Fatal(err)
		}
		old := oracleDelta(t, tr.params, tr.baseline)
		bitsEqual(t, got, oracleUndelta(t, old, len(tr.params), tr.baseline), tr.class)
		bitsEqual(t, got, tr.params, tr.class)
		s := sizes[tr.class]
		sizes[tr.class] = [2]int{s[0] + len(blob.Data), s[1] + len(old)}
		total[0] += len(blob.Data)
		total[1] += len(old)
	}
	for _, class := range []string{"model", "sum", "delta"} {
		t.Logf("%-5s planes %7d B   level-9 %7d B", class, sizes[class][0], sizes[class][1])
	}
	if total[0] > total[1] {
		t.Fatalf("plane payloads total %d bytes, level-9 oracle %d", total[0], total[1])
	}
}
