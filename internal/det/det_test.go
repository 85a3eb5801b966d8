package det

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"edge2": 2, "edge0": 0, "edge1": 1}
	want := []string{"edge0", "edge1", "edge2"}
	for i := 0; i < 10; i++ { // map order is randomized per iteration attempt
		if got := SortedKeys(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
	if got := SortedKeys(map[int]string{}); len(got) != 0 {
		t.Fatalf("SortedKeys on empty map = %v, want empty", got)
	}
	ints := map[int]bool{3: true, -1: true, 2: true}
	if got := SortedKeys(ints); !reflect.DeepEqual(got, []int{-1, 2, 3}) {
		t.Fatalf("SortedKeys(int keys) = %v", got)
	}
}

// TestSeedTableGolden pins every named stream at fixed inputs to the values
// the engine has always seeded with. A changed constant fails here, by name,
// instead of as an opaque drift in some trajectory golden downstream.
func TestSeedTableGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"Mix()", Mix(), 1469598103934665603},
		{"Mix(1,2,3)", Mix(1, 2, 3), -6875869291373882723},
		{"ModelInit(7)", ModelInit(7), 7},
		{"DeviceBatch(1,0)", DeviceBatch(1, 0), -865991750794102729},
		{"DeviceBatch(7,99)", DeviceBatch(7, 99), -3245032548156659004},
		{"EdgeCoin(1,0,0)", EdgeCoin(1, 0, 0), -6872902809001537120},
		{"EdgeCoin(7,57,2)", EdgeCoin(7, 57, 2), -5585343906377875937},
		{"Probe(1,0,0)", Probe(1, 0, 0), -6878976511234639334},
		{"Probe(7,57,99)", Probe(7, 57, 99), -5686972865664989028},
		{"EvalSubsample(1,0)", EvalSubsample(1, 0), -7274315823631441313},
		{"EvalSubsample(7,57)", EvalSubsample(7, 57), -3760860501321001654},
		{"MobilityDevice(1,MARK,0)", MobilityDevice(1, 0x4d41524b, 0), 8990445519054062005},
		{"MobilityDevice(7,LEVY,99)", MobilityDevice(7, 0x4c455659, 99), 267502832330398372},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestSeedStreamsDistinct: no two (stream, key) pairs of a 100-edge ×
// 1,000-device × 100-step run share a seed, so no role's draws replay
// another's. The additive recipes internal/fed used before the table did
// collide: seed+11 + step·1009 + edge (coins) met seed+100+host + device·311
// (minibatches) at step 1, edge 13+host, device 3.
func TestSeedStreamsDistinct(t *testing.T) {
	const edges, devices, steps = 100, 1000, 100
	type key struct {
		stream string
		a, b   int64
	}
	for _, run := range []int64{1, 7} {
		seen := make(map[int64]key, steps*(devices+edges)+4*devices)
		add := func(seed int64, k key) {
			if prev, dup := seen[seed]; dup {
				t.Fatalf("run %d: %v and %v share seed %d", run, prev, k, seed)
			}
			seen[seed] = k
		}
		add(ModelInit(run), key{stream: "ModelInit"})
		for m := 0; m < devices; m++ {
			add(DeviceBatch(run, m), key{"DeviceBatch", int64(m), 0})
			for _, model := range []int64{0x4d41524b, 0x57415950, 0x4c455659} {
				add(MobilityDevice(run, model, m), key{"MobilityDevice", model, int64(m)})
			}
		}
		for s := 0; s < steps; s++ {
			add(EvalSubsample(run, s), key{"EvalSubsample", int64(s), 0})
			for n := 0; n < edges; n++ {
				add(EdgeCoin(run, s, n), key{"EdgeCoin", int64(s), int64(n)})
			}
			for m := 0; m < devices; m++ {
				add(Probe(run, s, m), key{"Probe", int64(s), int64(m)})
			}
		}
	}
}
