package bench

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/hfl"
)

// TestOneHostClusterIsTheEngine is in-process ≡ distributed for a config
// (DESIGN.md §6): on one device host, Config.Cluster runs hfl.Engine on the
// config's run 0 — the same world, HFLConfig(0), MACH — with
// Float64bits-identical evaluation history and final global, under both
// lossless schemes.
func TestOneHostClusterIsTheEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback deployments are not short")
	}
	cfg := CommBenchPreset()
	cfg.Steps = 15
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := cfg.NewStrategy(StratMACH)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hfl.New(cfg.HFLConfig(0), cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []codec.Scheme{codec.SchemeRaw, codec.SchemeDelta} {
		t.Run(scheme.String(), func(t *testing.T) {
			env, err := cfg.BuildEnvironment(0)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := cfg.Cluster(env, 1, scheme)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := cl.Run()
			global := cl.GlobalParams()
			if cerr := cl.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if hist.Len() != cfg.Steps/cfg.EvalEvery {
				t.Fatalf("%d evaluations over %d steps", hist.Len(), cfg.Steps)
			}
			if !bitIdentical(res.History, hist, eng.GlobalParams(), global) {
				t.Fatalf("cluster ends at accuracy %v, the engine at %v, or their bits differ",
					hist.FinalAccuracy(), res.History.FinalAccuracy())
			}
		})
	}
}

// TestDeploymentRefusesWhatFedCannotRun: fed folds under AggPlain on the f64
// lane, so every role constructor refuses another Aggregation or Lane with an
// error that names the field, before it builds or dials anything.
func TestDeploymentRefusesWhatFedCannotRun(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"Aggregation", func(c *Config) { c.Aggregation = hfl.AggInverseUpdate }},
		{"Lane", func(c *Config) { c.Lane = "f32" }},
	} {
		cfg := CommBenchPreset()
		tc.edit(&cfg)
		env, err := cfg.BuildEnvironment(0)
		if err != nil {
			t.Fatal(err)
		}
		addrs := []string{"127.0.0.1:1"}
		roles := map[string]error{}
		_, roles["DeviceHost"] = cfg.DeviceHost(env, 0, 1)
		_, roles["Edge"] = cfg.Edge(0, addrs)
		_, roles["Cloud"] = cfg.Cloud(env, codec.SchemeDelta, addrs, addrs)
		_, roles["Cluster"] = cfg.Cluster(env, 1, codec.SchemeDelta)
		for role, err := range roles {
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s with %s edited: error %v, want one naming %s", role, tc.field, err, tc.field)
			}
		}
	}
}

// TestHostTablePartitionsDevices pins the device→host map every edge
// resolves through: device m of D lives on host ⌊((m+1)·H − 1)/D⌋, the host
// whose range [h·D/H, (h+1)·D/H) holds it, and on no other.
func TestHostTablePartitionsDevices(t *testing.T) {
	for _, dh := range [][2]int{{20, 1}, {20, 2}, {20, 3}, {30, 4}, {7, 3}, {100, 7}, {5, 5}} {
		cfg := CommBenchPreset()
		cfg.Devices = dh[0]
		devices, hosts := dh[0], dh[1]
		addrs := make([]string, hosts)
		for h := range addrs {
			addrs[h] = fmt.Sprintf("host%d", h)
		}
		table := cfg.hostTable(addrs)
		if len(table) != devices {
			t.Fatalf("D=%d H=%d: %d devices resolve, want %d", devices, hosts, len(table), devices)
		}
		for m := 0; m < devices; m++ {
			want := ((m+1)*hosts - 1) / devices
			if table[m] != addrs[want] {
				t.Fatalf("D=%d H=%d: device %d resolves to %s, want %s", devices, hosts, m, table[m], addrs[want])
			}
			on := 0
			for h := range hosts {
				if lo, hi := cfg.hostRange(h, hosts); lo <= m && m < hi {
					on++
				}
			}
			if on != 1 {
				t.Fatalf("D=%d H=%d: device %d on %d hosts", devices, hosts, m, on)
			}
		}
	}
	// At D=20, H=3 the rule m·H/D would put device 6 on host 0.
	cfg := CommBenchPreset()
	cfg.Devices = 20
	if got := cfg.hostTable([]string{"a", "b", "c"})[6]; got != "b" {
		t.Fatalf("device 6 of 20 on host %s of 3, want b", got)
	}
}
