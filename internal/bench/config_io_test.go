package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := TaskPreset(TaskFMNIST, ScaleCI)
	cfg.Seed = 42
	cfg.MACH.Alpha = 1.7

	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path, TaskPreset(TaskMNIST, ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != TaskFMNIST || got.Seed != 42 || got.MACH.Alpha != 1.7 {
		t.Fatalf("round-trip lost fields: %+v", got)
	}
	if got.Steps != cfg.Steps {
		t.Fatalf("steps %d, want %d", got.Steps, cfg.Steps)
	}
}

func TestReadConfigLayersOverBase(t *testing.T) {
	base := TaskPreset(TaskMNIST, ScaleCI)
	got, err := ReadConfig(strings.NewReader(`{"Seed": 9, "Devices": 12}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 9 || got.Devices != 12 {
		t.Fatalf("overrides not applied: %+v", got)
	}
	if got.Edges != base.Edges || got.Task != base.Task {
		t.Fatal("base fields lost")
	}
}

func TestReadConfigRejectsUnknownAndInvalid(t *testing.T) {
	base := TaskPreset(TaskMNIST, ScaleCI)
	if _, err := ReadConfig(strings.NewReader(`{"NoSuchField": 1}`), base); err == nil {
		t.Fatal("expected unknown-field error")
	}
	if _, err := ReadConfig(strings.NewReader(`{"Edges": 0}`), base); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := ReadConfig(strings.NewReader(`{"Lane": "f33"}`), base); err == nil || !strings.Contains(err.Error(), `"f33"`) {
		t.Fatalf("unknown lane: error %v, want one naming it", err)
	}
	if _, err := ReadConfig(strings.NewReader(`not json`), base); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := LoadConfig("/nonexistent/cfg.json", base); err == nil {
		t.Fatal("expected open error")
	}
}

// TestResolveConfigHonoursFileSeed: a flag overrides the -config file only
// when the command line gives it, so the file's Seed survives a command line
// without -seed, and -seed wins, even at its default value, when given.
func TestResolveConfigHonoursFileSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"Seed": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int64
	}{{nil, 2}, {[]string{"-seed", "5"}, 5}, {[]string{"-seed", "1"}, 1}} {
		fs := flag.NewFlagSet("resolve", flag.ContinueOnError)
		seed := fs.Int64("seed", 1, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		cfg, err := ResolveConfig(TaskPreset(TaskMNIST, ScaleCI), path, fs,
			map[string]func(*Config){"seed": func(c *Config) { c.Seed = *seed }})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Seed != tc.want {
			t.Fatalf("args %q: seed %d, want %d", tc.args, cfg.Seed, tc.want)
		}
	}
}
