package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// WriteJSON serializes the config for experiment provenance; every
// machbench/machsim run can be reproduced from the saved file.
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("bench: encode config: %w", err)
	}
	return nil
}

// SaveConfig writes the config to a file. The close error is part of the
// write: a failed flush must not report success.
func SaveConfig(c Config, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: create config file: %w", err)
	}
	err = c.WriteJSON(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("bench: close config file: %w", cerr)
	}
	return err
}

// ReadConfig parses a config written by WriteJSON, layered on top of the
// given base (fields absent from the JSON keep the base's values) and
// validated.
func ReadConfig(r io.Reader, base Config) (Config, error) {
	cfg := base
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("bench: decode config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadConfig reads a config file on top of a base preset.
func LoadConfig(path string, base Config) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("bench: open config file: %w", err)
	}
	defer f.Close() //machlint:allow errdrop read-only file; a close failure cannot corrupt anything
	return ReadConfig(f, base)
}

// ResolveConfig is how a command line becomes a run's config: base (a
// preset), then the JSON file at path when path is non-empty, then every
// flag of fs that was given on the command line and has a setter in set. A
// flag left at its default overrides nothing, so a file's Seed survives a
// command line without -seed, and any value a flag can hold — zero too —
// can be given. The result is validated.
func ResolveConfig(base Config, path string, fs *flag.FlagSet, set map[string]func(*Config)) (Config, error) {
	cfg := base
	if path != "" {
		loaded, err := LoadConfig(path, cfg)
		if err != nil {
			return Config{}, err
		}
		cfg = loaded
	}
	fs.Visit(func(f *flag.Flag) {
		if apply, ok := set[f.Name]; ok {
			apply(&cfg)
		}
	})
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
