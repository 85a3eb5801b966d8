package lint

import "strings"

// Rule is the package-scoped configuration of one check.
type Rule struct {
	// Enabled turns the check on at all.
	Enabled bool
	// SkipTests exempts _test.go files.
	SkipTests bool
	// Only restricts the check to packages under these slash-separated
	// path prefixes (relative to the lint root). Empty means everywhere.
	Only []string
	// Skip disables the check in packages under these prefixes. Skip wins
	// over Only.
	Skip []string
	// Allow lists callees whose results a check may ignore, keyed by
	// types.Func.FullName (e.g. "fmt.Printf" or
	// "(*strings.Builder).WriteString"). Used by errdrop.
	Allow []string
}

// appliesTo reports whether the rule is active for a package path.
func (r *Rule) appliesTo(path string) bool {
	if !r.Enabled {
		return false
	}
	if pathMatch(path, r.Skip) {
		return false
	}
	if len(r.Only) > 0 && !pathMatch(path, r.Only) {
		return false
	}
	return true
}

func (r *Rule) allows(callee string) bool {
	for _, a := range r.Allow {
		if a == callee {
			return true
		}
	}
	return false
}

// pathMatch reports whether path equals one of the prefixes or sits below
// one of them ("internal/fed/sub" matches prefix "internal/fed", but
// "internal/fedx" does not).
func pathMatch(path string, prefixes []string) bool {
	for _, p := range prefixes {
		p = strings.Trim(p, "/")
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Config maps check names to their package-scoped rules. Checks without an
// entry are disabled.
type Config struct {
	Rules map[string]*Rule
}

var disabledRule = &Rule{}

func (c *Config) rule(name string) *Rule {
	if r, ok := c.Rules[name]; ok && r != nil {
		return r
	}
	return disabledRule
}

// Keep restricts the configuration to the named checks (used by the
// -checks CLI flag). Unknown names are ignored; the CLI validates them.
func (c *Config) Keep(names []string) {
	keep := map[string]bool{}
	for _, n := range names {
		keep[strings.TrimSpace(n)] = true
	}
	for name := range c.Rules {
		if !keep[name] {
			delete(c.Rules, name)
		}
	}
}

// DefaultConfig is the repo's policy, mirroring DESIGN.md §5.5:
//
//   - maprange guards everything, including tests — an order-dependent
//     accumulation in a test is a flaky test.
//   - globalrand guards the deterministic simulation core against math/rand's
//     shared global source; the benchmark harness, the CLIs and tests are
//     exempt. Wall-clock reads are walltime's alone: its scope contains
//     globalrand's, so one read is reported once.
//   - walltime guards everything except internal/telemetry: even harness and
//     CLI code must read wall time through telemetry.WallNow/WallSince so the
//     repo has exactly one clock site to audit.
//   - floateq and errdrop guard non-test code everywhere; tests compare
//     floats exactly on purpose (bit-identity contracts) and may drop
//     errors for brevity.
//   - randshare and selectdet guard the deterministic simulation core, like
//     globalrand: CLIs and the bench harness may use ad-hoc goroutines, and
//     tests may share rands deliberately (e.g. to provoke races under
//     -race).
//   - intoalias guards non-test code everywhere: every *Into buffer
//     function must declare its aliasing contract and every call site is
//     checked against it. Tests are exempt — they routinely alias buffers
//     on purpose to pin in-place semantics.
//   - allocfree runs everywhere it finds annotations; scoping is by
//     annotation, not path.
//   - deadexport audits declarations under internal/ — nothing outside the
//     module can import them, so an export only tests use is dead — and in
//     the root package, the facade, whose aliases would otherwise keep their
//     internal targets alive, against uses anywhere in the module.
func DefaultConfig() *Config {
	return &Config{Rules: map[string]*Rule{
		"maprange": {Enabled: true},
		"globalrand": {
			Enabled:   true,
			SkipTests: true,
			Skip:      []string{"internal/bench", "cmd", "examples"},
		},
		"walltime": {
			Enabled:   true,
			SkipTests: true,
			Skip:      []string{"internal/telemetry"},
		},
		"floateq": {Enabled: true, SkipTests: true},
		"errdrop": {
			Enabled:   true,
			SkipTests: true,
			Allow: []string{
				// fmt printing: the repo prints reports and usage text to
				// stdout/stderr and in-memory writers; a failed diagnostic
				// print has no recovery path (errcheck ships the same
				// default).
				"fmt.Print", "fmt.Printf", "fmt.Println",
				"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln",
				// Documented to never return a non-nil error.
				"(*strings.Builder).Write",
				"(*strings.Builder).WriteByte",
				"(*strings.Builder).WriteRune",
				"(*strings.Builder).WriteString",
				"(*bytes.Buffer).Write",
				"(*bytes.Buffer).WriteByte",
				"(*bytes.Buffer).WriteRune",
				"(*bytes.Buffer).WriteString",
			},
		},
		"randshare": {
			Enabled:   true,
			SkipTests: true,
			Skip:      []string{"internal/bench", "cmd", "examples"},
		},
		"selectdet": {
			Enabled:   true,
			SkipTests: true,
			Skip:      []string{"cmd", "examples"},
		},
		"intoalias":  {Enabled: true, SkipTests: true},
		"allocfree":  {Enabled: true},
		"deadexport": {Enabled: true, Only: []string{"internal", "."}},
	}}
}
