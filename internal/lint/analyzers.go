package lint

import "sort"

// Analyzers returns the full AST-analyzer suite in stable order. The
// allocfree and deadexport checks are not in this list: one is driven by the
// compiler's escape analysis, the other needs every unit at once, and the
// Runner schedules each as its own phase (see allocfree.go, deadexport.go).
// AllChecks covers all of them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRange, WallTime, FloatEq, ErrDrop, RandShare, IntoAlias,
	}
}

// AllChecks returns every check name the suite knows — the six AST
// analyzers plus the build-integrated allocfree check and the whole-tree
// deadexport check — sorted. This is the set -checks and //machlint:allow
// directives are validated against.
func AllChecks() []string {
	names := []string{AllocFreeName, DeadExportName}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

func allChecksSet() map[string]bool {
	set := map[string]bool{}
	for _, n := range AllChecks() {
		set[n] = true
	}
	return set
}
