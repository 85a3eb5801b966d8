// Package fixture exercises the floateq analyzer: exact float comparisons
// are hazards unless justified; integer and string comparisons are not.
package fixture

func compare(a float64, b float32, eps float64) bool {
	if a == 2.0 { // want "exact floating-point =="
		return true
	}
	if b != 0 { // want "exact floating-point !="
		return false
	}
	const half = 0.5
	bad := a != half // want "exact floating-point !="
	_ = bad

	n := 3
	if n == 3 { // integers compare exactly
		n++
	}
	s := "x"
	if s == "x" { // strings too
		s = ""
	}
	if a-eps < half && half < a+eps { // tolerance comparison is the fix
		return true
	}
	//machlint:allow floateq exact zero is a sentinel here, never a computed value
	return a == 0
}

func unjustified(a float64) bool {
	/* want "no justification" */ //machlint:allow floateq
	return a == 1                 // want "exact floating-point =="
}

func switches(a float64, b float32, n int) int {
	switch a { // want "switch on a floating-point tag"
	case 1.0:
		return 1
	}
	switch b { // want "switch on a floating-point tag"
	case 0:
		return 2
	}
	switch n { // integer tags compare exactly
	case 3:
		return 3
	}
	switch { // tagless switch: arms are checked as ordinary expressions
	case a > 0.5:
		return 4
	case b == 2: // want "exact floating-point =="
		return 5
	}
	//machlint:allow floateq tag takes discrete sentinel values only
	switch a {
	case -1:
		return 6
	}
	return 0
}
