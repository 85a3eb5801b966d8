// Package fixture exercises the errdrop analyzer: ignored and
// blank-discarded errors are hazards; handled errors, allowlisted callees
// and justified waivers are not.
package fixture

import (
	"fmt"
	"os"
	"strings"
)

func mayFail() error { return nil }

func multi() (int, error) { return 0, nil }

func ignored(f *os.File) {
	mayFail()       // want "ignored"
	_ = mayFail()   // want "discarded into _"
	n, _ := multi() // want "discarded into _"
	_ = n
	defer f.Close() // want "ignored"
	go mayFail()    // want "ignored"
}

func handled(sb *strings.Builder) error {
	fmt.Println("reports never fail actionably") // allowlisted
	fmt.Fprintf(os.Stderr, "nor does stderr\n")  // allowlisted
	sb.WriteString("documented to never fail")   // allowlisted
	if err := mayFail(); err != nil {
		return err
	}
	n, err := multi() // both results bound
	_ = n
	return err
}

func waived() {
	_ = mayFail() //machlint:allow errdrop best-effort call; failure is harmless in this fixture
}

func unjustified() {
	/* want "no justification" */ //machlint:allow errdrop
	_ = mayFail()                 // want "discarded into _"
}
