// Command use is the deadexport fixture's production consumer.
package main

import (
	"fmt"

	"github.com/mach-fl/mach/internal/lint/testdata/src/deadexport/internal/lib"
)

func main() { fmt.Println(lib.Used() + lib.Revived) }
