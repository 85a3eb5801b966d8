// Command use is the deadexport fixture's production consumer.
package main

import (
	"fmt"
	"net/rpc"

	"github.com/mach-fl/mach/internal/lint/testdata/src/deadexport"
	"github.com/mach-fl/mach/internal/lint/testdata/src/deadexport/internal/lib"
)

var _ = deadexport.Faced{}

func main() {
	if err := rpc.Register(new(lib.Service)); err != nil {
		panic(err)
	}
	shape := lib.Shape{}
	fmt.Println(lib.Used()+lib.Revived+lib.Measure(shape), shape)
}
