package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests()+(&Orphan{}).Get()+Ledgered+Recursive(1) < 0 {
		t.Fatal("unreachable")
	}
}
