package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests()+(&Orphan{}).Get()+Ledgered+Recursive(1)+(Shape{}).Unused() < 0 {
		t.Fatal("unreachable")
	}
}
