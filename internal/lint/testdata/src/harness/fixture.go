// Fixture for the fixture harness itself, checked by TestCheckFixtureReports:
// one want that no diagnostic matches and one diagnostic with no want.
// harnessok is the same file with both mistakes corrected.
package harness

import "fmt"

//quarc:hotpath
func missed(n int) int {
	return n + 1 // want "defer in hot path"
}

//quarc:hotpath
func unexpected(n int) {
	fmt.Println(n)
}
