// Fixture for the fixture harness itself, checked by TestCheckFixtureReports:
// the harness fixture with its want moved to the line that reports, so
// nothing is left unmatched.
package harness

import "fmt"

//quarc:hotpath
func missed(n int) int {
	return n + 1
}

//quarc:hotpath
func unexpected(n int) {
	fmt.Println(n) // want "fmt.Println in hot path"
}
