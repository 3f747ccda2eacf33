// Fixture for unknown //quarc: verbs, checked by TestUnknownDirective: a typo
// of a live verb and a verb whose analyzer was retired are both findings.
package directive

//quarc:hotpth
func typo() {}

//quarc:coordinator
func retired() {}

//quarc:hotpath
func known() {}
