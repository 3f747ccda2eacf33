package lint

// All returns the quarcvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		HotPath,
	}
}
