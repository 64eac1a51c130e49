package analysis

// All returns every reprolint analyzer, in stable order. cmd/reprolint
// registers exactly this list (pinned by TestDriverUsesAll), so adding an
// analyzer here is the single step that puts it into the build gate.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		CtxCheckpoint,
		StagePair,
		AtomicField,
		CacheKey,
	}
}
