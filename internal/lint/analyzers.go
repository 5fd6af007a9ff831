package lint

// Analyzers is the full minlint suite in reporting order. cmd/minlint
// runs all of them by default; each can be selected individually.
var Analyzers = []*Analyzer{
	Detrand,
	ImpBoundary,
	HotAlloc,
	ErrCodes,
	MetricLint,
}
