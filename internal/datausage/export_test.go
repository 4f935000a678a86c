package datausage

import (
	"grophecy/internal/skeleton"
)

// MustAnalyze is Analyze for known-good skeletons; it panics on error.
func MustAnalyze(seq *skeleton.Sequence, hints Hints) Plan {
	plan, err := Analyze(seq, hints)
	if err != nil {
		panic(err)
	}
	return plan
}
