package scratchpair_test

import (
	"testing"

	"fedsu/internal/analysis/analysistest"
	"fedsu/internal/analysis/scratchpair"
)

func TestScratchpair(t *testing.T) {
	analysistest.Run(t, "testdata", scratchpair.Analyzer,
		"scratch", "codecpool", "fedsu/internal/tensor")
}
