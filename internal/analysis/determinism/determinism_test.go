package determinism_test

import (
	"testing"

	"fedsu/internal/analysis/analysistest"
	"fedsu/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer,
		"fedsu/internal/tensor", "fedsu/internal/fl", "fedsu/internal/exp",
		"fedsu/internal/sparse/codec")
}
