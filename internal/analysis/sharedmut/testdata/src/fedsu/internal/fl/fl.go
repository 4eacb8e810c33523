// Package fl is a corpus stub: the shared-snapshot getter signatures the
// sharedmut analyzer matches by package path + name.
package fl

import "context"

type AsyncAggregator struct {
	global []float64
}

func (s *AsyncAggregator) AsyncGlobal() []float64 { return s.global }

func (s *AsyncAggregator) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return s.global, nil
}

func (s *AsyncAggregator) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return s.global, nil
}

// Tree is the hierarchical collective's stub: the partial ingest path
// publishes the same shared root global to every block submitter.
type Tree struct {
	global []float64
}

func (t *Tree) AggregatePartial(round int, kind string, rankLo int, sum []float64, weight int) ([]float64, error) {
	return t.global, nil
}

func (t *Tree) AggregatePartialCtx(ctx context.Context, round int, kind string, rankLo int, sum []float64, weight int) ([]float64, error) {
	return t.global, nil
}
