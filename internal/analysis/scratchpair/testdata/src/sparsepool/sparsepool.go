// Package sparsepool is the scratchpair corpus for the sparse wire-buffer
// and vector pools: the same pairing contract as the tensor arena, checked
// against the patterns the rpc hot path actually uses.
package sparsepool

import "fedsu/internal/sparse"

type coordinator struct {
	strays map[int]*[]float64
}

// balancedWireBuf is the client encode path: acquire, encode, release.
func balancedWireBuf(values []float64) int {
	buf := sparse.GetWireBuf(len(values))
	defer sparse.PutWireBuf(buf)
	*buf = sparse.AppendVectorPayload(*buf, values)
	return len(*buf)
}

// leakWireBuf forgets the release on the error path.
func leakWireBuf(values []float64) error {
	buf := sparse.GetWireBuf(len(values)) // want `pooled wire buffer "buf" is not released by PutWireBuf`
	*buf = sparse.AppendVectorPayload(*buf, values)
	if len(*buf) == 0 {
		return errEmpty
	}
	sparse.PutWireBuf(buf)
	return nil
}

// branchLocalDefer acquires and defers the release inside one branch — the
// flrpc decode pattern. The untaken branch holds nothing, so this must not
// be flagged.
func branchLocalDefer(abstain bool, n int) int {
	var vecBuf *[]float64
	if !abstain {
		vecBuf = sparse.GetVec(n)
		defer sparse.PutVec(vecBuf)
	}
	if vecBuf == nil {
		return 0
	}
	return len(*vecBuf)
}

// transferToMap hands ownership to a map that outlives the call — the
// fl fold-node stray-contribution pattern, drained at barrier completion.
func (c *coordinator) transferToMap(clientID int, values []float64) {
	buf := sparse.GetVec(len(values))
	copy(*buf, values)
	if c.strays == nil {
		c.strays = map[int]*[]float64{}
	}
	c.strays[clientID] = buf
}

// discardedVec can never be released.
func discardedVec(n int) {
	sparse.GetVec(n) // want `GetVec result discarded`
}

// leakVecInLoop acquires per iteration without releasing.
func leakVecInLoop(n int) {
	for i := 0; i < n; i++ {
		v := sparse.GetVec(n) // want `pooled vector "v" acquired in a loop body is still held`
		(*v)[0] = float64(i)
	}
}

// mixedPools holds one resource from each pool; both must pair.
func mixedPools(values []float64) {
	vec := sparse.GetVec(len(values))
	buf := sparse.GetWireBuf(8) // want `pooled wire buffer "buf" is not released by PutWireBuf`
	copy(*vec, values)
	*buf = sparse.AppendVectorPayload(*buf, *vec)
	sparse.PutVec(vec)
}

var errEmpty = errorString("empty")

type errorString string

func (e errorString) Error() string { return string(e) }
