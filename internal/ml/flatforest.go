package ml

import "errors"

// FlatForest is a fitted RandomForest compiled into structure-of-arrays
// form for cache-friendly inference. The pointer forest stores one heap
// node per tree node and chases *TreeNode links per pair; FlatForest packs
// every node of every tree into four parallel arrays, with the two children
// of each internal node adjacent (right = left+1), so traversal is index
// arithmetic over contiguous memory. Scores are bit-identical to the
// pointer path: both count the same leaf votes and apply the same
// alphaShift, so the serving corpus can swap one for the other without the
// Rebuilt() oracle noticing.
//
// A FlatForest is immutable after NewFlatForest and safe for concurrent use.
type FlatForest struct {
	feats  []int32   // per node: feature index, or -1 for a leaf
	thresh []float64 // per node: split threshold (internal nodes only)
	left   []int32   // per node: left-child index; right child is left+1
	proba  []float64 // per node: leaf P(match) (leaves only)
	roots  []int32   // per tree: root node index
	alpha  float64
}

// ErrNotFitted is returned when compiling a forest that has no trees.
var ErrNotFitted = errors.New("ml: forest is not fitted")

// NewFlatForest compiles a fitted RandomForest. The forest must not be
// re-fit while the FlatForest is in use (Fit replaces the tree slice, so an
// already-compiled FlatForest stays valid but stale).
func NewFlatForest(f *RandomForest) (*FlatForest, error) {
	if f == nil || len(f.trees) == 0 {
		return nil, ErrNotFitted
	}
	ff := &FlatForest{
		roots: make([]int32, 0, len(f.trees)),
		alpha: f.alpha(),
	}
	for _, t := range f.trees {
		if t.root == nil {
			return nil, ErrNotFitted
		}
		ff.roots = append(ff.roots, ff.flatten(t.root))
	}
	return ff, nil
}

// flatten emits root's subtree into the SoA arrays and returns its index.
// Children are reserved in adjacent pairs when their parent is visited,
// which is what lets the arrays encode only the left index.
func (ff *FlatForest) flatten(root *TreeNode) int32 {
	type item struct {
		n   *TreeNode
		idx int32
	}
	rootIdx := ff.addNode()
	stack := []item{{root, rootIdx}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.n.Leaf {
			ff.feats[it.idx] = -1
			ff.proba[it.idx] = it.n.Proba
			continue
		}
		l := ff.addNode()
		r := ff.addNode() // adjacent to l by construction
		ff.feats[it.idx] = int32(it.n.Feature)
		ff.thresh[it.idx] = it.n.Threshold
		ff.left[it.idx] = l
		stack = append(stack, item{it.n.Right, r}, item{it.n.Left, l})
	}
	return rootIdx
}

func (ff *FlatForest) addNode() int32 {
	idx := int32(len(ff.feats))
	ff.feats = append(ff.feats, 0)
	ff.thresh = append(ff.thresh, 0)
	ff.left = append(ff.left, 0)
	ff.proba = append(ff.proba, 0)
	return idx
}

// NumTrees returns the ensemble size.
func (ff *FlatForest) NumTrees() int { return len(ff.roots) }

// vote walks one tree iteratively and reports whether its leaf votes match.
//
//emlint:zeroalloc
func (ff *FlatForest) vote(root int32, x []float64) bool {
	idx := root
	for ff.feats[idx] >= 0 {
		if x[ff.feats[idx]] <= ff.thresh[idx] {
			idx = ff.left[idx]
		} else {
			idx = ff.left[idx] + 1
		}
	}
	return ff.proba[idx] >= 0.5
}

// VoteFraction returns the fraction of trees predicting match for x,
// bit-identical to RandomForest.VoteFraction on the source forest.
//
//emlint:zeroalloc
func (ff *FlatForest) VoteFraction(x []float64) float64 {
	votes := 0
	for _, root := range ff.roots {
		if ff.vote(root, x) {
			votes++
		}
	}
	return float64(votes) / float64(len(ff.roots))
}

// PredictProba scores one vector with zero allocations, bit-identical to
// RandomForest.PredictProba on the source forest.
//
//emlint:zeroalloc
func (ff *FlatForest) PredictProba(x []float64) float64 {
	return alphaShift(ff.VoteFraction(x), ff.alpha)
}

// PredictProbaBatch scores every row of xs into out (len(out) must equal
// len(xs)) and allocates nothing. The loop is tree-major: each tree's nodes
// stay hot in cache while it routes the whole batch, instead of every
// candidate faulting the full forest back in. Votes accumulate in out as
// exact small integers (counts <= NumTrees < 2^53), so the final fraction
// and alphaShift are bit-identical to the per-row pointer path.
//
//emlint:zeroalloc
func (ff *FlatForest) PredictProbaBatch(xs [][]float64, out []float64) {
	if len(out) != len(xs) {
		panicBatchLen()
	}
	for i := range out {
		out[i] = 0
	}
	for _, root := range ff.roots {
		for i, x := range xs {
			if ff.vote(root, x) {
				out[i]++
			}
		}
	}
	nt := float64(len(ff.roots))
	for i := range out {
		out[i] = alphaShift(out[i]/nt, ff.alpha)
	}
}

// panicBatchLen lives outside the zero-alloc kernel (and is kept out of
// line) so its message string does not count as an escape on the hot path.
//
//go:noinline
func panicBatchLen() {
	panic("ml: FlatForest.PredictProbaBatch: len(out) != len(xs)")
}
