package ml

import "errors"

// FlatForest is a RandomForest's trees compiled into structure-of-arrays
// form, the form every forest prediction walks, in batch and in serving. A
// tree as trained is one heap node per tree node behind *TreeNode links;
// FlatForest packs every node of every tree into four parallel arrays,
// with the two children of each internal node adjacent (right = left+1),
// so traversal is index arithmetic over contiguous memory. Each tree's vote
// is DecisionTree.PredictProba's on the same tree, bit for bit
// (TestFlatForestBitIdentical).
//
// A FlatForest is immutable and safe for concurrent use.
type FlatForest struct {
	feats  []int32   // per node: feature index, or -1 for a leaf
	thresh []float64 // per node: split threshold (internal nodes only)
	left   []int32   // per node: left-child index; right child is left+1
	proba  []float64 // per node: leaf P(match) (leaves only)
	roots  []int32   // per tree: root node index
	alpha  float64
}

// ErrNotFitted is returned when asking for the compiled form of a forest
// that has no trees.
var ErrNotFitted = errors.New("ml: forest is not fitted")

// NewFlatForest returns the compiled form of a fitted (or imported)
// RandomForest. A later Fit compiles a new one and leaves this one valid
// but stale.
func NewFlatForest(f *RandomForest) (*FlatForest, error) {
	if f == nil || f.flat == nil {
		return nil, ErrNotFitted
	}
	return f.flat, nil
}

// compile flattens trees, each with a root and two children under every
// internal node (Fit grows them so, Import checks it), to vote under
// RandomForest.Alpha.
func compile(trees []*DecisionTree, alpha float64) *FlatForest {
	if alpha <= 0 {
		alpha = 0.5
	}
	ff := &FlatForest{roots: make([]int32, 0, len(trees)), alpha: alpha}
	for _, t := range trees {
		root := ff.addNode()
		ff.flatten(t.root, root)
		ff.roots = append(ff.roots, root)
	}
	return ff
}

// flatten emits n's subtree into the SoA arrays, n itself at idx. The two
// children of an internal node are reserved as an adjacent pair before
// either subtree is emitted, which is what lets the arrays encode only the
// left index.
func (ff *FlatForest) flatten(n *TreeNode, idx int32) {
	if n.Leaf {
		ff.feats[idx], ff.proba[idx] = -1, n.Proba
		return
	}
	l := ff.addNode()
	ff.addNode() // l+1, the right child
	ff.feats[idx], ff.thresh[idx], ff.left[idx] = int32(n.Feature), n.Threshold, l
	ff.flatten(n.Left, l)
	ff.flatten(n.Right, l+1)
}

func (ff *FlatForest) addNode() int32 {
	idx := int32(len(ff.feats))
	ff.feats = append(ff.feats, 0)
	ff.thresh = append(ff.thresh, 0)
	ff.left = append(ff.left, 0)
	ff.proba = append(ff.proba, 0)
	return idx
}

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

// VoteFraction returns the fraction of trees predicting match for x.
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

// PredictProba scores one vector with zero allocations.
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
// and alphaShift are bit-identical to the per-row PredictProba.
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
