package ml

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// TreeNode is one node of a CART decision tree. Internal nodes route
// x[Feature] <= Threshold to Left and the rest to Right; leaves carry the
// positive-class probability. The structure is exported because Falcon
// extracts blocking rules from tree branches (Figure 4 of the paper), and
// it is its own persisted form: Export marshals it as it stands.
type TreeNode struct {
	Leaf      bool      `json:"leaf"`
	Proba     float64   `json:"proba,omitempty"`     // leaf: P(match)
	N         int       `json:"n,omitempty"`         // training examples that reached this node
	Feature   int       `json:"feature,omitempty"`   // internal: feature index
	Threshold float64   `json:"threshold,omitempty"` // internal: split threshold
	Left      *TreeNode `json:"left,omitempty"`
	Right     *TreeNode `json:"right,omitempty"`
}

// DecisionTree is a CART classifier using Gini impurity.
type DecisionTree struct {
	// MaxFeatures bounds the number of features considered per split;
	// 0 means all. The random forest sets this to sqrt(d).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64

	root *TreeNode
	d    int // feature dimensionality seen at fit time
	rng  *rand.Rand
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "decision_tree" }

// Root returns the fitted tree's root node (nil before Fit).
func (t *DecisionTree) Root() *TreeNode { return t.root }

// fv is one (feature value, label) pair — the unit bestSplit sorts per
// candidate feature.
type fv struct {
	v float64
	y int
}

// treeFitScratch holds the reusable working buffers of tree fitting. One
// scratch serves any number of sequential fits (RandomForest.Fit keeps one
// per worker), so the per-node left/right slices and per-split
// feature/value slices the old code allocated are paid once per worker
// instead of once per node/split.
type treeFitScratch struct {
	idxs  []int // row set of the tree, partitioned in place per node
	part  []int // right-half staging area of the stable partition
	feats []int // candidate feature indices per split
	vals  []fv  // (value, label) pairs sorted per candidate feature
}

// reset sizes the buffers for a fit over n rows and d features.
func (s *treeFitScratch) reset(n, d int) {
	if cap(s.idxs) < n {
		s.idxs = make([]int, n)
	}
	s.idxs = s.idxs[:n]
	if cap(s.part) < n {
		s.part = make([]int, n)
	}
	s.part = s.part[:n]
	if cap(s.feats) < d {
		s.feats = make([]int, d)
	}
	s.feats = s.feats[:d]
	if cap(s.vals) < n {
		s.vals = make([]fv, 0, n)
	}
}

// Fit implements Classifier.
func (t *DecisionTree) Fit(d *Dataset) error {
	return t.fit(d, &treeFitScratch{})
}

// fit is Fit with caller-owned scratch, the entry point for callers that
// train many trees (the forest reuses one scratch per worker).
func (t *DecisionTree) fit(d *Dataset, scr *treeFitScratch) error {
	if d.Len() == 0 {
		return errEmpty(t.Name())
	}
	t.d = d.NumFeatures()
	t.rng = rand.New(rand.NewSource(t.Seed))
	scr.reset(d.Len(), t.d)
	for i := range scr.idxs {
		scr.idxs[i] = i
	}
	t.root = t.build(d, scr, scr.idxs, 0)
	return nil
}

// The CART stopping rules: build stops at depth maxDepth, tries no split
// of a node with fewer than minSamplesSplit rows, and keeps a node a leaf
// when a split would leave either child fewer than minSamplesLeaf rows.
const (
	maxDepth        = 10
	minSamplesSplit = 2
	minSamplesLeaf  = 1
)

// build grows the subtree over the rows idxs (a subslice of scr.idxs that
// build is free to reorder).
func (t *DecisionTree) build(d *Dataset, scr *treeFitScratch, idxs []int, depth int) *TreeNode {
	pos := 0
	for _, i := range idxs {
		pos += d.Y[i]
	}
	node := &TreeNode{N: len(idxs), Proba: float64(pos) / float64(len(idxs))}
	if depth >= maxDepth || len(idxs) < minSamplesSplit || pos == 0 || pos == len(idxs) {
		node.Leaf = true
		return node
	}
	feat, thresh, ok := t.bestSplit(d, scr, idxs)
	if !ok {
		node.Leaf = true
		return node
	}
	// Stable in-place partition: compact the left half down while staging
	// the right half in scr.part, then copy it back after the left half.
	// Both halves keep their relative order, so the recursion sees the
	// same row sequences the old append-built slices held — with zero
	// per-node allocation. scr.part is free again before the recursion.
	nl, nr := 0, 0
	for _, i := range idxs {
		if d.X[i][feat] <= thresh {
			idxs[nl] = i
			nl++
		} else {
			scr.part[nr] = i
			nr++
		}
	}
	copy(idxs[nl:], scr.part[:nr])
	if nl < minSamplesLeaf || nr < minSamplesLeaf {
		node.Leaf = true
		return node
	}
	node.Feature = feat
	node.Threshold = thresh
	node.Left = t.build(d, scr, idxs[:nl], depth+1)
	node.Right = t.build(d, scr, idxs[nl:], depth+1)
	return node
}

// bestSplit finds the (feature, threshold) pair minimizing weighted Gini
// impurity over a (possibly subsampled) feature set.
func (t *DecisionTree) bestSplit(d *Dataset, scr *treeFitScratch, idxs []int) (feat int, thresh float64, ok bool) {
	features := scr.feats
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < t.d {
		t.rng.Shuffle(len(features), func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}

	bestGini := 2.0
	vals := scr.vals
	for _, j := range features {
		vals = vals[:0]
		for _, i := range idxs {
			vals = append(vals, fv{d.X[i][j], d.Y[i]})
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		totalPos := 0
		for _, e := range vals {
			totalPos += e.y
		}
		n := len(vals)
		leftPos, leftN := 0, 0
		for k := 0; k < n-1; k++ {
			leftPos += vals[k].y
			leftN++
			if vals[k].v == vals[k+1].v {
				continue // cannot split between equal values
			}
			rightPos := totalPos - leftPos
			rightN := n - leftN
			g := weightedGini(leftPos, leftN, rightPos, rightN)
			if g < bestGini {
				bestGini = g
				feat = j
				thresh = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

// weightedGini returns the size-weighted Gini impurity of a binary split.
func weightedGini(leftPos, leftN, rightPos, rightN int) float64 {
	gini := func(pos, n int) float64 {
		if n == 0 {
			return 0
		}
		p := float64(pos) / float64(n)
		return 2 * p * (1 - p)
	}
	total := float64(leftN + rightN)
	return float64(leftN)/total*gini(leftPos, leftN) + float64(rightN)/total*gini(rightPos, rightN)
}

// PredictProba implements Classifier.
func (t *DecisionTree) PredictProba(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Proba
}

// String renders the fitted tree as an indented text diagram using the
// given feature names (nil falls back to f<i>).
func (t *DecisionTree) String(names []string) string {
	var b strings.Builder
	var walk func(n *TreeNode, indent string)
	walk = func(n *TreeNode, indent string) {
		if n == nil {
			return
		}
		if n.Leaf {
			label := "No"
			if n.Proba >= 0.5 {
				label = "Yes"
			}
			fmt.Fprintf(&b, "%sleaf %s (p=%.2f, n=%d)\n", indent, label, n.Proba, n.N)
			return
		}
		name := fmt.Sprintf("f%d", n.Feature)
		if names != nil && n.Feature < len(names) {
			name = names[n.Feature]
		}
		fmt.Fprintf(&b, "%s%s <= %.4g?\n", indent, name, n.Threshold)
		walk(n.Left, indent+"  ")
		walk(n.Right, indent+"  ")
	}
	walk(t.root, "")
	return b.String()
}
