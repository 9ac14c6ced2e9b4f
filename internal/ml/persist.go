package ml

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Export serializes a trained classifier to JSON. Decision trees, random
// forests, logistic regressions, naive Bayes, and linear SVMs round-trip;
// kNN is intentionally excluded (it memorizes its training set, which is
// the session's data, not the model's).
func Export(c Classifier) ([]byte, error) {
	var payload any
	switch m := c.(type) {
	case *DecisionTree:
		payload = treeDTO{Root: m.root}
	case *RandomForest:
		trees := make([]treeDTO, len(m.trees))
		for i, t := range m.trees {
			trees[i].Root = t.root
		}
		payload = &forestDTO{Alpha: m.Alpha, Trees: trees}
	case *LogisticRegression:
		payload = &linearDTO{W: m.w, B: m.b, Mean: m.mean, Std: m.std}
	case *LinearSVM:
		payload = &linearDTO{W: m.w, B: m.b, Mean: m.mean, Std: m.std}
	case *GaussianNB:
		payload = &nbDTO{
			Prior: m.prior, Mean0: m.mean[0], Mean1: m.mean[1],
			Var0: m.vari[0], Var1: m.vari[1], Fit: m.fit,
		}
	default:
		return nil, fmt.Errorf("ml: cannot export a %T", c)
	}
	return json.Marshal(struct {
		Model   string `json:"model"`
		Payload any    `json:"payload"`
	}{c.Name(), payload})
}

// Import deserializes a classifier produced by Export, for rows dim
// features wide. The payload is outside input: whatever Import returns
// without an error is a fitted model whose PredictProba indexes inside
// every such row and inside its own arrays.
func Import(data []byte, dim int) (Classifier, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ml: import: %w", err)
	}
	c, err := importModel(env, dim)
	if err != nil {
		return nil, fmt.Errorf("ml: import %s: %w", env.Model, err)
	}
	return c, nil
}

func importModel(env envelope, dim int) (Classifier, error) {
	switch env.Model {
	case "decision_tree":
		var dto treeDTO
		if err := json.Unmarshal(env.Payload, &dto); err != nil {
			return nil, err
		}
		return &DecisionTree{root: dto.Root}, checkNode(dto.Root, dim)
	case "random_forest":
		var dto forestDTO
		if err := json.Unmarshal(env.Payload, &dto); err != nil {
			return nil, err
		}
		if len(dto.Trees) == 0 {
			return nil, ErrNotFitted
		}
		f := &RandomForest{Alpha: dto.Alpha, NumTrees: len(dto.Trees)}
		for i, t := range dto.Trees {
			if err := checkNode(t.Root, dim); err != nil {
				return nil, fmt.Errorf("tree %d: %w", i, err)
			}
			f.trees = append(f.trees, &DecisionTree{root: t.Root})
		}
		f.flat = compile(f.trees, f.Alpha)
		return f, nil
	case "logistic_regression", "linear_svm":
		var dto linearDTO
		if err := json.Unmarshal(env.Payload, &dto); err != nil {
			return nil, err
		}
		if len(dto.W) != dim || len(dto.Mean) != dim || len(dto.Std) != dim {
			return nil, fmt.Errorf("w, mean, std of %d, %d, %d values for %d features", len(dto.W), len(dto.Mean), len(dto.Std), dim)
		}
		for j, sd := range dto.Std {
			if !(sd > 0) { // a fit never writes one below 1e-12
				return nil, fmt.Errorf("std %v of feature %d is not positive", sd, j)
			}
		}
		lin := linear{w: dto.W, b: dto.B, mean: dto.Mean, std: dto.Std}
		if env.Model == "linear_svm" {
			return &LinearSVM{linear: lin}, nil
		}
		return &LogisticRegression{linear: lin}, nil
	case "naive_bayes":
		var dto nbDTO
		if err := json.Unmarshal(env.Payload, &dto); err != nil {
			return nil, err
		}
		if !dto.Fit || len(dto.Mean0) != dim || len(dto.Mean1) != dim || len(dto.Var0) != dim || len(dto.Var1) != dim {
			return nil, fmt.Errorf("not fitted over %d features", dim)
		}
		mean, vari := [2][]float64{dto.Mean0, dto.Mean1}, [2][]float64{dto.Var0, dto.Var1}
		return &GaussianNB{prior: dto.Prior, mean: mean, vari: vari, fit: true}, nil
	default:
		return nil, errors.New("unknown model")
	}
}

// checkNode reports why the subtree under n cannot route a dim-wide row to
// a leaf: a missing child, or a split on a column the row does not have.
func checkNode(n *TreeNode, dim int) error {
	switch {
	case n == nil:
		return errors.New("missing node")
	case n.Leaf:
		return nil
	case n.Feature < 0 || n.Feature >= dim:
		return fmt.Errorf("split on feature %d of %d", n.Feature, dim)
	}
	if err := checkNode(n.Left, dim); err != nil {
		return err
	}
	return checkNode(n.Right, dim)
}

type envelope struct {
	Model   string          `json:"model"`
	Payload json.RawMessage `json:"payload"`
}

type treeDTO struct {
	Root *TreeNode `json:"root"`
}

type forestDTO struct {
	Alpha float64   `json:"alpha,omitempty"`
	Trees []treeDTO `json:"trees"`
}

type linearDTO struct {
	W    []float64 `json:"w"`
	B    float64   `json:"b"`
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type nbDTO struct {
	Prior [2]float64 `json:"prior"`
	Mean0 []float64  `json:"mean0"`
	Mean1 []float64  `json:"mean1"`
	Var0  []float64  `json:"var0"`
	Var1  []float64  `json:"var1"`
	Fit   bool       `json:"fit"`
}
