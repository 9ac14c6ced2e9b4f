package ml

import (
	"strings"
	"testing"
)

func roundTrip(t *testing.T, c Classifier, ds *Dataset) Classifier {
	t.Helper()
	data, err := Export(c)
	if err != nil {
		t.Fatalf("export %s: %v", c.Name(), err)
	}
	back, err := Import(data, ds.NumFeatures())
	if err != nil {
		t.Fatalf("import %s: %v", c.Name(), err)
	}
	if back.Name() != c.Name() {
		t.Fatalf("round trip changed model: %s -> %s", c.Name(), back.Name())
	}
	for i := range ds.X {
		if got, want := back.PredictProba(ds.X[i]), c.PredictProba(ds.X[i]); got != want {
			t.Fatalf("%s: prediction changed after round trip: %v vs %v", c.Name(), got, want)
		}
	}
	return back
}

func TestExportImportRoundTrip(t *testing.T) {
	ds := synthDataset(300, 1, 61)
	models := []Classifier{
		&DecisionTree{Seed: 1},
		&RandomForest{NumTrees: 7, Alpha: 0.7, Seed: 1},
		&LogisticRegression{Seed: 1},
		&LinearSVM{Seed: 1},
		&GaussianNB{},
	}
	for _, m := range models {
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		roundTrip(t, m, ds)
	}
}

func TestForestRoundTripPreservesAlpha(t *testing.T) {
	ds := synthDataset(200, 0, 62)
	f := &RandomForest{NumTrees: 5, Alpha: 0.9, Seed: 1}
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, f, ds).(*RandomForest)
	if back.Alpha != 0.9 {
		t.Errorf("alpha lost: %v", back.Alpha)
	}
	if len(back.Trees()) != 5 {
		t.Errorf("trees = %d", len(back.Trees()))
	}
}

func TestExportUnsupported(t *testing.T) {
	if _, err := Export(&KNN{}); err == nil {
		t.Fatal("kNN export should be refused")
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := Import([]byte("{nope"), 2); err == nil {
		t.Error("want JSON error")
	}
	if _, err := Import([]byte(`{"model":"ghost","payload":{}}`), 2); err == nil {
		t.Error("want unknown-model error")
	}
}

type malformedModel struct{ name, model, payload string }

func (m malformedModel) data() []byte {
	return []byte(`{"model":"` + m.model + `","payload":` + m.payload + `}`)
}

// malformedModels are payloads that parse as JSON and name a known model,
// yet cannot score a two-feature row: before Import validated them each one
// loaded, and then panicked in PredictProba (nil dereference or index out
// of range), the rootless and treeless ones scored every row 0, and the
// linear ones with a std not above 0 scored NaN or flipped a column's sign.
var malformedModels = []malformedModel{
	{"tree without a root", "decision_tree", `{}`},
	{"internal node without children", "decision_tree", `{"root":{"leaf":false}}`},
	{"internal node with one child", "decision_tree", `{"root":{"leaf":false,"left":{"leaf":true}}}`},
	{"negative feature index", "decision_tree", `{"root":{"leaf":false,"feature":-1,"left":{"leaf":true},"right":{"leaf":true}}}`},
	{"feature index past the row", "decision_tree", `{"root":{"leaf":false,"feature":2,"left":{"leaf":true},"right":{"leaf":true}}}`},
	{"missing grandchild", "decision_tree", `{"root":{"leaf":false,"left":{"leaf":true},"right":{"leaf":false,"left":{"leaf":true}}}}`},
	{"forest without trees", "random_forest", `{"trees":[]}`},
	{"forest with a null tree", "random_forest", `{"trees":[null]}`},
	{"forest tree without a root", "random_forest", `{"trees":[{"root":{"leaf":true}},{}]}`},
	{"forest tree with a missing child", "random_forest", `{"trees":[{"root":{"leaf":false,"right":{"leaf":true}}}]}`},
	{"forest feature index past the row", "random_forest", `{"trees":[{"root":{"leaf":false,"feature":7,"left":{"leaf":true},"right":{"leaf":true}}}]}`},
	{"logreg weights longer than the moments", "logistic_regression", `{"w":[1,1],"b":0,"mean":[0],"std":[1]}`},
	{"logreg weights longer than the row", "logistic_regression", `{"w":[1,1,1],"b":0,"mean":[0,0,0],"std":[1,1,1]}`},
	{"svm weights without moments", "linear_svm", `{"w":[1,1],"b":0}`},
	{"logreg with a zero std", "logistic_regression", `{"w":[1,1],"b":0,"mean":[0,0],"std":[1,0]}`},
	{"svm with a negative std", "linear_svm", `{"w":[1,1],"b":0,"mean":[0,0],"std":[-1,1]}`},
	{"naive Bayes arrays shorter than the row", "naive_bayes", `{"prior":[0,0],"mean0":[0],"mean1":[0],"var0":[1],"var1":[1],"fit":true}`},
	{"naive Bayes arrays of different lengths", "naive_bayes", `{"prior":[0,0],"mean0":[0,0],"mean1":[0,0],"var0":[1,1],"var1":[1],"fit":true}`},
}

// TestImportRejectsMalformedModels: each of those is an error at Import,
// which says which model it was.
func TestImportRejectsMalformedModels(t *testing.T) {
	for _, tc := range malformedModels {
		c, err := Import(tc.data(), 2)
		if err == nil {
			t.Errorf("%s: imported as a %s", tc.name, c.Name())
		} else if !strings.Contains(err.Error(), tc.model) {
			t.Errorf("%s: error %q does not name the model", tc.name, err)
		}
	}
}

// FuzzImport: whatever Import accepts for dim-wide rows scores such a row,
// decides it if it is a Decider, and exports again, without panicking.
func FuzzImport(f *testing.F) {
	ds := synthDataset(60, 0, 63)
	for _, m := range []Classifier{&DecisionTree{Seed: 1}, &RandomForest{NumTrees: 2, Seed: 1}, &LogisticRegression{Seed: 1}, &LinearSVM{Seed: 1}, &GaussianNB{}} {
		if err := m.Fit(ds); err != nil {
			f.Fatal(err)
		}
		data, err := Export(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 2)
	}
	for _, tc := range malformedModels {
		f.Add(tc.data(), 2)
	}
	f.Fuzz(func(t *testing.T, data []byte, dim int) {
		if dim < 0 || dim > 64 {
			return
		}
		c, err := Import(data, dim)
		if err != nil {
			return
		}
		c.PredictProba(make([]float64, dim))
		if d, ok := c.(Decider); ok {
			d.DecideFor(make([]bool, dim))(make([]float64, dim))
		}
		if _, err := Export(c); err != nil {
			t.Fatalf("imported %s does not export: %v", c.Name(), err)
		}
	})
}
