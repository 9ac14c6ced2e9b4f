package deepmatch

import (
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/ml"
	"repro/internal/tokenize"
)

// Encoder embeds a string as an L2-normalized hashed bag of its padded
// character encoderQ-grams in encoderDim dimensions: the stdlib stand-in
// for the learned embeddings DeepMatcher feeds its networks.
type Encoder struct{}

const (
	encoderDim = 64
	encoderQ   = 3
)

// Encode embeds s.
func (e Encoder) Encode(s string) []float64 {
	v := make([]float64, encoderDim)
	tok := tokenize.QGram{Q: encoderQ, Pad: true}
	for _, g := range tok.Tokenize(strings.ToLower(s)) {
		h := fnv.New32a()
		h.Write([]byte(g))
		hv := h.Sum32()
		idx := int(hv) % len(v)
		if idx < 0 {
			idx += len(v)
		}
		// Signed hashing halves collision bias.
		if hv&0x80000000 != 0 {
			v[idx]--
		} else {
			v[idx]++
		}
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
	return v
}

// PairVector builds the network input for a string pair: the elementwise
// absolute difference and elementwise product of the two embeddings plus
// their cosine — the standard "comparison" composition DeepMatcher-style
// architectures use.
func (e Encoder) PairVector(a, b string) []float64 {
	va, vb := e.Encode(a), e.Encode(b)
	out := make([]float64, 0, 2*len(va)+1)
	var cos float64
	for i := range va {
		out = append(out, math.Abs(va[i]-vb[i]))
		cos += va[i] * vb[i]
	}
	for i := range va {
		out = append(out, va[i]*vb[i])
	}
	out = append(out, cos)
	return out
}

// TextMatcher matches raw string pairs with an MLP over Encoder pair
// vectors.
type TextMatcher struct {
	// Net is the underlying network; nil gets a default at Fit time.
	Net *MLP
	// Seed drives training when Net is nil.
	Seed int64
}

// Fit trains on string pairs with binary labels.
func (t *TextMatcher) Fit(pairs [][2]string, y []int) error {
	x := make([][]float64, len(pairs))
	for i, p := range pairs {
		x[i] = Encoder{}.PairVector(p[0], p[1])
	}
	ds, err := ml.NewDataset(x, y, nil)
	if err != nil {
		return err
	}
	if t.Net == nil {
		t.Net = &MLP{Seed: t.Seed}
	}
	return t.Net.Fit(ds)
}

// PredictProba scores a string pair.
func (t *TextMatcher) PredictProba(a, b string) float64 {
	if t.Net == nil {
		return 0
	}
	return t.Net.PredictProba(Encoder{}.PairVector(a, b))
}

// Predict thresholds PredictProba at 0.5.
func (t *TextMatcher) Predict(a, b string) bool { return t.PredictProba(a, b) >= 0.5 }
