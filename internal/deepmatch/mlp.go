// Package deepmatch is the reproduction's stand-in for DeepMatcher, the
// deep-learning matcher the paper describes adding to the PyMatcher
// ecosystem ("we used PyTorch ... released it as a new Python package in
// the PyMatcher ecosystem, then extended our guide"). PyTorch is not
// available to a stdlib-only Go module, so this package provides the
// closest equivalent that exercises the same extension point: a
// multi-layer perceptron trained by backpropagation, plus a hashed
// character-n-gram text encoder so the matcher can consume raw textual
// attribute pairs. It plugs into everything else through the ml.Classifier
// interface, demonstrating the ecosystem-extensibility claim.
package deepmatch

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ml"
)

// The network's shape and training schedule: two ReLU hidden layers of
// mlpWidth1 and mlpWidth2 units, then mlpEpochs passes of SGD with step
// mlpLearningRate and weight decay mlpL2.
const (
	mlpWidth1       = 16
	mlpWidth2       = 8
	mlpEpochs       = 120
	mlpLearningRate = 0.05
	mlpL2           = 1e-4
)

// MLP is a feed-forward network with ReLU hidden layers and a sigmoid
// output, trained with mini-batch SGD on cross-entropy loss. It implements
// ml.Classifier.
type MLP struct {
	// Seed drives initialization and shuffling.
	Seed int64

	weights [][][]float64 // [layer][out][in]
	biases  [][]float64   // [layer][out]
	mean    []float64
	std     []float64
}

// Name implements ml.Classifier.
func (m *MLP) Name() string { return "mlp" }

// Fit implements ml.Classifier.
func (m *MLP) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return fmt.Errorf("deepmatch: mlp: empty training set")
	}
	nf := d.NumFeatures()
	m.standardizeFit(d)

	// Layer sizes: input -> hidden... -> 1.
	sizes := []int{nf, mlpWidth1, mlpWidth2, 1}
	rng := rand.New(rand.NewSource(m.Seed))
	m.weights = make([][][]float64, len(sizes)-1)
	m.biases = make([][]float64, len(sizes)-1)
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2 / float64(in)) // He initialization
		m.weights[l] = make([][]float64, out)
		m.biases[l] = make([]float64, out)
		for o := 0; o < out; o++ {
			m.weights[l][o] = make([]float64, in)
			for i := range m.weights[l][o] {
				m.weights[l][o][i] = rng.NormFloat64() * scale
			}
		}
	}

	order := rng.Perm(d.Len())
	for e := 0; e < mlpEpochs; e++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, idx := range order {
			x := m.standardize(d.X[idx])
			acts, pre := m.forward(x)
			p := acts[len(acts)-1][0]
			// Output delta for sigmoid + cross-entropy.
			delta := []float64{p - float64(d.Y[idx])}
			for l := len(m.weights) - 1; l >= 0; l-- {
				input := acts[l]
				nextDelta := make([]float64, len(input))
				for o, w := range m.weights[l] {
					g := delta[o]
					for i := range w {
						nextDelta[i] += w[i] * g
						w[i] -= mlpLearningRate * (g*input[i] + mlpL2*w[i])
					}
					m.biases[l][o] -= mlpLearningRate * g
				}
				if l > 0 {
					// Backprop through the ReLU of layer l-1.
					for i := range nextDelta {
						if pre[l-1][i] <= 0 {
							nextDelta[i] = 0
						}
					}
				}
				delta = nextDelta
			}
		}
	}
	return nil
}

// forward runs the network; acts[0] is the standardized input, acts[last]
// the sigmoid output, pre[l] the pre-activation of hidden layer l.
func (m *MLP) forward(x []float64) (acts [][]float64, pre [][]float64) {
	acts = append(acts, x)
	cur := x
	for l := range m.weights {
		out := make([]float64, len(m.weights[l]))
		for o, w := range m.weights[l] {
			z := m.biases[l][o]
			for i := range w {
				z += w[i] * cur[i]
			}
			out[o] = z
		}
		if l < len(m.weights)-1 {
			pre = append(pre, append([]float64(nil), out...))
			for i := range out {
				if out[i] < 0 {
					out[i] = 0
				}
			}
		} else {
			out[0] = sigmoid(out[0])
		}
		acts = append(acts, out)
		cur = out
	}
	return acts, pre
}

// PredictProba implements ml.Classifier.
func (m *MLP) PredictProba(x []float64) float64 {
	if m.weights == nil {
		return 0
	}
	acts, _ := m.forward(m.standardize(x))
	return acts[len(acts)-1][0]
}

func (m *MLP) standardizeFit(d *ml.Dataset) {
	nf := d.NumFeatures()
	m.mean = make([]float64, nf)
	m.std = make([]float64, nf)
	for j := 0; j < nf; j++ {
		var s float64
		for i := range d.X {
			s += d.X[i][j]
		}
		mu := s / float64(d.Len())
		var s2 float64
		for i := range d.X {
			dx := d.X[i][j] - mu
			s2 += dx * dx
		}
		sd := math.Sqrt(s2 / float64(d.Len()))
		if sd < 1e-12 {
			sd = 1
		}
		m.mean[j], m.std[j] = mu, sd
	}
}

func (m *MLP) standardize(x []float64) []float64 {
	z := make([]float64, len(x))
	for j := range x {
		z[j] = (x[j] - m.mean[j]) / m.std[j]
	}
	return z
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
