// Package mlp is a minimal dense neural network — linear layers with
// ReLU activations, mean-squared-error loss, and Adam optimisation —
// sufficient for GoPIM's execution-time predictor (paper §V-A: a
// three-layer MLP with 10 inputs, 256 hidden neurons, 1 output).
package mlp

import (
	"fmt"
	"math"
	"math/rand"

	"gopim/internal/tensor"
)

// Net is a feed-forward network: Linear → ReLU → … → Linear.
type Net struct {
	// Sizes lists layer widths, e.g. {10, 256, 1}.
	Sizes []int
	// Weights[i] is Sizes[i]×Sizes[i+1]; Biases[i] has Sizes[i+1]
	// entries.
	Weights []*tensor.Matrix
	Biases  [][]float64
}

// New constructs a network with Glorot-initialised weights.
// sizes must contain at least an input and an output width.
func New(rng *rand.Rand, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("mlp: need ≥ 2 layer sizes, got %v", sizes))
	}
	for _, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("mlp: layer size %d must be positive", s))
		}
	}
	n := &Net{Sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		n.Weights = append(n.Weights, tensor.NewGlorot(rng, sizes[i], sizes[i+1]))
		n.Biases = append(n.Biases, make([]float64, sizes[i+1]))
	}
	return n
}

// NumLayers returns the number of linear layers.
func (n *Net) NumLayers() int { return len(n.Weights) }

// Forward runs a batch (rows = samples) through the network.
func (n *Net) Forward(x *tensor.Matrix) *tensor.Matrix {
	ws := newNetWorkspace(n, x.Rows)
	return n.forwardWS(ws, x)
}

// netWorkspace owns every matrix one forward/backward pass at a fixed
// batch size touches, so Fit's epoch loop allocates nothing per batch.
// Buffers are valid until the next forward call on the same workspace
// overwrites them; Adam consumes the gradients before that happens.
type netWorkspace struct {
	rows int
	// acts[0] is the input (set per call); acts[i] for i ≥ 1 is the
	// post-activation output of layer i-1 (post-ReLU except the last).
	acts []*tensor.Matrix
	// delta[i] (i ≥ 1) is the loss gradient at the output of layer i-1;
	// backprop walks it from delta[L] down to delta[1].
	delta []*tensor.Matrix
	gw    []*tensor.Matrix
	gb    [][]float64
	// in/tgt are the mini-batch gather buffers Fit fills row by row.
	in, tgt *tensor.Matrix
}

func newNetWorkspace(n *Net, rows int) *netWorkspace {
	layers := len(n.Weights)
	ws := &netWorkspace{
		rows:  rows,
		acts:  make([]*tensor.Matrix, layers+1),
		delta: make([]*tensor.Matrix, layers+1),
		gw:    make([]*tensor.Matrix, layers),
		gb:    make([][]float64, layers),
		in:    tensor.New(rows, n.Sizes[0]),
		tgt:   tensor.New(rows, n.Sizes[layers]),
	}
	for i := 0; i < layers; i++ {
		ws.acts[i+1] = tensor.New(rows, n.Sizes[i+1])
		ws.delta[i+1] = tensor.New(rows, n.Sizes[i+1])
		ws.gw[i] = tensor.New(n.Sizes[i], n.Sizes[i+1])
		ws.gb[i] = make([]float64, n.Sizes[i+1])
	}
	return ws
}

// forwardWS runs a batch through the network into workspace buffers
// and returns the output (aliasing ws.acts[last]). Storing the hidden
// activations post-ReLU matches the historic forwardCached exactly:
// backprop's ReLU mask of a post-ReLU activation equals the mask of
// its pre-activation (NaN included).
func (n *Net) forwardWS(ws *netWorkspace, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != n.Sizes[0] {
		panic(fmt.Sprintf("mlp: input width %d, want %d", x.Cols, n.Sizes[0]))
	}
	if x.Rows != ws.rows {
		panic(fmt.Sprintf("mlp: batch %d rows, workspace sized for %d", x.Rows, ws.rows))
	}
	ws.acts[0] = x
	cur := x
	for i, w := range n.Weights {
		z := ws.acts[i+1]
		tensor.MatMulInto(z, cur, w)
		z.AddRowVector(n.Biases[i])
		if i+1 < len(n.Weights) {
			z.ReLUInPlace()
		}
		cur = z
	}
	return cur
}

// grads holds one backward pass's parameter gradients.
type grads struct {
	w []*tensor.Matrix
	b [][]float64
}

// backwardWS computes MSE-loss gradients for the batch last run
// through forwardWS. The returned gradients alias workspace buffers.
// Every accumulation runs in the historic order; the ReLU mask is
// ReLUMaskInPlace, which multiplies masked entries by zero (never
// assigns), so signed zeros and NaN propagation match the historic
// MulInPlace(ReLUMask) bit for bit.
func (n *Net) backwardWS(ws *netWorkspace, target *tensor.Matrix) (float64, grads) {
	batch := float64(target.Rows)
	layers := len(n.Weights)
	pred := ws.acts[layers]
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("mlp: target %dx%d vs pred %dx%d", target.Rows, target.Cols, pred.Rows, pred.Cols))
	}
	// dL/dpred for MSE = 2(pred − target)/batch; loss = mean squared
	// error over all entries.
	delta := ws.delta[layers]
	delta.CopyFrom(pred)
	delta.SubInPlace(target)
	// float64(·) keeps each product separately rounded: the Go spec
	// lets compilers fuse x*y + z into one FMA (arm64 does), which
	// would change bits across hosts.
	var loss float64
	for _, v := range delta.Data {
		loss += float64(v * v)
	}
	loss /= batch * float64(target.Cols)
	delta.ScaleInPlace(2 / (batch * float64(target.Cols)))

	for i := layers - 1; i >= 0; i-- {
		// dW = inᵀ·δ and dIn = δ·Wᵀ run through MatMulTNInto and
		// MatMulNTInto: per output element the accumulation order
		// matches the historic transpose-then-multiply exactly, and no
		// workspace holds an inᵀ/Wᵀ copy.
		tensor.MatMulTNInto(ws.gw[i], ws.acts[i], delta)
		delta.ColSumsInto(ws.gb[i])
		if i > 0 {
			// Propagate through the previous ReLU.
			tensor.MatMulNTInto(ws.delta[i], delta, n.Weights[i])
			delta = ws.delta[i]
			delta.ReLUMaskInPlace(ws.acts[i])
		}
	}
	return loss, grads{w: ws.gw, b: ws.gb}
}

// Adam is the Adam optimiser state for one Net.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t  int
	mw []*tensor.Matrix
	vw []*tensor.Matrix
	mb [][]float64
	vb [][]float64
}

// NewAdam returns an optimiser with the usual defaults
// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

func (a *Adam) init(n *Net) {
	if a.mw == nil {
		for i := range n.Weights {
			a.mw = append(a.mw, tensor.New(n.Weights[i].Rows, n.Weights[i].Cols))
			a.vw = append(a.vw, tensor.New(n.Weights[i].Rows, n.Weights[i].Cols))
			a.mb = append(a.mb, make([]float64, len(n.Biases[i])))
			a.vb = append(a.vb, make([]float64, len(n.Biases[i])))
		}
		return
	}
	ok := len(a.mw) == len(n.Weights)
	for i := 0; ok && i < len(a.mw); i++ {
		ok = a.mw[i].Rows == n.Weights[i].Rows && a.mw[i].Cols == n.Weights[i].Cols
	}
	if !ok {
		panic(fmt.Sprintf("mlp: Adam built for another net shape, now stepping %v", n.Sizes))
	}
}

// step applies one Adam update per weight matrix and bias vector.
// The complements 1−β are computed here at run time, as they always
// were (1−0.9 rounds to 0.09999999999999998, not 0.1).
func (a *Adam) step(n *Net, g grads) {
	a.init(n)
	a.t++
	k := tensor.AdamCoef{
		Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		C1: 1 - math.Pow(a.Beta1, float64(a.t)),
		C2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR: a.LR, Eps: a.Eps,
	}
	for i := range n.Weights {
		tensor.AdamStep(n.Weights[i].Data, g.w[i].Data, a.mw[i].Data, a.vw[i].Data, k)
		tensor.AdamStep(n.Biases[i], g.b[i], a.mb[i], a.vb[i], k)
	}
}

// TrainStep runs one forward/backward pass on a batch and applies an
// Adam update. It returns the batch's pre-update MSE loss.
func (n *Net) TrainStep(opt *Adam, x, y *tensor.Matrix) float64 {
	return n.trainStepWS(newNetWorkspace(n, x.Rows), opt, x, y)
}

func (n *Net) trainStepWS(ws *netWorkspace, opt *Adam, x, y *tensor.Matrix) float64 {
	n.forwardWS(ws, x)
	loss, g := n.backwardWS(ws, y)
	opt.step(n, g)
	return loss
}

// Fit trains for epochs over (x, y) in mini-batches of batchSize,
// shuffling sample order with rng each epoch, and returns the final
// epoch's mean loss.
func (n *Net) Fit(rng *rand.Rand, opt *Adam, x, y *tensor.Matrix, epochs, batchSize int) float64 {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("mlp: %d samples vs %d targets", x.Rows, y.Rows))
	}
	if x.Rows == 0 {
		panic("mlp: Fit needs at least one sample")
	}
	if batchSize < 1 {
		batchSize = x.Rows
	}
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	// At most two batch shapes occur — the full batchSize and one
	// shorter tail — so two workspaces cover the whole run, allocated
	// once here (the tail lazily) and reused every epoch.
	full := newNetWorkspace(n, min(batchSize, x.Rows))
	var tail *netWorkspace
	var last float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum float64
		var batches int
		for s := 0; s < len(idx); s += batchSize {
			e := s + batchSize
			if e > len(idx) {
				e = len(idx)
			}
			ws := full
			if e-s != full.rows {
				if tail == nil {
					tail = newNetWorkspace(n, e-s)
				}
				ws = tail
			}
			for r, id := range idx[s:e] {
				ws.in.SetRow(r, x.Row(id))
				ws.tgt.SetRow(r, y.Row(id))
			}
			sum += n.trainStepWS(ws, opt, ws.in, ws.tgt)
			batches++
		}
		last = sum / float64(batches)
	}
	return last
}

// Predict returns the network output for a single sample.
func (n *Net) Predict(sample []float64) []float64 {
	x := tensor.NewFromRows([][]float64{sample})
	out := n.Forward(x)
	return append([]float64(nil), out.Row(0)...)
}
