package nn

import (
	"math"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// SoftmaxCrossEntropy computes mean cross-entropy loss over the batch and
// the gradient with respect to the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	n, c := logits.Shape[0], logits.Shape[1]
	grad = tensor.New(n, c)
	for b := 0; b < n; b++ {
		row := logits.Data[b*c : (b+1)*c]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		logSum := math.Log(sum) + maxV
		loss += logSum - row[labels[b]]
		gRow := grad.Data[b*c : (b+1)*c]
		for j, v := range row {
			p := math.Exp(v - logSum)
			gRow[j] = p / float64(n)
		}
		gRow[labels[b]] -= 1 / float64(n)
	}
	return loss / float64(n), grad
}

// TrainStep runs forward, loss, backward and optimizer steps for one batch,
// returning the loss. Optimizers may be nil (e.g. during Alternate Training
// only one group steps).
func TrainStep(m *Model, b data.Batch, optPAF, optLinear *Adam) float64 {
	m.ZeroGrad()
	logits := m.Forward(b.X, true)
	loss, grad := SoftmaxCrossEntropy(logits, b.Y)
	m.Backward(grad)
	params := m.Params()
	if optPAF != nil {
		optPAF.Step(filterGroup(params, GroupPAF))
	}
	if optLinear != nil {
		optLinear.Step(filterGroup(params, GroupLinear))
	}
	return loss
}

func filterGroup(params []*Param, group string) []*Param {
	var out []*Param
	for _, p := range params {
		if p.Group == group {
			out = append(out, p)
		}
	}
	return out
}

// Accuracy evaluates top-1 accuracy over the provided batches.
func Accuracy(m *Model, batches []data.Batch) float64 {
	var correct, total int
	for _, b := range batches {
		logits := m.Forward(b.X, false)
		n, c := logits.Shape[0], logits.Shape[1]
		for i := 0; i < n; i++ {
			row := logits.Data[i*c : (i+1)*c]
			best := 0
			for j := 1; j < c; j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			if best == b.Y[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
