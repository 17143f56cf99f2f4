package henn

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/ring"
)

// rotationSpans records the wall-clock interval of every rotation the
// evaluator completes, hoisted or plain, through the process-wide stage
// observer, until the test ends.
func rotationSpans(t *testing.T) (overlap func() bool, reset func()) {
	var mu sync.Mutex
	var spans [][2]time.Time
	ckks.SetStageObserver(func(stage string, d time.Duration) {
		if stage != "rotate_hoisted" && stage != "rotate" {
			return
		}
		end := time.Now()
		mu.Lock()
		spans = append(spans, [2]time.Time{end.Add(-d), end})
		mu.Unlock()
	})
	t.Cleanup(func() { ckks.SetStageObserver(nil) })
	overlap = func() bool {
		mu.Lock()
		defer mu.Unlock()
		sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
		for i := 1; i < len(spans); i++ {
			if spans[i][0].Before(spans[i-1][1]) {
				return true
			}
		}
		return false
	}
	reset = func() {
		mu.Lock()
		spans = spans[:0]
		mu.Unlock()
	}
	return overlap, reset
}

// TestLinearFanMatchesSerial: a linear layer fanned over its baby rotations
// and giant blocks returns the serial layer's bytes. On hennbench's two
// model shapes at LogN 10 — 128→128→4 behind f1∘g2, 8→8→4 behind alpha10 —
// one Infer with the ring's fan off is the reference, and each of five with
// the default width on at least two Ps must equal it in C0, C1, level and
// scale. The serial run's rotations never overlap in time; some of the fanned
// runs' rotations must, or the fan never ran.
func TestLinearFanMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	overlap, reset := rotationSpans(t)
	for _, shape := range []struct {
		name string
		dims []int
		form string
	}{
		{"128-128-4", []int{128, 128, 4}, paf.FormF1G2},
		{"8-8-4", []int{8, 8, 4}, paf.FormAlpha10},
	} {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(35))
			layers := denseLayers(shape.dims...)(rng)
			act := &Activation{PAF: paf.MustNew(shape.form), Scale: 4}
			mlp := &MLP{Layers: []any{layers[0], act, layers[1]}}
			ctx, encryptor, _ := newHEContextLogN(t, 10, mlp.LevelsRequired(), mlp.ServingRotations(512))
			vec := make([]float64, ctx.Params.Slots())
			for i := 0; i < shape.dims[0]; i++ {
				vec[i] = rng.Float64()*2 - 1
			}
			pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			ct := encryptor.Encrypt(pt)

			ring.SetParallelism(1)
			reset()
			want, err := ctx.Infer(mlp, ct)
			ring.SetParallelism(0)
			if err != nil {
				t.Fatal(err)
			}
			if overlap() {
				t.Fatal("two rotations overlapped with the ring's fan off")
			}
			reset()
			for run := range 5 {
				got, err := ctx.Infer(mlp, ct)
				if err != nil {
					t.Fatal(err)
				}
				if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) || got.Level != want.Level || got.Scale != want.Scale {
					t.Fatalf("fanned run %d differs from the serial run", run)
				}
				ctx.Eval.Recycle(got)
			}
			if !overlap() {
				t.Error("no two rotations of five fanned runs overlapped: the layer never fanned")
			}
		})
	}
}
