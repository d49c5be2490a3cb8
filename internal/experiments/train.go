package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mlkit"
	"repro/internal/models"
	"repro/internal/photonic"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// CollectDataset runs every pair under the given wavelength-state policy
// and harvests (window-k features, window-k+1 injected packets) examples
// from every router — the paper's labelling (§IV.A: the label is "the
// number of packets that are being injected into the router" next
// window, chosen over utilisation metrics to decouple the label from the
// current wavelength state).
func CollectDataset(pairs []traffic.Pair, window int, opts Options, policy core.StatePolicy) (*mlkit.Dataset, error) {
	// A random policy's RNG is forked once per pair, in pair order,
	// before any worker starts: one shared generator would be a data race
	// and would make the dataset depend on goroutine scheduling.
	policies := make([]core.StatePolicy, len(pairs))
	for i := range policies {
		policies[i] = policy
		if rp, ok := policy.(core.RandomPolicy); ok {
			policies[i] = core.RandomPolicy{RNG: rp.RNG.Fork()}
		}
	}
	parts, err := parallelMap(len(pairs), func(i int) (*mlkit.Dataset, error) {
		part := mlkit.NewDataset(core.FeatureCount)
		if err := collectOne(part, pairs[i], window, opts, policies[i], opts.Seed+uint64(i)*7919); err != nil {
			return nil, fmt.Errorf("experiments: collecting %s: %w", pairs[i].Name(), err)
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}
	ds := mlkit.NewDataset(core.FeatureCount)
	for _, part := range parts {
		ds.Merge(part)
	}
	return ds, nil
}

func collectOne(ds *mlkit.Dataset, pair traffic.Pair, window int, opts Options, policy core.StatePolicy, seed uint64) error {
	engine := sim.NewEngine()
	cfg := config.MLRW(window, false) // 8WL excluded during training (§IV.B)
	net, err := core.New(engine, cfg)
	if err != nil {
		return err
	}
	net.SetStatePolicy(policy)
	w, err := traffic.NewWorkload(engine, net, pair, runSeed(seed, pair.Name()))
	if err != nil {
		return err
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)

	prev := make(map[int][]float64, config.NumRouters)
	net.SetWindowHook(func(router int, feats []float64, injected int64, _ float64, _ photonic.WLState) {
		if p, ok := prev[router]; ok {
			ds.Add(p, float64(injected))
		}
		prev[router] = feats
	})
	engine.Run(opts.WarmupCycles + opts.CollectCycles)
	return nil
}

// Train runs the full two-pass §IV.A pipeline for one window size:
//
//  1. Collect training and validation data under uniformly random
//     wavelength states ("to avoid influencing the ML process by a
//     predefined pattern").
//  2. Fit an initial model, tuning λ on the validation pairs.
//  3. Re-collect with the wavelength states chosen by the initial model
//     ("designed to best mimic the testing environment").
//  4. Fit and tune the final model on the second-pass data.
//
// The result is a deployable model artifact (content-hashed, schema-
// versioned) ready for pearld's model registry or a local file.
func Train(window int, opts Options) (*models.Artifact, error) {
	if len(opts.TrainPairs) == 0 || len(opts.ValPairs) == 0 {
		return nil, fmt.Errorf("experiments: training needs train and validation pairs")
	}
	randomPolicy := core.RandomPolicy{RNG: sim.NewRNG(opts.Seed ^ 0x5ee4)}
	train1, err := CollectDataset(opts.TrainPairs, window, opts, randomPolicy)
	if err != nil {
		return nil, err
	}
	val1, err := CollectDataset(opts.ValPairs, window, opts, randomPolicy)
	if err != nil {
		return nil, err
	}
	initial, _, _, err := mlkit.TuneLambda(train1, val1, mlkit.DefaultLambdas())
	if err != nil {
		return nil, fmt.Errorf("experiments: pass-1 fit: %w", err)
	}

	pass2Policy := core.MLPolicy{
		Model:    core.PredictorFunc(initial.Predict),
		Allow8WL: false,
	}
	train2, err := CollectDataset(opts.TrainPairs, window, opts, pass2Policy)
	if err != nil {
		return nil, err
	}
	val2, err := CollectDataset(opts.ValPairs, window, opts, pass2Policy)
	if err != nil {
		return nil, err
	}
	final, lambda, score, err := mlkit.TuneLambda(train2, val2, mlkit.DefaultLambdas())
	if err != nil {
		return nil, fmt.Errorf("experiments: pass-2 fit: %w", err)
	}
	return models.New(window, lambda, score, final.Params(), models.Meta{
		Seed:       opts.Seed,
		TrainPairs: len(opts.TrainPairs),
		ValPairs:   len(opts.ValPairs),
	})
}

// Evaluation holds the §IV.C prediction-quality numbers for one window.
type Evaluation struct {
	Window int
	// ValScore and TestScore are the NRMSE-style fit scores (paper: 0.79
	// validation for both windows; 0.68 test at RW500, 0.05 at RW2000).
	ValScore, TestScore float64
	// TopStateAccuracy is how often the model's chosen state agrees with
	// the ideal state on "is the 64WL top state needed" (paper: 99.9%
	// for RW2000).
	TopStateAccuracy float64
	// StateAccuracy is exact state agreement.
	StateAccuracy float64
	// Examples is the size of the test set.
	Examples int
}

// Evaluate runs the trained model over test-pair data collected in its
// own deployment conditions and scores predictions against the true
// next-window injections.
func Evaluate(model *models.Artifact, opts Options) (Evaluation, error) {
	policy := core.MLPolicy{Model: model, Allow8WL: false}
	testDS, err := CollectDataset(opts.Pairs, model.Window, opts, policy)
	if err != nil {
		return Evaluation{}, err
	}
	if testDS.Len() == 0 {
		return Evaluation{}, fmt.Errorf("experiments: empty test dataset")
	}
	x, y := testDS.Design()
	pred := model.Ridge().PredictAll(x)
	score := mlkit.Score(pred, y)

	meanBits := float64(config.FlitBits)
	topAgree, exactAgree := 0, 0
	for i := range y {
		want := core.StateForPrediction(y[i], meanBits, model.Window, false)
		got := core.StateForPrediction(pred[i], meanBits, model.Window, false)
		if (want == photonic.WL64) == (got == photonic.WL64) {
			topAgree++
		}
		if want == got {
			exactAgree++
		}
	}
	n := float64(len(y))
	return Evaluation{
		Window:           model.Window,
		ValScore:         model.ValScore,
		TestScore:        score,
		TopStateAccuracy: float64(topAgree) / n,
		StateAccuracy:    float64(exactAgree) / n,
		Examples:         len(y),
	}, nil
}
