//! Bit-identity of the arena-backed forward path and of the inference
//! forward.
//!
//! The hard invariant of the activation arena is that
//! `Layer::forward_into` produces *bit-identical* outputs to the
//! fresh-allocation `Layer::forward` — for every built-in layer type, in
//! `Mode::Train`, `Mode::Eval` and `Mode::Infer` — and that the backward
//! passes after an arena forward see exactly the cached activations they
//! would have seen after a fresh forward (same input gradients, same
//! parameter gradient/Hessian accumulators).
//!
//! `Mode::Infer` must compute the `Mode::Eval` output bit for bit while
//! keeping no backward caches: a backward after it panics instead of
//! reading an older batch.

use swim_nn::arena::ActivationArena;
use swim_nn::layer::{Layer, Mode};
use swim_nn::layers::{
    ActQuant, AvgPool2d, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
    Residual, Sequential, Smooth, SmoothActivation,
};
use swim_nn::models::{ConvNetConfig, LeNetConfig, ResNet18Config};
use swim_nn::network::Network;
use swim_tensor::{Prng, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Collects every parameter's gradient and Hessian accumulator.
fn param_state(layer: &mut dyn Layer) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push((p.grad.data().to_vec(), p.hess.data().to_vec())));
    out
}

/// Drives `fresh` through the allocating path and an identical clone
/// through the arena path — three forward passes (so the arena is warm
/// and reused), then backward and second-order backward — asserting
/// bit-identical outputs, input derivatives, and parameter accumulators
/// at every step.
fn assert_bit_identical(fresh: &mut dyn Layer, input: &Tensor, mode: Mode, label: &str) {
    let mut arena_copy = fresh.clone_layer();
    let mut arena = ActivationArena::new();

    for pass in 0..3 {
        let y_fresh = fresh.forward(input, mode);
        let y_arena = arena_copy.forward_into(input, mode, &mut arena);
        assert_eq!(y_fresh.shape(), y_arena.shape(), "{label}: shape, pass {pass}");
        assert_eq!(y_fresh.data(), y_arena.data(), "{label}: forward, pass {pass}");
        arena.recycle(y_arena);
    }

    // Backward passes after the (third) forward must see the same cached
    // activations on both sides.
    let mut rng = Prng::seed_from_u64(0xBAC4);
    let shape = fresh.forward(input, mode).shape().to_vec();
    let y_arena = arena_copy.forward_into(input, mode, &mut arena);
    arena.recycle(y_arena);
    let upstream = Tensor::randn(&shape, &mut rng);

    let g_fresh = fresh.backward(&upstream);
    let g_arena = arena_copy.backward(&upstream);
    assert_eq!(g_fresh.data(), g_arena.data(), "{label}: backward");

    let h_fresh = fresh.second_backward(&upstream);
    let h_arena = arena_copy.second_backward(&upstream);
    assert_eq!(h_fresh.data(), h_arena.data(), "{label}: second_backward");

    let fresh_params = param_state(fresh);
    let arena_params = param_state(arena_copy.as_mut());
    assert_eq!(fresh_params, arena_params, "{label}: parameter grad/hess");
}

/// `Mode::Infer` on both forward paths, three passes each (warm caches
/// and arena), against an `Eval` forward of an identical clone: the same
/// bits every time.
fn assert_infer_matches_eval(layer: &dyn Layer, input: &Tensor, label: &str) {
    let mut eval = layer.clone_layer();
    let mut fresh = layer.clone_layer();
    let mut pooled = layer.clone_layer();
    let mut arena = ActivationArena::new();
    for pass in 0..3 {
        let want = eval.forward(input, Mode::Eval);
        let got = fresh.forward(input, Mode::Infer);
        assert_eq!(got.shape(), want.shape(), "{label}: infer shape, pass {pass}");
        assert_eq!(bits(&got), bits(&want), "{label}: infer forward, pass {pass}");
        let got = pooled.forward_into(input, Mode::Infer, &mut arena);
        assert_eq!(bits(&got), bits(&want), "{label}: infer forward_into, pass {pass}");
        arena.recycle(got);
    }
}

fn both_modes(mut layer: Box<dyn Layer>, input: &Tensor, label: &str) {
    for mode in [Mode::Train, Mode::Eval] {
        assert_bit_identical(layer.as_mut(), input, mode, &format!("{label}/{mode:?}"));
    }
    assert_infer_matches_eval(layer.as_ref(), input, &format!("{label}/Infer"));
}

#[test]
fn linear_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(1);
    let layer = Linear::new(5, 7, &mut rng);
    let x = Tensor::randn(&[4, 5], &mut rng);
    both_modes(Box::new(layer), &x, "Linear");
}

#[test]
fn conv2d_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(2);
    for &(cin, cout, k, s, p, h, w) in
        &[(2usize, 3usize, 3usize, 1usize, 1usize, 6usize, 6usize), (1, 2, 3, 2, 0, 7, 5)]
    {
        let layer = Conv2d::new(cin, cout, k, s, p, &mut rng);
        let x = Tensor::randn(&[3, cin, h, w], &mut rng);
        both_modes(Box::new(layer), &x, &format!("Conv2d(k{k},s{s},p{p})"));
    }
}

#[test]
fn relu_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(3);
    let x = Tensor::randn(&[4, 9], &mut rng);
    both_modes(Box::new(Relu::new()), &x, "ReLU");
    let specials = [0.0f32, -0.0, f32::NAN, -1.0, 2.5, f32::NEG_INFINITY, f32::INFINITY, 1e-40];
    let soup = Tensor::from_fn(&[3, 8], |i| specials[i * 5 % specials.len()]);
    assert_infer_matches_eval(&Relu::new(), &soup, "ReLU/specials");
}

#[test]
fn smooth_activations_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(4);
    let x = Tensor::randn(&[3, 6], &mut rng);
    both_modes(Box::new(SmoothActivation::new(Smooth::Tanh)), &x, "Tanh");
    both_modes(Box::new(SmoothActivation::new(Smooth::Sigmoid)), &x, "Sigmoid");
}

#[test]
fn pools_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(5);
    let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
    both_modes(Box::new(MaxPool2d::new(2)), &x, "MaxPool2d");
    // Odd sides (truncated windows) and the general window.
    let odd = Tensor::randn(&[2, 2, 7, 5], &mut rng);
    both_modes(Box::new(MaxPool2d::new(2)), &odd, "MaxPool2d/odd");
    both_modes(Box::new(MaxPool2d::new(3)), &x, "MaxPool2d/3x3");
    // Ties, signed zeros, NaN and infinities: the 2×2 inference fast
    // path must keep the general loop's first-wins comparison order.
    let specials = [0.0f32, -0.0, f32::NAN, 1.0, 1.0, f32::NEG_INFINITY, -0.0, 0.0, f32::INFINITY];
    let soup = Tensor::from_fn(&[2, 3, 6, 6], |i| specials[i * 7 % specials.len()]);
    assert_infer_matches_eval(&MaxPool2d::new(2), &soup, "MaxPool2d/specials");
    both_modes(Box::new(AvgPool2d::new(3)), &x, "AvgPool2d");
    both_modes(Box::new(GlobalAvgPool::new()), &x, "GlobalAvgPool");
}

#[test]
fn batchnorm_is_bit_identical() {
    // Train mode also advances the running statistics on both copies —
    // they must stay in lockstep across the repeated passes.
    let mut rng = Prng::seed_from_u64(6);
    let x = Tensor::from_fn(&[4, 3, 4, 4], |_| rng.normal_f32(1.5, 2.0));
    both_modes(Box::new(BatchNorm2d::new(3)), &x, "BatchNorm2d");
}

#[test]
fn flatten_and_actquant_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(7);
    let x = Tensor::randn(&[3, 2, 4, 4], &mut rng);
    both_modes(Box::new(Flatten::new()), &x, "Flatten");
    let flat = Tensor::randn(&[3, 10], &mut rng);
    both_modes(Box::new(ActQuant::new(4)), &flat, "ActQuant/signed");
    both_modes(Box::new(ActQuant::unsigned(4)), &flat, "ActQuant/unsigned");
}

#[test]
fn residual_blocks_are_bit_identical() {
    let mut rng = Prng::seed_from_u64(8);
    let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);

    let mut main = Sequential::new();
    main.push(Conv2d::new(3, 3, 3, 1, 1, &mut rng));
    both_modes(Box::new(Residual::new(main)), &x, "Residual/identity");

    let mut main = Sequential::new();
    main.push(Conv2d::new(3, 4, 3, 1, 1, &mut rng));
    let mut shortcut = Sequential::new();
    shortcut.push(Conv2d::new(3, 4, 1, 1, 0, &mut rng));
    both_modes(Box::new(Residual::with_shortcut(main, shortcut)), &x, "Residual/projection");
}

#[test]
fn sequential_stack_is_bit_identical() {
    let mut rng = Prng::seed_from_u64(9);
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 3, 3, 1, 1, &mut rng));
    seq.push(Relu::new());
    seq.push(ActQuant::unsigned(4));
    seq.push(MaxPool2d::new(2));
    seq.push(BatchNorm2d::new(3));
    seq.push(Flatten::new());
    seq.push(Linear::new(3 * 4 * 4, 6, &mut rng));
    seq.push(SmoothActivation::new(Smooth::Tanh));
    seq.push(Linear::new(6, 3, &mut rng));
    let x = Tensor::randn(&[5, 1, 8, 8], &mut rng);
    both_modes(Box::new(seq), &x, "Sequential/lenet-ish");
}

#[test]
fn empty_sequential_copies_input() {
    let mut seq = Sequential::new();
    let mut arena = ActivationArena::new();
    let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
    let y = seq.forward_into(&x, Mode::Eval, &mut arena);
    assert_eq!(y, x);
}

#[test]
fn sequential_chain_settles_into_ping_pong() {
    // After recycling the final output, a purely sequential network
    // parks exactly two buffers in the arena — the double-buffer pair —
    // and repeated passes neither grow nor shrink the pool.
    let mut rng = Prng::seed_from_u64(10);
    let mut seq = Sequential::new();
    seq.push(Linear::new(8, 16, &mut rng));
    seq.push(Relu::new());
    seq.push(Linear::new(16, 16, &mut rng));
    seq.push(Relu::new());
    seq.push(Linear::new(16, 4, &mut rng));
    let x = Tensor::randn(&[6, 8], &mut rng);
    let mut arena = ActivationArena::new();
    for _ in 0..4 {
        let y = seq.forward_into(&x, Mode::Eval, &mut arena);
        arena.recycle(y);
        assert_eq!(arena.pooled(), 2, "sequential chain should double-buffer");
    }
}

#[test]
fn network_accuracy_with_matches_accuracy() {
    let mut rng = Prng::seed_from_u64(11);
    let mut seq = Sequential::new();
    seq.push(Flatten::new());
    seq.push(Linear::new(12, 10, &mut rng));
    seq.push(Relu::new());
    seq.push(Linear::new(10, 3, &mut rng));
    let mut net = Network::new("acc", seq);
    let images = Tensor::randn(&[23, 1, 3, 4], &mut rng);
    let labels: Vec<usize> = (0..23).map(|i| i % 3).collect();
    let mut arena = ActivationArena::new();
    // Uneven final batch exercises the shrinking batch buffer.
    for batch in [4usize, 7, 23, 64] {
        let fresh = net.accuracy(&images, &labels, batch);
        let pooled = net.accuracy_with(&images, &labels, batch, &mut arena);
        assert_eq!(fresh, pooled, "batch {batch}");
    }
}

#[test]
fn default_shim_keeps_exotic_layers_working() {
    /// A layer that does not implement `forward_into`.
    #[derive(Clone)]
    struct Doubler;
    impl Layer for Doubler {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.map(|x| 2.0 * x)
        }
        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            grad_output.map(|g| 2.0 * g)
        }
        fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
            hess_output.map(|h| 4.0 * h)
        }
        fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut swim_nn::Param)) {}
        fn describe(&self) -> String {
            "Doubler".into()
        }
        fn clone_layer(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    let mut rng = Prng::seed_from_u64(12);
    let x = Tensor::randn(&[2, 5], &mut rng);
    both_modes(Box::new(Doubler), &x, "Doubler(shim)");

    // And inside a Sequential arena pass, the shim output flows through.
    let mut seq = Sequential::new();
    seq.push(Doubler);
    seq.push(Relu::new());
    let mut arena = ActivationArena::new();
    let via_arena = seq.forward_into(&x, Mode::Eval, &mut arena);
    let fresh = seq.forward(&x, Mode::Eval);
    assert_eq!(via_arena.data(), fresh.data());
}

/// The Monte Carlo scoring path (`accuracy_with`, now an `Infer`
/// forward) against `Eval` logits on the three model families: the same
/// logits bit for bit, so the same accuracy.
#[test]
fn infer_accuracy_matches_eval_on_the_model_zoo() {
    let mut rng = Prng::seed_from_u64(13);
    let models = [
        (LeNetConfig::default().build(1), vec![1, 28, 28]),
        (ConvNetConfig::reduced(0.25).build(2), vec![3, 32, 32]),
        (ResNet18Config::reduced(0.125).build(3), vec![3, 32, 32]),
    ];
    for (mut net, image) in models {
        let n = 7;
        let images = Tensor::randn(&[&[n][..], &image[..]].concat(), &mut rng);
        let logits = net.forward(&images, Mode::Eval);
        let classes = logits.shape()[1];
        let labels: Vec<usize> = (0..n).map(|i| i * 3 % classes).collect();
        let mut eval = net.clone();
        let mut infer = net.clone();
        assert_eq!(
            bits(&infer.forward(&images, Mode::Infer)),
            bits(&eval.forward(&images, Mode::Eval)),
            "{}: logits",
            net.name()
        );
        let preds = logits.argmax_rows();
        let want = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64 / n as f64;
        let mut arena = ActivationArena::new();
        for batch in [3usize, n] {
            let got = infer.accuracy_with(&images, &labels, batch, &mut arena);
            assert_eq!(got, want, "{}: accuracy_with, batch {batch}", net.name());
            assert_eq!(infer.accuracy(&images, &labels, batch), want, "{}: accuracy", net.name());
        }
        assert_eq!(infer.predict(&images), preds, "{}: predict", net.name());
    }
}

/// A backward pass after `Train` → `Infer` must panic, not read the
/// training batch's caches; a later `Eval` forward makes it work again.
#[test]
fn backward_after_infer_panics() {
    let mut rng = Prng::seed_from_u64(14);
    let image = Tensor::randn(&[2, 2, 6, 6], &mut rng);
    let flat = Tensor::randn(&[2, 5], &mut rng);
    let layers: Vec<(Box<dyn Layer>, &Tensor)> = vec![
        (Box::new(Conv2d::new(2, 3, 3, 1, 1, &mut rng)), &image),
        (Box::new(Linear::new(5, 4, &mut rng)), &flat),
        (Box::new(Relu::new()), &image),
        (Box::new(MaxPool2d::new(2)), &image),
    ];
    for (mut layer, x) in layers {
        let label = layer.describe();
        let upstream = layer.forward(x, Mode::Train);
        layer.backward(&upstream);
        layer.forward(x, Mode::Infer);
        for second in [false, true] {
            let mut probe = layer.clone_layer();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if second {
                    probe.second_backward(&upstream);
                } else {
                    probe.backward(&upstream);
                }
            }));
            let payload = result.expect_err(&format!("{label}: backward after Infer returned"));
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(message.contains("backward called before forward"), "{label}: {message}");
        }
        layer.forward(x, Mode::Eval);
        layer.backward(&upstream);
        layer.second_backward(&upstream);
    }
}
