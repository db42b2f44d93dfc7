//! End-to-end training tests: the full layer stack learns, gradients are
//! correct through composition, and the simulated-chip convolution path is
//! interchangeable with the host path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use swdnn::layers::{AvgPool2, Conv2dLayer, Engine, Linear, MaxPool2, PassCycles, ReLU};
use swdnn::network::Sequential;
use swdnn::{ConvShape, Layout, Tensor4};

/// Two-class task: left or right half brighter.
fn halves_batch(batch: usize, seed: u64) -> (Tensor4<f64>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = sw_tensor::Shape4::new(batch, 1, 6, 6);
    let mut x = Tensor4::zeros(s, Layout::Nchw);
    let mut y = Vec::with_capacity(batch);
    for b in 0..batch {
        let class = rng.gen_range(0..2usize);
        for r in 0..6 {
            for c in 0..6 {
                let bright = if (class == 0) == (c < 3) { 1.0 } else { 0.1 };
                x.set(b, 0, r, c, bright + rng.gen_range(-0.05..0.05));
            }
        }
        y.push(class);
    }
    (x, y)
}

fn cnn(engine: Engine, batch: usize) -> Sequential {
    let conv = Conv2dLayer::new(ConvShape::new(batch, 1, 2, 4, 4, 3, 3), engine, 100).unwrap();
    Sequential::new(vec![
        Box::new(conv),
        Box::new(ReLU::new()),
        Box::new(MaxPool2::new()),
        Box::new(Linear::new(2 * 2 * 2, 2, 101)),
    ])
}

#[test]
fn cnn_learns_with_host_convolutions() {
    let mut net = cnn(Engine::Host, 16);
    let (x, y) = halves_batch(16, 1);
    let first = net.train_step(&x, &y, 0.15).unwrap();
    for _ in 0..60 {
        net.train_step(&x, &y, 0.15).unwrap();
    }
    let (xt, yt) = halves_batch(16, 2);
    let acc = net.accuracy(&xt, &yt).unwrap();
    assert!(acc >= 0.9, "accuracy {acc}");
    let last = net.train_step(&x, &y, 0.15).unwrap();
    assert!(last < first * 0.3, "loss {first} -> {last}");
}

#[test]
fn simulated_and_host_training_take_identical_steps() {
    // Same init, same data => identical parameters after a step, because
    // the simulated convolution is numerically equal to the host one
    // within fp tolerance.
    let batch = 16;
    let (x, y) = halves_batch(batch, 3);
    let mut host = cnn(Engine::Host, batch);
    let mut sim = cnn(Engine::Simulated, batch);
    let lh = host.train_step(&x, &y, 0.1).unwrap();
    let ls = sim.train_step(&x, &y, 0.1).unwrap();
    assert!((lh - ls).abs() < 1e-9, "losses {lh} vs {ls}");
    let logits_h = host.forward(&x).unwrap();
    let logits_s = sim.forward(&x).unwrap();
    assert!(logits_h.approx_eq(&logits_s, 1e-8));
}

#[test]
fn whole_network_gradient_descends() {
    // Composition check through the full stack (conv -> relu -> avgpool
    // -> fc -> softmax): a small SGD step along the backpropagated
    // gradient must strictly reduce the loss, and rebuilding the network
    // from the same seeds must reproduce it exactly.
    let batch = 4;
    let build = || {
        let conv =
            Conv2dLayer::new(ConvShape::new(batch, 1, 2, 4, 4, 3, 3), Engine::Host, 5).unwrap();
        Sequential::new(vec![
            Box::new(conv) as Box<dyn swdnn::layers::Layer>,
            Box::new(ReLU::new()),
            Box::new(AvgPool2::new()),
            Box::new(Linear::new(2 * 2 * 2, 2, 6)),
        ])
    };
    let (x, y) = halves_batch(batch, 7);

    let mut net = build();
    let l0 = net.train_step(&x, &y, 1e-3).unwrap();
    let l1 = net.train_step(&x, &y, 0.0).unwrap();
    assert!(l1 < l0, "a gradient step must descend: {l0} -> {l1}");

    let mut net2 = build();
    let l0_again = net2.train_step(&x, &y, 1e-3).unwrap();
    assert_eq!(l0, l0_again, "deterministic rebuild");
}

#[test]
fn training_is_deterministic() {
    let (x, y) = halves_batch(16, 11);
    let mut a = cnn(Engine::Host, 16);
    let mut b = cnn(Engine::Host, 16);
    for _ in 0..5 {
        let la = a.train_step(&x, &y, 0.1).unwrap();
        let lb = b.train_step(&x, &y, 0.1).unwrap();
        assert_eq!(la, lb);
    }
}

#[test]
fn deeper_stack_with_both_pools_trains() {
    let batch = 8;
    let conv1 =
        Conv2dLayer::new(ConvShape::new(batch, 1, 4, 4, 4, 3, 3), Engine::Host, 21).unwrap();
    let mut net = Sequential::new(vec![
        Box::new(conv1),
        Box::new(ReLU::new()),
        Box::new(AvgPool2::new()),
        Box::new(Linear::new(4 * 2 * 2, 2, 23)),
    ]);
    let (x, y) = halves_batch(batch, 13);
    let first = net.train_step(&x, &y, 0.1).unwrap();
    let mut last = first;
    for _ in 0..40 {
        last = net.train_step(&x, &y, 0.1).unwrap();
    }
    assert!(last < first, "loss should decrease: {first} -> {last}");
}

#[test]
fn train_sim_network_pass_cycles_are_pinned() {
    // The benchmark's train_sim network, B 32: conv 8→16 @ 16×16 → ReLU →
    // pool → conv 16→32 @ 6×6 → ReLU → FC, convolutions on the simulated
    // chip. Every pass of both layers runs on the mesh — a nonzero
    // bwd-data count rules out a silent fallback to the host loops. With
    // backward-data lowered to a zero-padded forward convolution the
    // bwd-data counts were 867 824 and 359 480.
    let convs = [
        ConvShape::new(32, 8, 16, 16, 16, 3, 3),
        ConvShape::new(32, 16, 32, 6, 6, 3, 3),
    ]
    .map(|s| {
        Rc::new(RefCell::new(
            Conv2dLayer::new(s, Engine::Simulated, 7).unwrap(),
        ))
    });
    let mut net = Sequential::new(vec![
        Box::new(convs[0].clone()),
        Box::new(ReLU::new()),
        Box::new(MaxPool2::new()),
        Box::new(convs[1].clone()),
        Box::new(ReLU::new()),
        Box::new(Linear::new(32 * 6 * 6, 4, 8)),
    ]);
    let x = sw_tensor::init::seeded_tensor(sw_tensor::Shape4::new(32, 8, 18, 18), Layout::Nchw, 9);
    let y: Vec<usize> = (0..32).map(|b| b % 4).collect();
    net.train_step(&x, &y, 0.05).unwrap();
    let cycles = convs.map(|c| c.borrow().pass_cycles);
    let pass = |forward, bwd_data, bwd_filter| PassCycles {
        forward,
        bwd_data,
        bwd_filter,
    };
    assert_eq!(
        cycles,
        [
            pass(490_456, 152_614, 223_707),
            pass(156_800, 74_458, 113_308)
        ]
    );
}
