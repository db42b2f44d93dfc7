//! Train a small CNN classifier end-to-end — the paper's motivating
//! workload ("especially focused on the training part") — with the
//! convolution layer running on the simulated SW26010.
//!
//! The task is a synthetic 4-class problem: each 12×12 image contains a
//! bright quadrant; the network must say which. Small enough to train in
//! seconds, structured enough that a conv + pool + fc stack is the right
//! tool.
//!
//! ```sh
//! cargo run --release --example train_cnn
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use swdnn::layers::{Conv2dLayer, Engine, Linear, MaxPool2, ReLU};
use swdnn::network::Sequential;
use swdnn::{ConvShape, Layout, Tensor4};

const BATCH: usize = 32;
const CLASSES: usize = 4;

/// Images with one bright quadrant; label = quadrant index.
fn make_batch(seed: u64) -> (Tensor4<f64>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = sw_tensor::Shape4::new(BATCH, 1, 12, 12);
    let mut x = Tensor4::zeros(s, Layout::Nchw);
    let mut y = Vec::with_capacity(BATCH);
    for b in 0..BATCH {
        let class = rng.gen_range(0..CLASSES);
        let (r0, c0) = ((class / 2) * 6, (class % 2) * 6);
        for r in 0..12 {
            for c in 0..12 {
                let inside = (r0..r0 + 6).contains(&r) && (c0..c0 + 6).contains(&c);
                let v = if inside { 1.0 } else { 0.1 } + rng.gen_range(-0.05..0.05);
                x.set(b, 0, r, c, v);
            }
        }
        y.push(class);
    }
    (x, y)
}

/// The network, and a handle on conv2 — the mesh-eligible layer
/// (32 × 8→8 @ 8×8; conv1's single input channel does not tile the mesh).
fn build(engine: Engine) -> (Sequential, Rc<RefCell<Conv2dLayer>>) {
    // 1x12x12 -> conv(8ch, 3x3) -> 8x10x10 -> relu -> pool -> 8x5x5... 5 is
    // odd for pooling; use 4x4 output via a second conv instead:
    // conv1: 1 -> 8, out 10x10; relu; pool -> 8x5x5 is odd, so conv to 8x8:
    let conv1 =
        Conv2dLayer::new(ConvShape::new(BATCH, 1, 8, 10, 10, 3, 3), engine, 1).expect("conv1");
    let conv2 =
        Conv2dLayer::new(ConvShape::new(BATCH, 8, 8, 8, 8, 3, 3), engine, 2).expect("conv2");
    let conv2 = Rc::new(RefCell::new(conv2));
    let net = Sequential::new(vec![
        Box::new(conv1),
        Box::new(ReLU::new()),
        Box::new(conv2.clone()),
        Box::new(ReLU::new()),
        Box::new(MaxPool2::new()),
        Box::new(Linear::new(8 * 4 * 4, CLASSES, 3)),
    ]);
    (net, conv2)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Host engine for training speed; the simulated engine is exercised on
    // one batch at the end to show the acceleration path.
    let (mut net, _) = build(Engine::Host);
    println!("network: conv(1->8,3x3) relu conv(8->8,3x3) relu maxpool fc({CLASSES})");
    println!("trainable parameters: {}", net.param_count());

    let lr = 0.05;
    let epochs = 40;
    for epoch in 0..epochs {
        let mut loss_sum = 0.0;
        for step in 0..4 {
            let (x, y) = make_batch(1000 + (epoch * 4 + step) as u64 % 16);
            loss_sum += net.train_step(&x, &y, lr)?;
        }
        if epoch % 8 == 0 || epoch == epochs - 1 {
            let (xv, yv) = make_batch(99);
            let acc = net.accuracy(&xv, &yv)?;
            println!(
                "epoch {epoch:2}: loss {:.4}, held-out accuracy {:.0}%",
                loss_sum / 4.0,
                acc * 100.0
            );
        }
    }
    let (xt, yt) = make_batch(123);
    let acc = net.accuracy(&xt, &yt)?;
    println!("final held-out accuracy: {:.0}%", acc * 100.0);
    assert!(acc > 0.9, "the synthetic task should be learned");

    // One training step with the convolutions on the simulated SW26010.
    // Exits non-zero unless conv2 ran both backward passes on the chip.
    println!("\nrunning one batch with convolutions on the simulated chip...");
    let (mut sim_net, conv2) = build(Engine::Simulated);
    let (x, y) = make_batch(7);
    let loss = sim_net.train_step(&x, &y, lr)?;
    println!("simulated-engine training step complete (loss {loss:.4}).");
    let c = conv2.borrow().pass_cycles;
    println!(
        "conv2 on the chip: forward {} / bwd-data {} / bwd-filter {} cycles",
        c.forward, c.bwd_data, c.bwd_filter
    );
    if c.bwd_data == 0 || c.bwd_filter == 0 {
        eprintln!("conv2 ran a backward pass on the host instead of the chip");
        std::process::exit(1);
    }
    println!("ok.");
    Ok(())
}
