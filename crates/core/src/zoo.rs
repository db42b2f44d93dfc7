//! Ready-made network architectures.
//!
//! Small, classic CNN shapes wired from the layer stack — the "deep
//! learning applications" of the title, sized so the examples and tests
//! can train them in seconds while still exercising every layer type.

use crate::error::SwdnnError;
use crate::layers::{Conv2dLayer, Engine, Linear, MaxPool2, Tanh};
use crate::network::Sequential;
use sw_tensor::ConvShape;

/// A LeNet-style stack for `in_ch × 12 × 12` inputs:
/// conv3x3 → tanh → pool → conv3x3 → tanh → fc.
///
/// `engine` selects host vs simulated-chip convolutions.
pub fn lenet_12(
    batch: usize,
    in_ch: usize,
    classes: usize,
    engine: Engine,
    seed: u64,
) -> Result<Sequential, SwdnnError> {
    let conv1 = Conv2dLayer::new(ConvShape::new(batch, in_ch, 6, 10, 10, 3, 3), engine, seed)?;
    let conv2 = Conv2dLayer::new(ConvShape::new(batch, 6, 8, 3, 3, 3, 3), engine, seed + 1)?;
    Ok(Sequential::new(vec![
        Box::new(conv1),
        Box::new(Tanh::new()),
        Box::new(MaxPool2::new()), // 10 -> 5
        Box::new(conv2),           // 5 -> 3
        Box::new(Tanh::new()),
        Box::new(Linear::new(8 * 3 * 3, classes, seed + 2)),
    ]))
}

/// The conv layers of a VGG-like column at the paper's scale, for the
/// benchmarking examples: `(name, shape)` pairs.
pub fn vgg_like_conv_stack(batch: usize) -> Vec<(&'static str, ConvShape)> {
    vec![
        ("conv2_1", ConvShape::new(batch, 64, 128, 64, 64, 3, 3)),
        ("conv2_2", ConvShape::new(batch, 128, 128, 64, 64, 3, 3)),
        ("conv3_1", ConvShape::new(batch, 128, 256, 32, 32, 3, 3)),
        ("conv3_2", ConvShape::new(batch, 256, 256, 32, 32, 3, 3)),
        ("conv4_1", ConvShape::new(batch, 256, 384, 16, 16, 3, 3)),
        ("conv4_2", ConvShape::new(batch, 384, 384, 16, 16, 3, 3)),
    ]
}

/// The mixed-shape serving menu for the chaos bench: small, mesh-eligible
/// convolutions (channels in multiples of 8, output rows in multiples of
/// 4 so every row split in {1, 2, 4} divides) cheap enough that the bench
/// can also run them with real arithmetic when checking completed outputs
/// against fault-free golden digests.
pub fn serving_mix() -> Vec<(&'static str, ConvShape)> {
    vec![
        ("mix_base", ConvShape::new(16, 8, 8, 8, 8, 3, 3)),
        ("mix_wide", ConvShape::new(16, 8, 16, 8, 8, 3, 3)),
        ("mix_deep", ConvShape::new(8, 16, 16, 8, 8, 3, 3)),
        ("mix_tall", ConvShape::new(8, 8, 8, 16, 8, 3, 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sw_tensor::{Layout, Shape4, Tensor4};

    #[test]
    fn lenet_forward_shape() {
        let mut net = lenet_12(4, 1, 10, Engine::Host, 1).unwrap();
        let x = Tensor4::zeros(Shape4::new(4, 1, 12, 12), Layout::Nchw);
        assert_eq!(net.forward(&x).unwrap().shape(), Shape4::new(4, 10, 1, 1));
    }

    #[test]
    fn lenet_trains_on_quadrant_task() {
        let batch = 16;
        let mut net = lenet_12(batch, 1, 2, Engine::Host, 3).unwrap();
        let make = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut x = Tensor4::zeros(Shape4::new(batch, 1, 12, 12), Layout::Nchw);
            let mut y = Vec::new();
            for b in 0..batch {
                let class = rng.gen_range(0..2usize);
                for r in 0..12 {
                    for c in 0..12 {
                        let v = if (class == 0) == (c < 6) { 1.0 } else { 0.1 };
                        x.set(b, 0, r, c, v + rng.gen_range(-0.05..0.05));
                    }
                }
                y.push(class);
            }
            (x, y)
        };
        let (x, y) = make(5);
        let first = net.train_step(&x, &y, 0.1).unwrap();
        for _ in 0..40 {
            net.train_step(&x, &y, 0.1).unwrap();
        }
        let (xt, yt) = make(6);
        assert!(net.accuracy(&xt, &yt).unwrap() >= 0.85);
        let last = net.train_step(&x, &y, 0.1).unwrap();
        assert!(last < first);
    }

    #[test]
    fn serving_mix_shapes_are_mesh_eligible_and_shardable() {
        for (name, shape) in serving_mix() {
            assert!(shape.is_valid(), "{name}");
            assert_eq!(shape.ni % 8, 0, "{name}");
            assert_eq!(shape.no % 8, 0, "{name}");
            assert_eq!(shape.ro % 4, 0, "{name}: every split in 1/2/4 divides");
        }
        assert!(serving_mix().len() >= 4, "mixed traffic needs variety");
    }

    #[test]
    fn vgg_stack_shapes_are_mesh_eligible() {
        for (name, shape) in vgg_like_conv_stack(128) {
            assert!(shape.is_valid(), "{name}");
            assert_eq!(shape.ni % 8, 0, "{name}");
            assert_eq!(shape.no % 8, 0, "{name}");
        }
    }
}
