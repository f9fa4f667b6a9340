//! Weight initialization schemes.

use cscnn_rng::Rng;

use crate::Tensor;

/// Uniform initialization in `[-bound, bound]`.
///
/// # Panics
///
/// Panics if `bound` is negative or not finite.
pub fn uniform<R: Rng>(rng: &mut R, dims: &[usize], bound: f32) -> Tensor {
    assert!(
        bound.is_finite() && bound >= 0.0,
        "bound must be finite and non-negative"
    );
    Tensor::from_fn(dims, |_| rng.gen_range(-bound..=bound))
}

/// Kaiming (He) uniform initialization for ReLU networks.
///
/// `fan_in` is the number of input connections per output unit (for a conv
/// filter: `C·R·S`).
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn kaiming_uniform<R: Rng>(rng: &mut R, dims: &[usize], fan_in: usize) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (6.0 / fan_in as f32).sqrt();
    uniform(rng, dims, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_rng::rngs::StdRng;
    use cscnn_rng::SeedableRng;

    #[test]
    fn uniform_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = uniform(&mut rng, &[100], 0.5);
        assert!(t.as_slice().iter().all(|x| x.abs() <= 0.5));
    }

    #[test]
    fn kaiming_bound_shrinks_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(7);
        let wide = kaiming_uniform(&mut rng, &[1000], 9);
        let narrow = kaiming_uniform(&mut rng, &[1000], 900);
        assert!(wide.max() > narrow.max());
        assert!(narrow
            .as_slice()
            .iter()
            .all(|x| x.abs() <= (6.0f32 / 900.0).sqrt()));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = kaiming_uniform(&mut StdRng::seed_from_u64(42), &[3, 3], 9);
        let b = kaiming_uniform(&mut StdRng::seed_from_u64(42), &[3, 3], 9);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
