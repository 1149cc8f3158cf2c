//! Accuracy and determinism properties of the shared scalar math kernels.
//!
//! [`tanh`] is the engine-wide activation (both the interpreted
//! graph and the compiled-tape replay route through it), so its contract
//! is pinned here independently of any flow test: tight relative error
//! against libm, exact odd symmetry, saturation, special-value behavior
//! matching libm, and monotonicity where the slope is meaningful.

use nofis_parallel::math::tanh;

/// Deterministic LCG over a value range (no RNG dependency needed).
fn lcg_stream(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        })
        .collect()
}

#[test]
fn dense_sweep_matches_libm_to_5e13_relative() {
    // Uniform grid across every branch (rational, exp-based, saturated)
    // plus random draws concentrated in the training-relevant range.
    let mut xs: Vec<f64> = (0..200_001)
        .map(|i| -25.0 + i as f64 * (50.0 / 200_000.0))
        .collect();
    xs.extend(lcg_stream(7, 100_000, -6.0, 6.0));
    xs.extend(lcg_stream(11, 10_000, -0.7, 0.7));
    let mut worst = 0.0f64;
    for &x in &xs {
        let got = tanh(x);
        let want = x.tanh();
        let denom = want.abs().max(f64::MIN_POSITIVE);
        let rel = (got - want).abs() / denom;
        if rel > worst {
            worst = rel;
        }
        assert!(
            rel < 5e-13,
            "tanh({x:e}) = {got:e}, libm = {want:e}, rel err {rel:e}"
        );
    }
    // The implementation targets ~2e-15; 5e-13 leaves margin for platform
    // libm differences in the *reference* values, not in tanh.
    assert!(worst < 5e-13, "worst rel err {worst:e}");
}

#[test]
fn odd_symmetry_is_bitwise_exact() {
    for x in lcg_stream(13, 50_000, 0.0, 25.0) {
        let p = tanh(x);
        let n = tanh(-x);
        assert_eq!(p.to_bits(), (-n).to_bits(), "symmetry broke at x = {x:e}");
    }
}

#[test]
fn range_and_saturation() {
    for x in lcg_stream(17, 50_000, -40.0, 40.0) {
        let y = tanh(x);
        assert!(
            (-1.0..=1.0).contains(&y),
            "tanh({x:e}) = {y:e} out of range"
        );
    }
    for x in [20.0, 25.0, 100.0, 1e300] {
        assert_eq!(tanh(x), 1.0);
        assert_eq!(tanh(-x), -1.0);
    }
}

#[test]
fn special_values_match_libm() {
    assert!(tanh(f64::NAN).is_nan());
    assert_eq!(tanh(f64::INFINITY), 1.0);
    assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
    // Signed zero is preserved bitwise, like libm.
    assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
}

#[test]
fn monotone_where_slope_dominates() {
    // Step 1e-3 over [-3, 3]: the true increment (≥ ~1e-5) dwarfs the
    // ~1e-15 approximation error, so any non-monotonic wiggle is a bug.
    let mut prev = tanh(-3.0);
    let mut x = -3.0;
    while x < 3.0 {
        x += 1e-3;
        let y = tanh(x);
        assert!(y > prev, "not increasing at x = {x:e}");
        prev = y;
    }
}

#[test]
fn branch_seams_are_smooth() {
    // No visible step at the 0.625 rational/exp seam or the 20.0
    // saturation boundary (tanh(20) rounds to 1.0 in f64 anyway).
    for seam in [0.625, 20.0] {
        let below = tanh(seam - 1e-9);
        let at = tanh(seam);
        assert!(
            (at - below).abs() < 1e-8,
            "seam at {seam}: {below:e} vs {at:e}"
        );
    }
    assert_eq!(tanh(20.0), 1.0);
    assert_eq!((19.999999f64).tanh(), 1.0); // libm agrees the region is saturated
}
