//! Deterministic scalar math kernels shared by every execution engine.
//!
//! The NOFIS forward pass is dominated by `tanh`: at the default stage-3
//! configuration the fused `matmul+bias+tanh` layers spend ~70% of a
//! train step inside the activation (libm `tanh` costs ~25 ns/element at
//! realistic pre-activation magnitudes). [`tanh`] replaces it with a
//! branch-free-per-range polynomial evaluation that is ~2–3× faster while
//! staying within ~2e-15 relative error of libm.
//!
//! # Determinism contract
//!
//! Everything here is plain `f64` arithmetic in a fixed evaluation order:
//! no FMA, no lookup into platform libm, no data-dependent reassociation.
//! Two calls with the same input bits produce the same output bits on any
//! machine and at any thread count — the same contract the matmul kernels
//! in [`crate::kernels`] pin. Both the interpreted [`Graph`] ops and the
//! compiled-tape replay engine route their activations through
//! [`tanh`], so interpreted ↔ compiled bitwise equivalence is preserved
//! by construction.
//!
//! [`Graph`]: ../../nofis_autograd/struct.Graph.html

/// `2^(j/32)` for `j = 0..32`, the table half of the `exp` range
/// reduction. Decimal literals carry 17 significant digits, so each
/// parses to the correctly rounded `f64`.
const EXP2_TABLE: [f64; 32] = [
    1.0,
    1.0218971486541166,
    1.0442737824274138,
    1.0671404006768237,
    1.0905077326652577,
    1.1143867425958924,
    1.1387886347566916,
    1.1637248587775775,
    1.189207115002721,
    1.215247359980469,
    1.241857812073484,
    1.2690509571917332,
    1.2968395546510096,
    1.3252366431597413,
    1.3542555469368927,
    1.383909881963832,
    std::f64::consts::SQRT_2, // 2^(16/32) exactly
    1.4451808069770467,
    1.4768261459394993,
    1.5091644275934228,
    1.5422108254079407,
    1.5759808451078865,
    1.6104903319492543,
    1.645755478153965,
    1.681792830507429,
    1.718619298122478,
    1.7562521603732995,
    1.7947090750031072,
    1.8340080864093424,
    1.8741676341103,
    1.9152065613971474,
    1.9571441241754002,
];

/// High part of `ln(2)/32` (low 27 mantissa bits zeroed), so that
/// `n * LN2_32_HI` is exact for the reduction multiples used here.
const LN2_32_HI: f64 = 0.02166084898635745;
/// Low part of `ln(2)/32`; `LN2_32_HI + LN2_32_LO` carries the constant
/// to ~107 bits.
const LN2_32_LO: f64 = 4.06140840434059e-10;
/// `32 / ln(2)`.
const INV_LN2_32: f64 = 46.16624130844683;

/// `exp(x)` for `x ∈ [1.25, 40]` via table-assisted range reduction:
/// `x = (32k + j)·ln2/32 + r` with `|r| ≤ ln2/64`, then a degree-5
/// Taylor polynomial for `e^r` (remainder `< 3e-15` relative), scaled by
/// `2^(j/32)` from the table and `2^k` through the exponent bits.
///
/// Only called with positive arguments well inside the finite range, so
/// `k ∈ [1, 58]` and no subnormal/overflow handling is needed.
#[inline]
fn fast_exp_pos(x: f64) -> f64 {
    let n = (x * INV_LN2_32).round();
    let ni = n as i64;
    let j = (ni & 31) as usize;
    let k = ni >> 5;
    let r = (x - n * LN2_32_HI) - n * LN2_32_LO;
    // Horner, one mul + one add per step — no FMA contraction in Rust,
    // so the rounding sequence is fixed.
    let p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0)))));
    let scale = f64::from_bits(((1023 + k) as u64) << 52);
    EXP2_TABLE[j] * p * scale
}

/// Numerator coefficients of the small-|x| rational approximation
/// (Cephes `tanh.c`, double precision).
const P: [f64; 3] = [
    -9.643_991_794_250_523e-1,
    -9.928_772_310_019_185e1,
    -1.614_687_684_417_084_5e3,
];
/// Denominator coefficients (monic) of the same rational approximation.
const Q: [f64; 3] = [
    1.128_116_784_916_329_3e2,
    2.235_488_390_601_004_5e3,
    4.844_063_053_251_255e3,
];

/// Deterministic `tanh(x)`, accurate to < 2e-15 relative error vs libm.
///
/// Three ranges:
/// - `|x| < 0.625`: Cephes-style rational `x + x³·P(x²)/Q(x²)`.
/// - `0.625 ≤ |x| < 20`: `e = exp(2|x|)` via `fast_exp_pos`, then
///   `(e − 1)/(e + 1)` — `e ≥ e^1.25 ≈ 3.49`, so the subtraction never
///   cancels.
/// - `|x| ≥ 20`: `±1.0` (`tanh(20)` rounds to `1.0` in f64 anyway).
///
/// `NaN` propagates (the training loop's divergence detection relies on
/// it) and `±∞` saturates to `±1.0`, matching libm.
///
/// This is the engine-wide activation: every forward *and* backward site
/// that evaluates a tanh — the interpreted graph ops, the compiled-tape
/// replay mirrors, and the gradient-free coupling-layer conditioner —
/// must call this function (never `f64::tanh` directly), so that all
/// engines agree bitwise.
#[inline]
pub fn tanh(x: f64) -> f64 {
    let t = x.abs();
    if t < 0.625 {
        if t == 0.0 {
            // Preserve the sign of zero (the polynomial would lose it).
            return x;
        }
        let z = x * x;
        let pn = (P[0] * z + P[1]) * z + P[2];
        let qd = ((z + Q[0]) * z + Q[1]) * z + Q[2];
        return x + x * z * (pn / qd);
    }
    let r = if t >= 20.0 {
        if t.is_nan() {
            return x;
        }
        1.0
    } else {
        let e = fast_exp_pos(2.0 * t);
        (e - 1.0) / (e + 1.0)
    };
    if x < 0.0 {
        -r
    } else {
        r
    }
}
