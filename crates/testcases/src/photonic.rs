//! Test case #9 — photonic Y-branch transmission under boundary
//! deformation (D = 26).

use nofis_photonics::{BpmConfig, BpmSolver, YBranch};
use nofis_prob::LimitState;

/// The Y-branch limit state: `g(x) = T(x) − spec`, failing when the power
/// transmission drops below the spec (32% in the paper).
///
/// Each evaluation runs the Crank–Nicolson BPM; gradients add one adjoint
/// sweep. The default grid is deliberately coarse (61 × 80) so Table 1
/// budgets stay laptop-scale — the physics (mode evolution through the
/// junction, radiation loss under sidewall deformation) is unchanged, as
/// the test suite's grid-refinement check confirms.
#[derive(Debug, Clone, PartialEq)]
pub struct YBranchCase {
    solver: BpmSolver,
    spec: f64,
}

impl Default for YBranchCase {
    fn default() -> Self {
        YBranchCase::with_spec(Self::SPEC)
    }
}

impl YBranchCase {
    /// Transmission spec, calibrated to 35.6% for our BPM device (the paper uses 32% on its proprietary solver; our nominal transmission differs, so the spec is tuned to match the paper golden probability).
    pub const SPEC: f64 = 0.3563;
    /// Golden failure probability at the paper spec with the calibrated
    /// deformation amplitude (see EXPERIMENTS.md).
    pub const GOLDEN_PR: f64 = 4.27e-5;
    /// Number of Fourier deformation modes (the paper's dimension).
    pub const DIM: usize = 26;

    /// Creates the case with an explicit transmission spec.
    pub fn with_spec(spec: f64) -> Self {
        let solver = BpmSolver::new(
            YBranch::new(Self::DIM),
            BpmConfig {
                nx: 61,
                nz: 80,
                ..Default::default()
            },
        );
        YBranchCase { solver, spec }
    }

    /// Borrows the underlying BPM solver (for visualization).
    pub fn solver(&self) -> &BpmSolver {
        &self.solver
    }

    /// The transmission spec.
    pub fn spec(&self) -> f64 {
        self.spec
    }
}

/// `g` is reported in percentage points of transmission.
const YB_UNIT: f64 = 100.0;

impl LimitState for YBranchCase {
    fn dim(&self) -> usize {
        Self::DIM
    }

    fn value(&self, x: &[f64]) -> f64 {
        let run = self.solver.run(x).expect("CN-BPM system is well-posed");
        (run.transmission - self.spec) * YB_UNIT
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let (t, grad) = self
            .solver
            .run_with_gradient(x)
            .expect("CN-BPM system is well-posed");
        let grad = grad.into_iter().map(|g| g * YB_UNIT).collect();
        ((t - self.spec) * YB_UNIT, grad)
    }

    fn name(&self) -> &str {
        "Y-branch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rand_distr::StandardNormal;

    #[test]
    fn nominal_is_safe() {
        let yb = YBranchCase::default();
        let g = yb.value(&vec![0.0; 26]);
        assert!(g > 0.0, "nominal transmission margin {g}");
        assert_eq!(yb.dim(), 26);
    }

    #[test]
    fn value_and_grad_agree() {
        let yb = YBranchCase::default();
        let x: Vec<f64> = (0..26).map(|i| 0.5 * (i as f64 * 0.31).sin()).collect();
        let (v, grad) = yb.value_grad(&x);
        assert!((v - yb.value(&x)).abs() < 1e-12);
        assert_eq!(grad.len(), 26);
        assert!(grad.iter().any(|g| g.abs() > 0.0));
    }

    /// `(value bits, value_grad gradient bits)` at [`pinned_point`] `k`.
    /// Captured from the mirror-folded solver (the full-domain solver's
    /// bits are pinned on its reference in `nofis-photonics`); any change
    /// to the oracle's arithmetic shows up here.
    #[rustfmt::skip]
    const PINNED: [(u64, [u64; 26]); 3] = [
        (0x4048509aa1438b96, [
            0x4006e807bd060d01, 0xc01031a00f8b9926, 0xbfecf01f76bf33ab, 0xc01dc9107f447738,
            0xc00a2b7a768abcef, 0xc010b6aa9ce35462, 0xbffa3a69f6598d5f, 0x4006478229ff209b,
            0xc009acce2ae81ca8, 0xc01c29a8f53fa11d, 0x4012df633877fcd0, 0xbfe088e377dd4d30,
            0xbfe4608f93398e16, 0x3fabe0f00e72d87a, 0x3fe5899f2af9c990, 0xbfd6eef2422a2381,
            0x3ff691162925fb5e, 0x3fe424183128c0e7, 0x3fed766a29ac7d22, 0x3fef7e45a323b043,
            0xbfcd37021ae04036, 0xbfc91531406c9be1, 0x3fd2449f030b4172, 0xbfe11cd10cbd6193,
            0x3ff785f28ae62557, 0xbfc189129e8ff375,
        ]),
        (0x40425a6ded380059, [
            0x401d1069c5142c6e, 0xbfab1f8e6de36be1, 0x400d6e43fd36e267, 0xc0135083bee16681,
            0xbfde087ec7ba27b9, 0xc003402d7cb8581f, 0xbfebf548a944f23c, 0x4005f02c22c478a0,
            0xc00d0dd4bc42e906, 0xc024fb7e92ad5913, 0x3ff3477a59583af8, 0xc01178b4080a3590,
            0xc005ee750efe3e33, 0xbfef3bc69b92e7b4, 0xbfc5e380596368aa, 0x3ff54766c489838b,
            0x4000db742d144629, 0x3ff114eaf2dd6abc, 0x3ff8d4a52807ccd6, 0x3fec9f04df59b0a4,
            0xbff90f6315c21a0e, 0xc000128fa556f358, 0xc00a34fa0392dbd2, 0xc00b5a184fdc8726,
            0x3fdba64c94f9be47, 0xbff03d1f51e19b0a,
        ]),
        (0x403cd20f8846f8cb, [
            0x401309dec60d395d, 0xc00ca3ef9afc8ff5, 0x40235b45985787a6, 0xc00db46e0e07709b,
            0x4019c111dea5336b, 0xbfd867712f6571f3, 0x3fd463f8493ff935, 0x4001dcd57b1b0a03,
            0xc003aa321c02f65c, 0x3fe43afac8e1ad96, 0xbff0eab5bbedad22, 0xc006fc85f2604da9,
            0x3ff458a08b8d493d, 0xc00caf179c2f83f1, 0x3ff47a090d4e2f1e, 0xbff7063efe67422a,
            0xbff0ae57f1b0a2a2, 0x3fc4fe674f8014b3, 0xc0016ee38eabac39, 0x3fd87619746389c3,
            0xbfa63ce28bef20de, 0x3fe09815257dca5b, 0x3ffe12fcc13a33b8, 0x3fcbc28bebc5b5be,
            0xbfc70d714c55dd90, 0xbfead9ff05803a88,
        ]),
    ];

    /// The nominal geometry, a smooth mixed deformation, and one whose
    /// first mode pinches the guide past the half-width clamp.
    fn pinned_point(k: usize) -> Vec<f64> {
        (0..26)
            .map(|i| match (k, i) {
                (0, _) => 0.0,
                (1, _) => 0.5 * (i as f64 * 0.31).sin(),
                (_, 0) => -4.0,
                _ => 0.3 * (i as f64 * 0.7).cos(),
            })
            .collect()
    }

    #[test]
    fn value_and_grad_bits_are_pinned() {
        let yb = YBranchCase::default();
        for (k, (value_bits, grad_bits)) in PINNED.iter().enumerate() {
            let x = pinned_point(k);
            assert_eq!(yb.value(&x).to_bits(), *value_bits, "value at point {k}");
            let (v, grad) = yb.value_grad(&x);
            assert_eq!(v.to_bits(), *value_bits, "value_grad value at point {k}");
            let bits: Vec<u64> = grad.iter().map(|g| g.to_bits()).collect();
            assert_eq!(bits, grad_bits, "gradient at point {k}");
        }
    }

    /// Bits of `BpmSolver::run(..).output_magnitude` at [`pinned_point`]
    /// `k`: the final field, not just its windowed power, so a change to
    /// the propagation arithmetic shows here even where the transmission
    /// happens to round the same.
    #[rustfmt::skip]
    const PINNED_MAGNITUDE: [[u64; 61]; 3] = [
        [
            0x3f879d1c8b3e7fe0, 0x3f95e935d666c9f7, 0x3f9ca157a12217d3, 0x3fa09137ec7cf926,
            0x3fa2054f9b89b446, 0x3fa35effc3713c86, 0x3fa4a50f69ae642d, 0x3fa4e75feec7d585,
            0x3fa3f9d2ba54a395, 0x3fa2a1891aa67940, 0x3fa4b80255d9d620, 0x3fae1ff88e3e48bf,
            0x3fb6b77e63805294, 0x3fc035a5b904459f, 0x3fc5e56aebcb1f34, 0x3fcbd436d9c82d95,
            0x3fd008bab0b0107f, 0x3fd083bcb346d418, 0x3fcfb5a84349bc12, 0x3fcd8f6b77ffcf41,
            0x3fcae9de52ad4559, 0x3fc6cdd1f913e29d, 0x3fc07c4fe2b0e330, 0x3fb3649d7ad617d5,
            0x3fa94466a782ed34, 0x3fade84c35fa0893, 0x3fb2271ff2bdae0a, 0x3fb2d570c4b1a30f,
            0x3fb1420edb5dd7f3, 0x3fae51924cd877b5, 0x3fac8a4af456a4f9, 0x3fae51924cd877b5,
            0x3fb1420edb5dd7f3, 0x3fb2d570c4b1a30f, 0x3fb2271ff2bdae0a, 0x3fade84c35fa0893,
            0x3fa94466a782ed34, 0x3fb3649d7ad617d5, 0x3fc07c4fe2b0e330, 0x3fc6cdd1f913e29d,
            0x3fcae9de52ad4559, 0x3fcd8f6b77ffcf41, 0x3fcfb5a84349bc12, 0x3fd083bcb346d418,
            0x3fd008bab0b0107f, 0x3fcbd436d9c82d95, 0x3fc5e56aebcb1f34, 0x3fc035a5b904459f,
            0x3fb6b77e63805294, 0x3fae1ff88e3e48bf, 0x3fa4b80255d9d620, 0x3fa2a1891aa67940,
            0x3fa3f9d2ba54a395, 0x3fa4e75feec7d585, 0x3fa4a50f69ae642d, 0x3fa35effc3713c86,
            0x3fa2054f9b89b446, 0x3fa09137ec7cf926, 0x3f9ca157a12217d3, 0x3f95e935d666c9f7,
            0x3f879d1c8b3e7fe0,
        ],
        [
            0x3f910f50c858787a, 0x3fa1e7bb7dd04d20, 0x3faa9ae5df34dfd3, 0x3fafd7d867c15871,
            0x3fb00c51985a087e, 0x3fb03c1435002947, 0x3faf06a2c0000559, 0x3fa97255cb1571bd,
            0x3fa3ba7f7bb59db8, 0x3fa036dff7617b05, 0x3fa90544e2f94305, 0x3fb2ccef6ae4b468,
            0x3fbac0a9e6f2705b, 0x3fc30cb5295ec53e, 0x3fc76812c9686e4e, 0x3fca5d25bf84b464,
            0x3fcd2933c4ad605c, 0x3fcd8e89c59ec5de, 0x3fccdad620c9360d, 0x3fcc9bd4f6fdf174,
            0x3fc9808ed18a4239, 0x3fc36497a73cada9, 0x3fba2c627481ba67, 0x3fae931e3fddeceb,
            0x3facc4bad964d0df, 0x3fb5fe226591fd77, 0x3fba9feaec6da3cd, 0x3fb8f08dcad554b9,
            0x3fb375d65a2891b9, 0x3fa957e7e4f05392, 0x3fa33822d4f8c332, 0x3fa957e7e4f05392,
            0x3fb375d65a2891b9, 0x3fb8f08dcad554b9, 0x3fba9feaec6da3cd, 0x3fb5fe226591fd77,
            0x3facc4bad964d0df, 0x3fae931e3fddeceb, 0x3fba2c627481ba67, 0x3fc36497a73cada9,
            0x3fc9808ed18a4239, 0x3fcc9bd4f6fdf174, 0x3fccdad620c9360d, 0x3fcd8e89c59ec5de,
            0x3fcd2933c4ad605c, 0x3fca5d25bf84b464, 0x3fc76812c9686e4e, 0x3fc30cb5295ec53e,
            0x3fbac0a9e6f2705b, 0x3fb2ccef6ae4b468, 0x3fa90544e2f94305, 0x3fa036dff7617b05,
            0x3fa3ba7f7bb59db8, 0x3fa97255cb1571bd, 0x3faf06a2c0000559, 0x3fb03c1435002947,
            0x3fb00c51985a087e, 0x3fafd7d867c15871, 0x3faa9ae5df34dfd3, 0x3fa1e7bb7dd04d20,
            0x3f910f50c858787a,
        ],
        [
            0x3f87e5ee9e0fcf9f, 0x3f9ef59537fb6154, 0x3fa42fe3c57f0233, 0x3fa9e8cd5aaf6f5f,
            0x3faf98c899951c53, 0x3fb057913776078a, 0x3fb115540437967b, 0x3fb0aca579944548,
            0x3fad6e56ba724744, 0x3fab4179f2d11dc7, 0x3fade13c238b8ccd, 0x3fb17928f231dec5,
            0x3fb3c6cd00fb4d5e, 0x3fb3fda9b4cd9d7c, 0x3fb6aac8ae494263, 0x3fbda2c14b8b5369,
            0x3fc38e8fcacd6f66, 0x3fc7969b4f0cc974, 0x3fcad0bfa2e23255, 0x3fcc4fcf0c0a4784,
            0x3fcb2ffba15f356f, 0x3fc90cdab4724043, 0x3fc5f69371c59ebc, 0x3fc2b847924373c0,
            0x3fc08423aab66f91, 0x3fbe73f899d90299, 0x3fbe8d419eb1e18f, 0x3fc102c2d0bae1f1,
            0x3fc3c295f6cf4d39, 0x3fc4f7e74207e49f, 0x3fc5642209bf21b7, 0x3fc4f7e74207e49f,
            0x3fc3c295f6cf4d39, 0x3fc102c2d0bae1f1, 0x3fbe8d419eb1e18f, 0x3fbe73f899d90299,
            0x3fc08423aab66f91, 0x3fc2b847924373c0, 0x3fc5f69371c59ebc, 0x3fc90cdab4724043,
            0x3fcb2ffba15f356f, 0x3fcc4fcf0c0a4784, 0x3fcad0bfa2e23255, 0x3fc7969b4f0cc974,
            0x3fc38e8fcacd6f66, 0x3fbda2c14b8b5369, 0x3fb6aac8ae494263, 0x3fb3fda9b4cd9d7c,
            0x3fb3c6cd00fb4d5e, 0x3fb17928f231dec5, 0x3fade13c238b8ccd, 0x3fab4179f2d11dc7,
            0x3fad6e56ba724744, 0x3fb0aca579944548, 0x3fb115540437967b, 0x3fb057913776078a,
            0x3faf98c899951c53, 0x3fa9e8cd5aaf6f5f, 0x3fa42fe3c57f0233, 0x3f9ef59537fb6154,
            0x3f87e5ee9e0fcf9f,
        ],
    ];

    #[test]
    fn output_magnitude_bits_are_pinned() {
        let yb = YBranchCase::default();
        for (k, expected) in PINNED_MAGNITUDE.iter().enumerate() {
            let run = yb.solver().run(&pinned_point(k)).unwrap();
            let bits: Vec<u64> = run.output_magnitude.iter().map(|m| m.to_bits()).collect();
            assert_eq!(bits, expected, "output magnitude at point {k}");
        }
    }

    /// 200 fixed-seed points: standard-normal rows, rows with every
    /// coordinate near ±4, and rows whose first mode pinches the guide past
    /// the half-width clamp.
    fn random_points() -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(26);
        (0..200)
            .map(|k| {
                let mut x: Vec<f64> = (0..26).map(|_| rng.sample(StandardNormal)).collect();
                match k % 4 {
                    1 => {
                        for v in &mut x {
                            *v = 4.0f64.copysign(*v) + 0.05 * *v;
                        }
                    }
                    2 => x[0] = -4.0 - x[0].abs(),
                    _ => {}
                }
                x
            })
            .collect()
    }

    #[test]
    fn value_and_value_grad_bits_agree() {
        let yb = YBranchCase::default();
        for (k, x) in random_points().iter().enumerate() {
            let v = yb.value(x);
            assert_eq!(v.to_bits(), yb.value_grad(x).0.to_bits(), "point {k}: {v}");
        }
    }

    #[test]
    fn coarse_grid_tracks_fine_grid() {
        // The default (coarse) grid must agree with a 2× finer grid on the
        // nominal transmission to a few percent.
        let coarse = YBranchCase::default();
        let fine = BpmSolver::new(
            YBranch::new(26),
            BpmConfig {
                nx: 121,
                nz: 160,
                ..Default::default()
            },
        );
        let zero = vec![0.0; 26];
        let tc = coarse.value(&zero) / 100.0 + YBranchCase::SPEC;
        let tf = fine.run(&zero).unwrap().transmission;
        assert!(
            (tc - tf).abs() < 0.06,
            "coarse {tc} vs fine {tf} nominal transmission"
        );
    }
}
