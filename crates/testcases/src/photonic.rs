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
    /// Captured before the BPM evaluated its `z`-only geometry once per
    /// step; any change to the oracle's arithmetic shows up here.
    #[rustfmt::skip]
    const PINNED: [(u64, [u64; 26]); 3] = [
        (0x4048509aa1438b90, [
            0x4006e807bd060c6d, 0xc01031a00f8b9931, 0xbfecf01f76bf3463, 0xc01dc9107f447743,
            0xc00a2b7a768abd53, 0xc010b6aa9ce3545f, 0xbffa3a69f6598d65, 0x4006478229ff2057,
            0xc009acce2ae81c9d, 0xc01c29a8f53fa10c, 0x4012df633877fccf, 0xbfe088e377dd4d1b,
            0xbfe4608f93398d9f, 0x3fabe0f00e72e6c8, 0x3fe5899f2af9c9b3, 0xbfd6eef2422a2332,
            0x3ff691162925fb62, 0x3fe424183128c10b, 0x3fed766a29ac7d22, 0x3fef7e45a323b04e,
            0xbfcd37021ae040a7, 0xbfc91531406c9bb1, 0x3fd2449f030b41cf, 0xbfe11cd10cbd61a2,
            0x3ff785f28ae6254f, 0xbfc189129e8ff30f,
        ]),
        (0x40425a6ded38006a, [
            0x401d1069c5142c53, 0xbfab1f8e6de37366, 0x400d6e43fd36e28b, 0xc0135083bee16680,
            0xbfde087ec7ba282c, 0xc003402d7cb8581f, 0xbfebf548a944f20d, 0x4005f02c22c4789d,
            0xc00d0dd4bc42e942, 0xc024fb7e92ad5921, 0x3ff3477a59583b15, 0xc01178b4080a35a1,
            0xc005ee750efe3e40, 0xbfef3bc69b92e7ff, 0xbfc5e38059636834, 0x3ff54766c48983b9,
            0x4000db742d144632, 0x3ff114eaf2dd6ab8, 0x3ff8d4a52807ccd8, 0x3fec9f04df59b0c0,
            0xbff90f6315c21a2f, 0xc000128fa556f37b, 0xc00a34fa0392dbde, 0xc00b5a184fdc872d,
            0x3fdba64c94f9be09, 0xbff03d1f51e19b09,
        ]),
        (0x403cd20f8846f8b8, [
            0x401309dec60d396e, 0xc00ca3ef9afc8f91, 0x40235b45985787b3, 0xc00db46e0e077036,
            0x4019c111dea5337a, 0xbfd867712f657076, 0x3fd463f8493ffa40, 0x4001dcd57b1b0a1f,
            0xc003aa321c02f61e, 0x3fe43afac8e1adde, 0xbff0eab5bbedacc8, 0xc006fc85f2604db4,
            0x3ff458a08b8d493c, 0xc00caf179c2f83f7, 0x3ff47a090d4e2f17, 0xbff7063efe6741f6,
            0xbff0ae57f1b0a275, 0x3fc4fe674f80175b, 0xc0016ee38eabac14, 0x3fd8761974638a98,
            0xbfa63ce28bef1695, 0x3fe09815257dcaaa, 0x3ffe12fcc13a3410, 0x3fcbc28bebc5b69e,
            0xbfc70d714c55dd05, 0xbfead9ff05803aba,
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
            0x3f879d1c8b3e8088, 0x3f95e935d666c9f3, 0x3f9ca157a12217c7, 0x3fa09137ec7cf94a,
            0x3fa2054f9b89b442, 0x3fa35effc3713c6c, 0x3fa4a50f69ae6433, 0x3fa4e75feec7d581,
            0x3fa3f9d2ba54a37c, 0x3fa2a1891aa6794c, 0x3fa4b80255d9d613, 0x3fae1ff88e3e48a2,
            0x3fb6b77e63805293, 0x3fc035a5b90445a4, 0x3fc5e56aebcb1f32, 0x3fcbd436d9c82d99,
            0x3fd008bab0b01082, 0x3fd083bcb346d418, 0x3fcfb5a84349bc11, 0x3fcd8f6b77ffcf41,
            0x3fcae9de52ad4551, 0x3fc6cdd1f913e295, 0x3fc07c4fe2b0e333, 0x3fb3649d7ad617da,
            0x3fa94466a782ed2a, 0x3fade84c35fa086f, 0x3fb2271ff2bdae14, 0x3fb2d570c4b1a2f7,
            0x3fb1420edb5dd7fb, 0x3fae51924cd8778d, 0x3fac8a4af456a4c5, 0x3fae51924cd87781,
            0x3fb1420edb5dd80f, 0x3fb2d570c4b1a2fd, 0x3fb2271ff2bdae21, 0x3fade84c35fa086b,
            0x3fa94466a782ed4a, 0x3fb3649d7ad617dd, 0x3fc07c4fe2b0e330, 0x3fc6cdd1f913e29b,
            0x3fcae9de52ad4551, 0x3fcd8f6b77ffcf41, 0x3fcfb5a84349bc0b, 0x3fd083bcb346d411,
            0x3fd008bab0b0107e, 0x3fcbd436d9c82d9a, 0x3fc5e56aebcb1f3e, 0x3fc035a5b904459e,
            0x3fb6b77e63805289, 0x3fae1ff88e3e48e0, 0x3fa4b80255d9d641, 0x3fa2a1891aa67969,
            0x3fa3f9d2ba54a389, 0x3fa4e75feec7d577, 0x3fa4a50f69ae644e, 0x3fa35effc3713c73,
            0x3fa2054f9b89b443, 0x3fa09137ec7cf941, 0x3f9ca157a12217b8, 0x3f95e935d666ca0f,
            0x3f879d1c8b3e804b,
        ],
        [
            0x3f910f50c8587870, 0x3fa1e7bb7dd04d23, 0x3faa9ae5df34dfaf, 0x3fafd7d867c15875,
            0x3fb00c51985a0883, 0x3fb03c1435002943, 0x3faf06a2c0000558, 0x3fa97255cb1571ba,
            0x3fa3ba7f7bb59dcb, 0x3fa036dff7617b2a, 0x3fa90544e2f9432c, 0x3fb2ccef6ae4b46e,
            0x3fbac0a9e6f27059, 0x3fc30cb5295ec549, 0x3fc76812c9686e59, 0x3fca5d25bf84b46d,
            0x3fcd2933c4ad6062, 0x3fcd8e89c59ec5ea, 0x3fccdad620c93611, 0x3fcc9bd4f6fdf171,
            0x3fc9808ed18a424a, 0x3fc36497a73cadb2, 0x3fba2c627481ba7b, 0x3fae931e3fdded08,
            0x3facc4bad964d0fd, 0x3fb5fe226591fd82, 0x3fba9feaec6da3df, 0x3fb8f08dcad554cb,
            0x3fb375d65a2891c2, 0x3fa957e7e4f05386, 0x3fa33822d4f8c33b, 0x3fa957e7e4f0539c,
            0x3fb375d65a2891cc, 0x3fb8f08dcad554b7, 0x3fba9feaec6da3d6, 0x3fb5fe226591fd79,
            0x3facc4bad964d116, 0x3fae931e3fdded10, 0x3fba2c627481ba69, 0x3fc36497a73cada3,
            0x3fc9808ed18a4243, 0x3fcc9bd4f6fdf176, 0x3fccdad620c93619, 0x3fcd8e89c59ec5db,
            0x3fcd2933c4ad6059, 0x3fca5d25bf84b467, 0x3fc76812c9686e53, 0x3fc30cb5295ec541,
            0x3fbac0a9e6f2706e, 0x3fb2ccef6ae4b46c, 0x3fa90544e2f942eb, 0x3fa036dff7617aec,
            0x3fa3ba7f7bb59dbb, 0x3fa97255cb1571b2, 0x3faf06a2c0000560, 0x3fb03c143500294c,
            0x3fb00c51985a0883, 0x3fafd7d867c1586c, 0x3faa9ae5df34dfb0, 0x3fa1e7bb7dd04d33,
            0x3f910f50c8587881,
        ],
        [
            0x3f87e5ee9e0fd008, 0x3f9ef59537fb613c, 0x3fa42fe3c57f022a, 0x3fa9e8cd5aaf6f5d,
            0x3faf98c899951c4b, 0x3fb057913776078b, 0x3fb115540437966e, 0x3fb0aca57994453a,
            0x3fad6e56ba724759, 0x3fab4179f2d11de5, 0x3fade13c238b8cd8, 0x3fb17928f231deca,
            0x3fb3c6cd00fb4d5c, 0x3fb3fda9b4cd9d70, 0x3fb6aac8ae494264, 0x3fbda2c14b8b535d,
            0x3fc38e8fcacd6f67, 0x3fc7969b4f0cc96f, 0x3fcad0bfa2e23247, 0x3fcc4fcf0c0a477f,
            0x3fcb2ffba15f3574, 0x3fc90cdab4724049, 0x3fc5f69371c59ec2, 0x3fc2b847924373be,
            0x3fc08423aab66f92, 0x3fbe73f899d9028a, 0x3fbe8d419eb1e192, 0x3fc102c2d0bae1ed,
            0x3fc3c295f6cf4d39, 0x3fc4f7e74207e4a3, 0x3fc5642209bf21c5, 0x3fc4f7e74207e4a5,
            0x3fc3c295f6cf4d34, 0x3fc102c2d0bae1e9, 0x3fbe8d419eb1e189, 0x3fbe73f899d90296,
            0x3fc08423aab66f89, 0x3fc2b847924373b4, 0x3fc5f69371c59ebb, 0x3fc90cdab4724040,
            0x3fcb2ffba15f3573, 0x3fcc4fcf0c0a477a, 0x3fcad0bfa2e23246, 0x3fc7969b4f0cc972,
            0x3fc38e8fcacd6f64, 0x3fbda2c14b8b5358, 0x3fb6aac8ae494261, 0x3fb3fda9b4cd9d7f,
            0x3fb3c6cd00fb4d4a, 0x3fb17928f231dec9, 0x3fade13c238b8cd0, 0x3fab4179f2d11dbf,
            0x3fad6e56ba72475b, 0x3fb0aca579944535, 0x3fb115540437966d, 0x3fb057913776078b,
            0x3faf98c899951c5a, 0x3fa9e8cd5aaf6f75, 0x3fa42fe3c57f0230, 0x3f9ef59537fb6139,
            0x3f87e5ee9e0fd005,
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
