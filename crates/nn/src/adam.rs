use nofis_autograd::{GradSource, ParamId, ParamStore, Tensor};

/// A snapshot of the optimizer's per-parameter state — the first/second
/// moment estimates and the per-parameter step counts — for durable
/// checkpointing.
///
/// The hyper-parameters (learning rate, betas, eps, clipping threshold) are
/// deliberately *not* part of the state: they are derived from the training
/// configuration and the caller reconstructs the optimizer from those
/// before restoring. Restoring into an `Adam` with the same
/// hyper-parameters makes the very next [`Adam::step`] bitwise identical to
/// the step the snapshotted optimizer would have taken.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// Per-parameter `(m, v)` moment pairs, indexed like the param store
    /// (`None` for parameters the optimizer has never updated).
    pub moments: Vec<Option<(Tensor, Tensor)>>,
    /// Per-parameter bias-correction step counts.
    pub steps: Vec<u64>,
}

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// Frozen parameters (see [`ParamStore::set_frozen`]) are skipped entirely
/// — their moment state is not advanced — which implements NOFIS's
/// stage-freezing policy.
///
/// # Example
///
/// ```
/// use nofis_autograd::{Graph, ParamStore, Tensor};
/// use nofis_nn::Adam;
///
/// let mut store = ParamStore::new();
/// let w = store.add(Tensor::scalar(5.0));
/// let mut opt = Adam::new(0.1);
/// for _ in 0..200 {
///     let mut g = Graph::new();
///     let wv = store.inject(&mut g, w);
///     let sq = g.square(wv);
///     let loss = g.sum_all(sq);
///     g.backward(loss);
///     opt.step(&mut store, &g.param_grads());
/// }
/// assert!(store.get(w).item().abs() < 1e-2); // minimizes w^2
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// Per-parameter first/second moment estimates, keyed by param index.
    moments: Vec<Option<(Tensor, Tensor)>>,
    /// Per-parameter step counts (bias correction is per parameter so that
    /// freezing and later unfreezing behaves sensibly).
    steps: Vec<u64>,
    /// Optional global-norm gradient clipping threshold.
    max_grad_norm: Option<f64>,
    /// Generation-stamped scratch used by [`Adam::step_fused`] to detect a
    /// parameter injected at several tape positions without allocating.
    seen: Vec<u64>,
    seen_gen: u64,
    /// Global gradient L2 norm measured by the last clipping pass (see
    /// [`Adam::last_grad_norm`]).
    last_grad_norm: Option<f64>,
}

impl Adam {
    /// Creates an optimizer with the given learning rate and the standard
    /// defaults `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an optimizer with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, the betas are outside `[0, 1)`, or `eps <= 0`.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        assert!(eps > 0.0, "eps must be positive");
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            moments: Vec::new(),
            steps: Vec::new(),
            max_grad_norm: None,
            seen: Vec::new(),
            seen_gen: 0,
            last_grad_norm: None,
        }
    }

    /// Enables (or, with `None`, disables) global-norm gradient clipping.
    ///
    /// Before each [`Adam::step`], the L2 norm of all non-frozen, finite
    /// gradients is computed jointly; when it exceeds `max_norm` every
    /// gradient is scaled by `max_norm / norm`. This is the standard guard
    /// against exploding log-det gradients early in flow training.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is `Some` but not finite and positive.
    pub fn with_max_grad_norm(mut self, max_norm: Option<f64>) -> Self {
        if let Some(m) = max_norm {
            assert!(m.is_finite() && m > 0.0, "max_grad_norm must be positive");
        }
        self.max_grad_norm = max_norm;
        self
    }

    /// The global-norm clipping threshold, if enabled.
    pub fn max_grad_norm(&self) -> Option<f64> {
        self.max_grad_norm
    }

    /// The joint L2 norm of the gradients seen by the most recent
    /// [`Adam::step`] / [`Adam::step_fused`], measured by the clipping
    /// pass *before* any rescaling. `None` until a step has run with
    /// clipping enabled — the norm is a byproduct of clipping, never an
    /// extra pass. Exposed for telemetry (per-step `grad_norm` events).
    pub fn last_grad_norm(&self) -> Option<f64> {
        self.last_grad_norm
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Exports the per-parameter optimizer state for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            moments: self.moments.clone(),
            steps: self.steps.clone(),
        }
    }

    /// Restores per-parameter state previously taken with
    /// [`Adam::export_state`]. Hyper-parameters are untouched — construct
    /// the optimizer with the desired ones first.
    pub fn restore_state(&mut self, state: AdamState) {
        self.moments = state.moments;
        self.steps = state.steps;
    }

    /// Applies one Adam update to every non-frozen parameter in `grads`.
    ///
    /// Gradients with non-finite entries are skipped defensively (a diverged
    /// batch then simply does not move the parameters). When
    /// [`Adam::with_max_grad_norm`] is set, all participating gradients are
    /// first rescaled so their joint L2 norm does not exceed the threshold.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        // Global-norm clipping factor over the gradients that will be applied.
        let clip = match self.max_grad_norm {
            Some(max_norm) => {
                let sq_sum: f64 = grads
                    .iter()
                    .filter(|(id, grad)| !store.is_frozen(*id) && grad.is_finite())
                    .map(|(_, grad)| grad.as_slice().iter().map(|g| g * g).sum::<f64>())
                    .sum();
                let norm = sq_sum.sqrt();
                self.last_grad_norm = Some(norm);
                if norm > max_norm {
                    max_norm / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        for (id, grad) in grads {
            self.update_param(store, *id, grad, clip);
        }
    }

    /// Applies one Adam update directly from a [`GradSource`]'s
    /// parameter-leaf gradients — an interpreted `Graph` after `backward`
    /// or a `CompiledStep` after replay — without materializing a
    /// `Vec<(ParamId, Tensor)>`.
    ///
    /// The arithmetic — global-norm clip pass included — is bitwise
    /// identical to `self.step(store, &source.param_grads())`: gradients
    /// are visited in the same first-appearance tape order, and the one
    /// case where the fused walk would differ (a parameter injected at
    /// several tape positions, whose partial gradients must be summed
    /// before squaring) is detected and routed through the materializing
    /// path.
    pub fn step_fused(&mut self, store: &mut ParamStore, source: &impl GradSource) {
        // Duplicate detection with generation-stamped scratch (allocation-
        // free once `seen` covers the store).
        self.seen_gen += 1;
        let gen = self.seen_gen;
        let mut duplicate = false;
        {
            let seen = &mut self.seen;
            source.for_each_param_grad(|id, _| {
                let idx = id.index();
                if idx >= seen.len() {
                    seen.resize(idx + 1, 0);
                }
                if seen[idx] == gen {
                    duplicate = true;
                } else {
                    seen[idx] = gen;
                }
            });
        }
        if duplicate {
            let grads = source.param_grads();
            self.step(store, &grads);
            return;
        }
        let clip = match self.max_grad_norm {
            Some(max_norm) => {
                let mut sq_sum = 0.0;
                source.for_each_param_grad(|id, grad| {
                    if !store.is_frozen(id) && grad.is_finite() {
                        sq_sum += grad.as_slice().iter().map(|g| g * g).sum::<f64>();
                    }
                });
                let norm = sq_sum.sqrt();
                self.last_grad_norm = Some(norm);
                if norm > max_norm {
                    max_norm / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        source.for_each_param_grad(|id, grad| {
            self.update_param(store, id, grad, clip);
        });
    }

    /// Single fused pass over the `(param, m, v)` slices of one parameter.
    fn update_param(&mut self, store: &mut ParamStore, id: ParamId, grad: &Tensor, clip: f64) {
        if store.is_frozen(id) || !grad.is_finite() {
            return;
        }
        let idx = id.index();
        if idx >= self.moments.len() {
            self.moments.resize(idx + 1, None);
            self.steps.resize(idx + 1, 0);
        }
        let param = store.get_mut(id);
        let (m, v) = self.moments[idx].get_or_insert_with(|| {
            (
                Tensor::zeros(param.rows(), param.cols()),
                Tensor::zeros(param.rows(), param.cols()),
            )
        });
        self.steps[idx] += 1;
        let t = self.steps[idx] as f64;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.lr;
        let eps = self.eps;
        for (((pk, mk), vk), &gr) in param
            .as_mut_slice()
            .iter_mut()
            .zip(m.as_mut_slice())
            .zip(v.as_mut_slice())
            .zip(grad.as_slice())
        {
            let gk = clip * gr;
            *mk = b1 * *mk + (1.0 - b1) * gk;
            *vk = b2 * *vk + (1.0 - b2) * gk * gk;
            let m_hat = *mk / bc1;
            let v_hat = *vk / bc2;
            *pk -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_autograd::Graph;

    fn quadratic_step(store: &mut ParamStore, w: ParamId) -> Vec<(ParamId, Tensor)> {
        let mut g = Graph::new();
        let wv = store.inject(&mut g, w);
        let sq = g.square(wv);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.param_grads()
    }

    #[test]
    fn converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add(Tensor::from_row(&[3.0, -4.0]));
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            let grads = quadratic_step(&mut store, w);
            opt.step(&mut store, &grads);
        }
        assert!(store.get(w).max_abs() < 1e-2);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut store = ParamStore::new();
        let w = store.add(Tensor::scalar(2.0));
        store.set_frozen(w, true);
        let mut opt = Adam::new(0.1);
        let grads = quadratic_step(&mut store, w);
        opt.step(&mut store, &grads);
        assert_eq!(store.get(w).item(), 2.0);
        store.set_frozen(w, false);
        let grads = quadratic_step(&mut store, w);
        opt.step(&mut store, &grads);
        assert!(store.get(w).item() < 2.0);
    }

    #[test]
    fn non_finite_grads_are_skipped() {
        let mut store = ParamStore::new();
        let w = store.add(Tensor::scalar(1.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &[(w, Tensor::scalar(f64::NAN))]);
        assert_eq!(store.get(w).item(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_lr() {
        let _ = Adam::new(-0.1);
    }

    #[test]
    fn clips_exploding_gradients_by_global_norm() {
        // A 3-4-0 gradient pair has global norm 5; with max_norm 1 the
        // effective gradient is scaled by 1/5 on every component.
        let mut store = ParamStore::new();
        let a = store.add(Tensor::scalar(0.0));
        let b = store.add(Tensor::from_row(&[0.0, 0.0]));
        let grads = vec![
            (a, Tensor::scalar(3.0e6)),
            (b, Tensor::from_row(&[4.0e6, 0.0])),
        ];

        let mut clipped = Adam::new(0.1).with_max_grad_norm(Some(1.0));
        let mut unclipped = Adam::new(0.1);
        let mut store2 = store.clone();
        clipped.step(&mut store, &grads);
        unclipped.step(&mut store2, &grads);

        // Both move downhill; the first Adam step size is ~lr either way,
        // but the second-moment state must reflect the *clipped* gradient.
        for (opt, st, label) in [(&clipped, &store, "clipped"), (&unclipped, &store2, "raw")] {
            assert!(st.get(a).item() < 0.0, "{label} should move");
            let _ = opt;
        }
        let m_clipped = clipped.moments[a.index()].as_ref().unwrap().0.item();
        let m_raw = unclipped.moments[a.index()].as_ref().unwrap().0.item();
        assert!((m_clipped - 0.1 * 0.6).abs() < 1e-12, "m = {m_clipped}");
        assert!(m_raw > 1e5, "raw first moment should be huge: {m_raw}");
        // Zero-component stays untouched in both.
        assert_eq!(store.get(b).as_slice()[1], 0.0);
    }

    #[test]
    fn frozen_params_do_not_count_toward_clip_norm() {
        let mut store = ParamStore::new();
        let frozen = store.add(Tensor::scalar(0.0));
        let live = store.add(Tensor::scalar(0.0));
        store.set_frozen(frozen, true);
        let grads = vec![
            (frozen, Tensor::scalar(1.0e9)), // must not inflate the norm
            (live, Tensor::scalar(0.5)),
        ];
        let mut opt = Adam::new(0.1).with_max_grad_norm(Some(1.0));
        opt.step(&mut store, &grads);
        // Live gradient (norm 0.5 < 1) is NOT scaled: first moment is
        // exactly (1 - beta1) * 0.5.
        let m = opt.moments[live.index()].as_ref().unwrap().0.item();
        assert!((m - 0.05).abs() < 1e-12, "m = {m}");
        assert_eq!(store.get(frozen).item(), 0.0);
    }

    #[test]
    fn last_grad_norm_reports_preclip_norm() {
        let mut store = ParamStore::new();
        let a = store.add(Tensor::scalar(0.0));
        let b = store.add(Tensor::from_row(&[0.0, 0.0]));
        let grads = vec![(a, Tensor::scalar(3.0)), (b, Tensor::from_row(&[4.0, 0.0]))];

        // Without clipping the norm is never measured.
        let mut plain = Adam::new(0.1);
        assert_eq!(plain.last_grad_norm(), None);
        plain.step(&mut store.clone(), &grads);
        assert_eq!(plain.last_grad_norm(), None);

        // With clipping, the pre-rescale norm is reported (3-4-0 → 5).
        let mut clipped = Adam::new(0.1).with_max_grad_norm(Some(1.0));
        clipped.step(&mut store, &grads);
        assert!((clipped.last_grad_norm().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn state_round_trip_resumes_bitwise() {
        // Run 5 steps, snapshot, run 3 more; separately restore the
        // snapshot into a fresh optimizer (same hyper-parameters) and run
        // the same 3 steps — parameters and state must match bitwise.
        let mut store = ParamStore::new();
        let w = store.add(Tensor::from_row(&[3.0, -4.0, 0.5]));
        let mut opt = Adam::new(0.05).with_max_grad_norm(Some(10.0));
        for _ in 0..5 {
            let grads = quadratic_step(&mut store, w);
            opt.step(&mut store, &grads);
        }
        let snap_store = store.clone();
        let snap = opt.export_state();
        assert_eq!(snap, opt.export_state(), "export is a pure read");

        for _ in 0..3 {
            let grads = quadratic_step(&mut store, w);
            opt.step(&mut store, &grads);
        }

        let mut resumed_store = snap_store;
        let mut resumed = Adam::new(0.05).with_max_grad_norm(Some(10.0));
        resumed.restore_state(snap);
        for _ in 0..3 {
            let grads = quadratic_step(&mut resumed_store, w);
            resumed.step(&mut resumed_store, &grads);
        }
        assert_eq!(store.get(w), resumed_store.get(w));
        assert_eq!(opt.export_state(), resumed.export_state());
    }
}
