//! Durable training checkpoints: versioned, CRC-guarded on-disk snapshots
//! of the full NOFIS training state, with atomic writes, generation
//! rotation, and a corruption-tolerant loader.
//!
//! # File format (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "NOFISCKP"
//! 8       4     format version (u32, currently 2)
//! 12      8     payload length in bytes (u64)
//! 20      n     payload (the encoded [`Checkpoint`])
//! 20+n    4     CRC-32 (IEEE) of the payload bytes
//! ```
//!
//! The payload is a flat hand-rolled binary encoding (the vendored serde is
//! serialize-only, so — like `telemetry::trace::parse_trace` — the reader
//! lives next to the writer in one module and the pair is round-trip
//! tested). Floats are stored as raw `f64` bits, so NaN payloads and signed
//! zeros survive exactly and a restored run is bitwise identical.
//!
//! # Atomicity and rotation
//!
//! [`write_atomic`] writes to `ckpt-<gen>.tmp`, fsyncs, renames to
//! `ckpt-<gen>.nofis`, and fsyncs the directory: a crash leaves either the
//! previous generation intact or a `*.tmp` that the next startup deletes
//! ([`clean_stale_tmps`]). [`load_latest`] walks generations newest-first
//! and skips anything whose magic/version/length/CRC does not check out
//! (emitting a `ckpt.corrupt_skipped` telemetry event), so a torn or
//! truncated newest file costs at most one checkpoint interval of
//! progress, never a panic. [`rotate`] keeps the newest `keep` generations.

use crate::{NofisConfig, StageReport};
use nofis_autograd::Tensor;
use nofis_nn::AdamState;
use nofis_telemetry as tele;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: identifies a NOFIS checkpoint regardless of extension.
pub const MAGIC: [u8; 8] = *b"NOFISCKP";

/// Current checkpoint format version.
///
/// Version 2 (the corner-sweep release) appended two fields to the
/// payload: the warm-start compatibility fingerprint
/// ([`warm_fingerprint`]) and the optional final Adam state a finished
/// run leaves behind for warm-start donors. Version-1 files are rejected
/// by [`decode`] like any other version mismatch — the loader then falls
/// back to older generations or a cold start, never a partial read.
pub const FORMAT_VERSION: u32 = 2;

/// File-name extension of finished checkpoints.
const EXT: &str = "nofis";

/// Default write interval (optimizer steps) when only a directory is
/// configured (e.g. `NOFIS_CKPT_DIR` without `NOFIS_CKPT_EVERY`).
pub const DEFAULT_EVERY_STEPS: u64 = 25;

/// Default number of checkpoint generations kept on disk.
pub const DEFAULT_KEEP: usize = 3;

/// Where and how often to write durable checkpoints
/// ([`NofisConfig::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding `ckpt-<generation>.nofis` files (created on first
    /// write).
    pub dir: PathBuf,
    /// Write a mid-stage checkpoint every this many optimizer steps (stage
    /// boundaries always checkpoint). Must be positive.
    pub every_steps: u64,
    /// Keep this many newest generations; older ones are deleted after each
    /// successful write. Must be positive.
    pub keep: usize,
    /// Isolates this run's checkpoints in a `job-<namespace>` subdirectory
    /// of `dir`, so many jobs can share one parent directory (e.g. a single
    /// `NOFIS_CKPT_DIR`) without clobbering each other's generations,
    /// rotation, or resume state. `None` writes directly into `dir` (the
    /// single-run layout). Restricted to `[A-Za-z0-9._-]` and must be
    /// non-empty when set. Excluded from the config fingerprint, like the
    /// rest of the checkpoint config.
    pub namespace: Option<String>,
}

impl CheckpointConfig {
    /// Checkpointing into `dir` with the default interval and rotation.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_steps: DEFAULT_EVERY_STEPS,
            keep: DEFAULT_KEEP,
            namespace: None,
        }
    }

    /// Same config, namespaced under `job-<namespace>` (see
    /// [`CheckpointConfig::namespace`]).
    pub fn with_namespace(mut self, namespace: impl Into<String>) -> Self {
        self.namespace = Some(namespace.into());
        self
    }

    /// The directory checkpoints actually land in: `dir` itself, or the
    /// `job-<namespace>` subdirectory when a namespace is set.
    pub fn effective_dir(&self) -> PathBuf {
        match &self.namespace {
            Some(ns) => self.dir.join(format!("job-{ns}")),
            None => self.dir.clone(),
        }
    }
}

/// A checkpoint that could not be decoded (bad magic/version/length/CRC or
/// a malformed payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid checkpoint: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

fn decode_err(message: impl Into<String>) -> DecodeError {
    DecodeError {
        message: message.into(),
    }
}

/// Mid-stage training cursor: everything beyond the parameters that the
/// retry loop and epoch accumulators carry while a stage is in flight.
///
/// `stage` is the 0-based stage in progress; its level is already the last
/// entry of [`Checkpoint::levels`]. Restoring this puts the resumed loop at
/// exactly the optimizer step after the one that wrote the checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePartial {
    /// 0-based stage in progress.
    pub stage: u64,
    /// 0-based epoch in progress.
    pub epoch: u64,
    /// Base samples consumed so far within the epoch.
    pub consumed: u64,
    /// The epoch's running loss accumulator (sum of `chunk_loss · n`).
    pub epoch_loss: f64,
    /// Completed epoch losses of the current retry pass.
    pub stage_losses: Vec<f64>,
    /// Best epoch loss seen this stage (rollback target metric).
    pub best_loss: f64,
    /// Rollback retries consumed so far.
    pub retries: u64,
    /// Current (possibly halved) learning rate.
    pub learning_rate: f64,
    /// Optimizer steps taken this stage (telemetry continuity).
    pub stage_steps: u64,
    /// Parameters of the best-loss rollback checkpoint.
    pub best_params: Vec<Tensor>,
    /// Parameters at the start of the epoch in progress (candidate rollback
    /// state if this epoch turns out best).
    pub epoch_start_params: Vec<Tensor>,
    /// Optimizer moments and step counters.
    pub adam: AdamState,
}

/// A complete durable training snapshot — everything `Nofis` needs to
/// resume bitwise-identically: parameters (frozen and live), the threshold
/// schedule realized so far, loss/report history, the RNG stream state, the
/// oracle's spent-call count, and (mid-stage) the [`StagePartial`] cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the generating configuration (see
    /// [`config_fingerprint`]); resume refuses a mismatch.
    pub config_fingerprint: u64,
    /// Warm-start compatibility fingerprint (see [`warm_fingerprint`]):
    /// hashes only the flow shape and stage schedule, so sibling corners
    /// of a sweep — which share the architecture but tune the training
    /// knobs — can recognize each other's finished checkpoints as donors.
    pub warm_fingerprint: u64,
    /// Problem dimension the flow was built for.
    pub dim: u64,
    /// Optimizer steps taken across all stages (checkpoint scheduling
    /// cursor).
    pub global_step: u64,
    /// The RNG stream state at the snapshot point.
    pub rng_state: [u64; 4],
    /// Simulator calls spent so far
    /// ([`BudgetedOracle::used`](nofis_prob::BudgetedOracle::used)).
    pub oracle_spent: u64,
    /// Whether training had fully completed when this was written (resume
    /// then skips straight to estimation).
    pub done: bool,
    /// Realized threshold levels so far (includes the in-progress stage's).
    pub levels: Vec<f64>,
    /// Per-completed-stage epoch losses.
    pub loss_history: Vec<Vec<f64>>,
    /// Per-completed-stage health reports.
    pub stage_reports: Vec<StageReport>,
    /// Live parameter tensors, in [`ParamStore`](nofis_autograd::ParamStore)
    /// id order.
    pub params: Vec<Tensor>,
    /// Per-parameter frozen flags.
    pub frozen: Vec<bool>,
    /// Mid-stage cursor; `None` at a stage boundary.
    pub partial: Option<StagePartial>,
    /// The optimizer state at the end of the last *completed* stage —
    /// what a warm-started sibling corner seeds its Adam with. Written at
    /// stage boundaries; `None` in mid-stage snapshots (their optimizer
    /// state lives in [`StagePartial::adam`]). Resume never reads it, so
    /// it cannot perturb the §11 bitwise-resume contract.
    pub final_adam: Option<AdamState>,
}

// ---------------------------------------------------------------------------
// Payload codec. Little-endian, length-prefixed, no self-description: the
// format version in the header governs the layout.

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// A `u64` element count, then each element.
    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u64(items.len() as u64);
        for x in items {
            item(self, x);
        }
    }
    /// A presence flag, then the value when present.
    fn option<T>(&mut self, v: Option<&T>, item: impl FnOnce(&mut Self, &T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            item(self, v);
        }
    }
    fn f64s(&mut self, v: &[f64]) {
        self.seq(v, |e, &x| e.f64(x));
    }
    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.rows() as u64);
        self.u64(t.cols() as u64);
        for &x in t.as_slice() {
            self.f64(x);
        }
    }
}

/// Bounds-checked cursor over untrusted payload bytes. Every read returns
/// `Result`; element counts are validated against the bytes actually
/// remaining *before* any allocation, so adversarial length prefixes can
/// neither panic nor balloon memory.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| decode_err("payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(decode_err(format!("invalid bool byte {v}"))),
        }
    }

    /// Reads a `u64` element count and checks that `count * elem_bytes`
    /// bytes actually remain.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        let remaining = self.buf.len() - self.pos;
        let fits = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(elem_bytes))
            .is_some_and(|need| need <= remaining);
        if !fits {
            return Err(decode_err(format!("implausible element count {n}")));
        }
        Ok(n as usize)
    }

    /// The counterpart of [`Enc::seq`]; each element takes at least
    /// `elem_bytes` bytes.
    fn seq<T>(
        &mut self,
        elem_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(elem_bytes)?;
        (0..n).map(|_| item(self)).collect()
    }

    /// The counterpart of [`Enc::option`].
    fn option<T>(
        &mut self,
        item: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        if self.bool()? {
            item(self).map(Some)
        } else {
            Ok(None)
        }
    }

    fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        self.seq(8, Self::f64)
    }

    fn tensor(&mut self) -> Result<Tensor, DecodeError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| {
                n.checked_mul(8)
                    .is_some_and(|need| need <= self.buf.len() - self.pos)
            })
            .ok_or_else(|| decode_err(format!("implausible tensor shape {rows}x{cols}")))?;
        let data: Vec<f64> = (0..n).map(|_| self.f64()).collect::<Result<_, _>>()?;
        Ok(Tensor::from_vec(rows, cols, data))
    }

    fn tensors(&mut self) -> Result<Vec<Tensor>, DecodeError> {
        // A tensor is at least 16 header bytes.
        self.seq(16, Self::tensor)
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(decode_err("trailing payload bytes"))
        }
    }
}

fn encode_report(e: &mut Enc, r: &StageReport) {
    e.u64(r.stage as u64);
    e.f64(r.level);
    e.u64(r.epochs_run as u64);
    e.u64(r.retries as u64);
    e.bool(r.rolled_back);
    e.f64(r.best_loss);
    e.f64(r.final_loss);
    e.f64(r.learning_rate);
    e.bool(r.truncated);
}

fn decode_report(d: &mut Dec<'_>) -> Result<StageReport, DecodeError> {
    Ok(StageReport {
        stage: d.u64()? as usize,
        level: d.f64()?,
        epochs_run: d.u64()? as usize,
        retries: d.u64()? as usize,
        rolled_back: d.bool()?,
        best_loss: d.f64()?,
        final_loss: d.f64()?,
        learning_rate: d.f64()?,
        truncated: d.bool()?,
    })
}

fn encode_adam(e: &mut Enc, a: &AdamState) {
    e.seq(&a.moments, |e, m| {
        e.option(m.as_ref(), |e, (m1, m2)| {
            e.tensor(m1);
            e.tensor(m2);
        })
    });
    e.seq(&a.steps, |e, &s| e.u64(s));
}

fn decode_adam(d: &mut Dec<'_>) -> Result<AdamState, DecodeError> {
    Ok(AdamState {
        moments: d.seq(1, |d| d.option(|d| Ok((d.tensor()?, d.tensor()?))))?,
        steps: d.seq(8, Dec::u64)?,
    })
}

fn encode_partial(e: &mut Enc, p: &StagePartial) {
    e.u64(p.stage);
    e.u64(p.epoch);
    e.u64(p.consumed);
    e.f64(p.epoch_loss);
    e.f64s(&p.stage_losses);
    e.f64(p.best_loss);
    e.u64(p.retries);
    e.f64(p.learning_rate);
    e.u64(p.stage_steps);
    e.seq(&p.best_params, Enc::tensor);
    e.seq(&p.epoch_start_params, Enc::tensor);
    encode_adam(e, &p.adam);
}

fn decode_partial(d: &mut Dec<'_>) -> Result<StagePartial, DecodeError> {
    Ok(StagePartial {
        stage: d.u64()?,
        epoch: d.u64()?,
        consumed: d.u64()?,
        epoch_loss: d.f64()?,
        stage_losses: d.f64s()?,
        best_loss: d.f64()?,
        retries: d.u64()?,
        learning_rate: d.f64()?,
        stage_steps: d.u64()?,
        best_params: d.tensors()?,
        epoch_start_params: d.tensors()?,
        adam: decode_adam(d)?,
    })
}

/// CRC-32 (IEEE 802.3, reflected, init/final-xor `0xffff_ffff`) of
/// `bytes`: the checkpoint trailer's integrity checksum.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Encodes a checkpoint into a complete file image (header + payload +
/// CRC), ready for an atomic write.
pub fn encode(c: &Checkpoint) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(c.config_fingerprint);
    e.u64(c.warm_fingerprint);
    e.u64(c.dim);
    e.u64(c.global_step);
    for w in c.rng_state {
        e.u64(w);
    }
    e.u64(c.oracle_spent);
    e.bool(c.done);
    e.f64s(&c.levels);
    e.seq(&c.loss_history, |e, losses| e.f64s(losses));
    e.seq(&c.stage_reports, encode_report);
    e.seq(&c.params, Enc::tensor);
    e.seq(&c.frozen, |e, &f| e.bool(f));
    e.option(c.partial.as_ref(), encode_partial);
    e.option(c.final_adam.as_ref(), encode_adam);
    let payload = e.buf;

    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Decodes a complete file image produced by [`encode`], verifying magic,
/// version, length, and CRC. Never panics on malformed input.
///
/// # Errors
///
/// Returns [`DecodeError`] describing the first violation found.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
    if bytes.len() < 24 {
        return Err(decode_err("file shorter than the fixed header"));
    }
    if bytes[..8] != MAGIC {
        return Err(decode_err("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(decode_err(format!(
            "unsupported format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let expected_total = payload_len
        .checked_add(24)
        .ok_or_else(|| decode_err("implausible payload length"))?;
    if bytes.len() != expected_total {
        return Err(decode_err(format!(
            "file length {} does not match header ({expected_total})",
            bytes.len()
        )));
    }
    let payload = &bytes[20..20 + payload_len];
    let stored_crc = u32::from_le_bytes(bytes[20 + payload_len..].try_into().expect("4 bytes"));
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(decode_err(format!(
            "CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )));
    }

    // Struct fields evaluate in source order, which is the payload order.
    let mut d = Dec::new(payload);
    let ckpt = Checkpoint {
        config_fingerprint: d.u64()?,
        warm_fingerprint: d.u64()?,
        dim: d.u64()?,
        global_step: d.u64()?,
        rng_state: [d.u64()?, d.u64()?, d.u64()?, d.u64()?],
        oracle_spent: d.u64()?,
        done: d.bool()?,
        levels: d.f64s()?,
        loss_history: d.seq(8, Dec::f64s)?,
        stage_reports: d.seq(1, decode_report)?,
        params: d.tensors()?,
        frozen: d.seq(1, Dec::bool)?,
        partial: d.option(decode_partial)?,
        final_adam: d.option(decode_adam)?,
    };
    d.done()?;
    Ok(ckpt)
}

/// Encodes the fields both fingerprints share — the stage schedule, then
/// the flow shape (dim, layers per stage, hidden width, coupling clamp).
fn encode_shape(e: &mut Enc, cfg: &NofisConfig, dim: usize) {
    match &cfg.levels {
        crate::Levels::Fixed(v) => {
            e.u8(0);
            e.f64s(v);
        }
        crate::Levels::AdaptiveQuantile {
            max_stages,
            p0,
            pilot,
        } => {
            e.u8(1);
            e.u64(*max_stages as u64);
            e.f64(*p0);
            e.u64(*pilot as u64);
        }
    }
    e.u64(dim as u64);
    e.u64(cfg.layers_per_stage as u64);
    e.u64(cfg.hidden as u64);
    e.f64(cfg.s_max);
}

/// 64-bit FNV-1a over the encoded bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a fingerprint of the configuration fields that determine the shape
/// and trajectory of a training run. Two configs with equal fingerprints
/// produce interchangeable checkpoints; resume refuses a mismatch rather
/// than restoring parameters into a differently-shaped flow or silently
/// changing the schedule mid-run. Observability knobs (telemetry, the
/// checkpoint settings themselves) are deliberately excluded — they never
/// affect results (see the determinism contract, DESIGN.md §8).
pub fn config_fingerprint(cfg: &NofisConfig, dim: usize) -> u64 {
    let mut e = Enc::default();
    encode_shape(&mut e, cfg, dim);
    e.u64(cfg.epochs as u64);
    e.u64(cfg.batch_size as u64);
    e.u64(cfg.n_is as u64);
    e.f64(cfg.tau);
    e.f64(cfg.learning_rate);
    e.u64(cfg.minibatch as u64);
    e.bool(cfg.freeze);
    e.bool(cfg.prune_frozen);
    e.u64(cfg.max_calls.unwrap_or(u64::MAX));
    e.f64(cfg.max_grad_norm.unwrap_or(f64::NAN));
    e.u64(cfg.stage_retries as u64);
    fnv1a(&e.buf)
}

/// FNV-1a fingerprint of the *warm-start compatibility* fields: the flow
/// architecture (dim, layers per stage, hidden width, coupling clamp) and
/// the stage schedule, plus the freeze policy (it decides which donor
/// parameters were actually trained). Two runs with equal warm
/// fingerprints have interchangeable parameter/optimizer state shapes, so
/// one's finished checkpoint can seed the other.
///
/// Deliberately *narrower* than [`config_fingerprint`]: training knobs a
/// warm refine run is expected to change — epochs, batch size, learning
/// rate, `n_is`, `tau`, minibatch, budget, grad clip, retries — are
/// excluded, and the corner's own parameters never appear (they live in
/// the `LimitState`, not the config).
pub fn warm_fingerprint(cfg: &NofisConfig, dim: usize) -> u64 {
    let mut e = Enc::default();
    encode_shape(&mut e, cfg, dim);
    e.bool(cfg.freeze);
    fnv1a(&e.buf)
}

/// Donor state for warm-starting a sibling run: the finished donor's
/// parameters and final optimizer moments, plus the compatibility
/// metadata the recipient validates before seeding from them.
///
/// Loaded from a *finished* (`done: true`) checkpoint via
/// [`load_warm_start`]; consumed by `Nofis::run_warm_or_resume`.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Donor's final parameter tensors, in
    /// [`ParamStore`](nofis_autograd::ParamStore) id order. Frozen flags
    /// are *not* carried: the recipient starts its own freeze schedule
    /// from stage 0.
    pub params: Vec<Tensor>,
    /// Donor's final Adam state, when its checkpoint recorded one.
    pub adam: Option<AdamState>,
    /// The donor's [`warm_fingerprint`]; the recipient refuses a
    /// mismatch.
    pub warm_fingerprint: u64,
    /// The donor's problem dimension.
    pub dim: u64,
    /// Human-readable donor label (e.g. the corner name) for telemetry
    /// and sweep reports.
    pub donor: String,
}

/// Loads warm-start donor state from the newest valid checkpoint in
/// `dir`, labeled `donor` for telemetry. Returns `Ok(None)` when the
/// directory holds no valid *finished* checkpoint — an unfinished donor
/// cannot seed anyone (its parameters are mid-schedule).
///
/// Compatibility (fingerprint/dim) is checked by the recipient at train
/// time, not here: the loader cannot know which config will consume the
/// state.
///
/// # Errors
///
/// Only directory-listing I/O errors (like [`load_latest`]).
pub fn load_warm_start(dir: &Path, donor: &str) -> std::io::Result<Option<WarmStart>> {
    match load_latest(dir)? {
        Some((_, ckpt)) if ckpt.done => Ok(Some(WarmStart {
            params: ckpt.params,
            adam: ckpt.final_adam,
            warm_fingerprint: ckpt.warm_fingerprint,
            dim: ckpt.dim,
            donor: donor.to_string(),
        })),
        _ => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// File operations.

fn gen_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:010}.{EXT}"))
}

/// Parses `ckpt-<generation>.nofis` file names.
fn parse_gen(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("ckpt-")?;
    let digits = rest.strip_suffix(&format!(".{EXT}"))?;
    digits.parse().ok()
}

/// Lists `(generation, path)` pairs in `dir`, ascending by generation. A
/// missing directory is an empty list, not an error.
pub fn list_generations(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut gens = Vec::new();
    for entry in entries {
        let entry = entry?;
        if let Some(generation) = entry.file_name().to_str().and_then(parse_gen) {
            gens.push((generation, entry.path()));
        }
    }
    gens.sort_unstable_by_key(|(g, _)| *g);
    Ok(gens)
}

/// Deletes stale `ckpt-<generation>.tmp` files left behind by a crash
/// mid-write. Called on checkpointer startup; failures to remove are
/// ignored (the stale file is merely disk noise — it can never be loaded).
///
/// Only files matching this crate's own tmp naming are touched: a `.tmp`
/// with any other name (another tool's scratch file in a shared parent
/// directory) is left alone. Cross-*job* safety comes from namespacing
/// ([`CheckpointConfig::namespace`]), which gives each job its own
/// directory — cleanup never needs to reach outside it.
pub fn clean_stale_tmps(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let is_own_tmp = name.to_str().is_some_and(|n| {
            n.strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".tmp"))
                .is_some_and(|digits| {
                    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
                })
        });
        if is_own_tmp {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The fault-injection seam at [`Site::CkptWrite`](nofis_faults::Site):
/// when scheduled, the write fails with an injected I/O error before
/// touching the disk.
fn write_fault() -> std::io::Result<()> {
    if nofis_faults::active() {
        if let Some(kind @ nofis_faults::FaultKind::CkptWriteFail) =
            nofis_faults::check(nofis_faults::Site::CkptWrite)
        {
            tele::event(tele::Level::Warn, "fault.injected")
                .field("site", nofis_faults::Site::CkptWrite.as_str())
                .field("kind", kind.as_str())
                .emit();
            return Err(std::io::Error::other(
                "injected fault: checkpoint write failure (nofis-faults)",
            ));
        }
    }
    Ok(())
}

/// Atomically writes `ckpt` as generation `generation` under `dir`
/// (creating it): encode → write `ckpt-<gen>.tmp` → fsync → rename →
/// fsync the directory. Returns the final path.
///
/// # Errors
///
/// Any I/O failure (including an injected one); the target file is never
/// left half-written — at worst a `*.tmp` remains for
/// [`clean_stale_tmps`].
pub fn write_atomic(dir: &Path, generation: u64, ckpt: &Checkpoint) -> std::io::Result<PathBuf> {
    write_fault()?;
    std::fs::create_dir_all(dir)?;
    let bytes = encode(ckpt);
    let tmp = dir.join(format!("ckpt-{generation:010}.tmp"));
    let final_path = gen_path(dir, generation);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &final_path)?;
    // Persist the rename itself; without this a crash can forget the file
    // even though its contents are safe.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Deletes all but the newest `keep` generations. Removal failures are
/// ignored (rotation is best-effort hygiene, never correctness).
pub fn rotate(dir: &Path, keep: usize) -> std::io::Result<()> {
    let gens = list_generations(dir)?;
    if gens.len() > keep {
        for (_, path) in &gens[..gens.len() - keep] {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(())
}

/// Loads the newest valid checkpoint in `dir`, walking generations
/// newest-first and skipping torn/truncated/corrupt files (each skip emits
/// a `ckpt.corrupt_skipped` telemetry event). `Ok(None)` when the
/// directory is missing, empty, or contains no valid checkpoint.
///
/// # Errors
///
/// Only directory-listing I/O errors; unreadable or invalid *files* are
/// skipped, not fatal.
pub fn load_latest(dir: &Path) -> std::io::Result<Option<(u64, Checkpoint)>> {
    let gens = list_generations(dir)?;
    for (generation, path) in gens.into_iter().rev() {
        let outcome = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| decode(&bytes).map_err(|e| e.to_string()));
        match outcome {
            Ok(ckpt) => return Ok(Some((generation, ckpt))),
            Err(reason) => {
                tele::event(tele::Level::Warn, "ckpt.corrupt_skipped")
                    .field("path", path.display().to_string().as_str())
                    .field("generation", generation)
                    .field("reason", reason.as_str())
                    .emit();
            }
        }
    }
    Ok(None)
}

/// The training loop's checkpoint writer: owns the generation counter,
/// write-interval policy, rotation, and write-failure telemetry. A write
/// failure warns and training continues — durability degrades, the run
/// does not.
#[derive(Debug)]
pub(crate) struct Checkpointer {
    cfg: CheckpointConfig,
    dir: PathBuf,
    next_gen: u64,
}

impl Checkpointer {
    /// Prepares to write into the config's effective directory (namespace
    /// applied): cleans stale tmps and continues the generation sequence
    /// after any existing checkpoints.
    pub(crate) fn new(cfg: CheckpointConfig) -> Self {
        let dir = cfg.effective_dir();
        clean_stale_tmps(&dir);
        let next_gen = match list_generations(&dir) {
            Ok(gens) => gens.last().map_or(1, |(g, _)| g + 1),
            Err(_) => 1,
        };
        Checkpointer { cfg, dir, next_gen }
    }

    /// Whether an optimizer step at `global_step` (1-based, post-step)
    /// should write a mid-stage checkpoint.
    pub(crate) fn due(&self, global_step: u64) -> bool {
        global_step.is_multiple_of(self.cfg.every_steps)
    }

    /// Writes `ckpt` as the next generation and rotates. Failures warn
    /// (`ckpt.write_failed`) and are swallowed.
    pub(crate) fn write(&mut self, ckpt: &Checkpoint) {
        let generation = self.next_gen;
        match write_atomic(&self.dir, generation, ckpt) {
            Ok(path) => {
                self.next_gen += 1;
                tele::event(tele::Level::Info, "ckpt.write")
                    .field("generation", generation)
                    .field("global_step", ckpt.global_step)
                    .field("done", ckpt.done)
                    .field("mid_stage", ckpt.partial.is_some())
                    .field("path", path.display().to_string().as_str())
                    .emit();
                let _ = rotate(&self.dir, self.cfg.keep.max(1));
            }
            Err(e) => {
                tele::event(tele::Level::Warn, "ckpt.write_failed")
                    .field("generation", generation)
                    .field("global_step", ckpt.global_step)
                    .field("error", e.to_string().as_str())
                    .emit();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint() -> Checkpoint {
        Checkpoint {
            config_fingerprint: 0xdead_beef,
            warm_fingerprint: 0xfeed_f00d,
            dim: 2,
            global_step: 7,
            rng_state: [1, 2, 3, u64::MAX],
            oracle_spent: 123,
            done: false,
            levels: vec![1.5, 0.0],
            loss_history: vec![vec![3.0, 2.5], vec![]],
            stage_reports: vec![StageReport {
                stage: 1,
                level: 1.5,
                epochs_run: 2,
                retries: 1,
                rolled_back: true,
                best_loss: 2.5,
                final_loss: 2.5,
                learning_rate: 4e-3,
                truncated: false,
            }],
            params: vec![
                Tensor::from_vec(2, 3, vec![1.0, -2.0, 0.5, f64::NAN, f64::INFINITY, -0.0]),
                Tensor::from_vec(1, 1, vec![42.0]),
            ],
            frozen: vec![true, false],
            partial: Some(StagePartial {
                stage: 1,
                epoch: 0,
                consumed: 10,
                epoch_loss: -3.25,
                stage_losses: vec![2.0],
                best_loss: 2.0,
                retries: 0,
                learning_rate: 8e-3,
                stage_steps: 3,
                best_params: vec![Tensor::from_vec(1, 2, vec![0.0, 1.0])],
                epoch_start_params: vec![Tensor::from_vec(1, 2, vec![0.5, 1.5])],
                adam: nofis_nn::AdamState {
                    moments: vec![
                        None,
                        Some((
                            Tensor::from_vec(1, 2, vec![0.1, 0.2]),
                            Tensor::from_vec(1, 2, vec![0.3, 0.4]),
                        )),
                    ],
                    steps: vec![0, 5],
                },
            }),
            final_adam: Some(nofis_nn::AdamState {
                moments: vec![
                    Some((
                        Tensor::from_vec(2, 3, vec![0.0; 6]),
                        Tensor::from_vec(2, 3, vec![1e-8; 6]),
                    )),
                    None,
                ],
                steps: vec![36, 0],
            }),
        }
    }

    /// Bitwise equality, including NaN payloads (PartialEq alone would call
    /// NaN != NaN).
    fn bits_equal(a: &Checkpoint, b: &Checkpoint) -> bool {
        encode(a) == encode(b)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let c = tiny_checkpoint();
        let bytes = encode(&c);
        let back = decode(&bytes).unwrap();
        assert!(bits_equal(&c, &back));
        // NaN and ±0.0 payload bits survive exactly.
        let p = &back.params[0];
        assert!(p.as_slice()[3].is_nan());
        assert_eq!(p.as_slice()[5].to_bits(), (-0.0f64).to_bits());

        // A boundary checkpoint (no partial) round-trips too.
        let mut c2 = c.clone();
        c2.partial = None;
        c2.done = true;
        let back2 = decode(&encode(&c2)).unwrap();
        assert!(bits_equal(&c2, &back2));
        assert_eq!(back2.partial, None);
        assert!(back2.done);
        assert_eq!(back2.warm_fingerprint, 0xfeed_f00d);
        assert!(back2.final_adam.is_some());

        // And one without the optional v2 Adam trailer.
        let mut c3 = c.clone();
        c3.final_adam = None;
        let back3 = decode(&encode(&c3)).unwrap();
        assert!(bits_equal(&c3, &back3));
        assert_eq!(back3.final_adam, None);
    }

    #[test]
    fn version_one_files_are_rejected_cleanly() {
        let mut bytes = encode(&tiny_checkpoint());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&tiny_checkpoint());
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "truncation at {len}/{} must not decode",
                bytes.len()
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let bytes = encode(&tiny_checkpoint());
        // Flip one bit in every region: magic, version, length, payload, CRC.
        for &pos in &[0, 9, 13, 25, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {pos} must not decode");
        }
        // Appending bytes breaks the length check.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).is_err());
    }

    #[test]
    fn atomic_write_and_rotation() {
        let dir = std::env::temp_dir().join(format!("nofis-ckpt-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = tiny_checkpoint();
        for generation in 1..=5 {
            write_atomic(&dir, generation, &c).unwrap();
        }
        rotate(&dir, 2).unwrap();
        let gens = list_generations(&dir).unwrap();
        assert_eq!(gens.iter().map(|(g, _)| *g).collect::<Vec<_>>(), vec![4, 5]);
        let (latest, back) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest, 5);
        assert!(bits_equal(&c, &back));

        // Stale tmp files are cleaned, finished checkpoints untouched.
        std::fs::write(dir.join("ckpt-0000000009.tmp"), b"junk").unwrap();
        clean_stale_tmps(&dir);
        assert!(!dir.join("ckpt-0000000009.tmp").exists());
        assert_eq!(list_generations(&dir).unwrap().len(), 2);

        // A corrupted newest generation falls back to the previous one.
        let newest = gen_path(&dir, 5);
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&newest, &bytes).unwrap();
        let (generation, back) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(generation, 4);
        assert!(bits_equal(&c, &back));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_empty_not_an_error() {
        let dir = std::env::temp_dir().join("nofis-ckpt-definitely-missing");
        assert_eq!(list_generations(&dir).unwrap(), Vec::new());
        assert_eq!(load_latest(&dir).unwrap(), None);
    }

    #[test]
    fn fingerprint_tracks_run_shaping_fields_only() {
        let base = NofisConfig::default();
        let fp = config_fingerprint(&base, 6);
        assert_eq!(fp, config_fingerprint(&base, 6), "deterministic");
        assert_ne!(fp, config_fingerprint(&base, 7), "dim matters");
        let mut widened = base.clone();
        widened.hidden += 1;
        assert_ne!(fp, config_fingerprint(&widened, 6));
        let mut observed = base.clone();
        observed.checkpoint = Some(CheckpointConfig::new("/tmp/x"));
        observed.compile_tape = !base.compile_tape;
        assert_eq!(
            fp,
            config_fingerprint(&observed, 6),
            "observability and execution-engine knobs are excluded"
        );
    }

    #[test]
    fn warm_fingerprint_tracks_shape_not_training_knobs() {
        let base = NofisConfig::default();
        let wfp = warm_fingerprint(&base, 6);
        assert_eq!(wfp, warm_fingerprint(&base, 6), "deterministic");
        assert_ne!(wfp, warm_fingerprint(&base, 7), "dim matters");

        // Architecture and schedule changes invalidate donors.
        let mut widened = base.clone();
        widened.hidden += 1;
        assert_ne!(wfp, warm_fingerprint(&widened, 6));
        let mut deeper = base.clone();
        deeper.layers_per_stage += 1;
        assert_ne!(wfp, warm_fingerprint(&deeper, 6));
        let mut refrozen = base.clone();
        refrozen.freeze = !base.freeze;
        assert_ne!(wfp, warm_fingerprint(&refrozen, 6));

        // Training knobs a warm refine run tunes do NOT invalidate donors
        // (the whole point: refine runs shorten training), even though
        // they DO change the strict config fingerprint.
        let mut refine = base.clone();
        refine.epochs = base.epochs.max(3) / 3;
        refine.batch_size += 32;
        refine.learning_rate *= 0.5;
        refine.n_is += 100;
        refine.max_calls = Some(12_345);
        assert_eq!(wfp, warm_fingerprint(&refine, 6));
        assert_ne!(
            config_fingerprint(&base, 6),
            config_fingerprint(&refine, 6),
            "strict fingerprint must still distinguish the refine config"
        );
    }

    /// Pins both fingerprints to fixed values: they decide whether
    /// checkpoints already on disk resume and whether sweep donors still
    /// match, so any encoder change must leave them where they are.
    #[test]
    fn fingerprints_are_pinned() {
        let base = NofisConfig::default();
        let adaptive = NofisConfig {
            levels: crate::Levels::AdaptiveQuantile {
                max_stages: 7,
                p0: 0.2,
                pilot: 300,
            },
            ..NofisConfig::default()
        };
        let fixed = NofisConfig {
            levels: crate::Levels::Fixed(vec![3.0, 1.5, 0.0]),
            ..NofisConfig::default()
        };
        let got = [
            config_fingerprint(&base, 6),
            warm_fingerprint(&base, 6),
            config_fingerprint(&adaptive, 6),
            warm_fingerprint(&adaptive, 6),
            config_fingerprint(&fixed, 6),
            warm_fingerprint(&fixed, 6),
        ];
        assert_eq!(
            got,
            [
                0x816c_6693_561d_ecbc,
                0x56c6_c2a4_65ef_00b5,
                0x053a_df3e_19b2_23a5,
                0x4d80_2a21_4572_4612,
                0x0166_4495_7f57_f09d,
                0x7934_22ee_9261_04ea,
            ]
        );
    }

    #[test]
    fn load_warm_start_requires_a_finished_donor() {
        let dir = std::env::temp_dir().join(format!("nofis-warm-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // No directory at all: no donor, no error.
        assert!(load_warm_start(&dir, "c0").unwrap().is_none());

        // An unfinished checkpoint is not a donor.
        let mut c = tiny_checkpoint();
        c.done = false;
        write_atomic(&dir, 1, &c).unwrap();
        assert!(load_warm_start(&dir, "c0").unwrap().is_none());

        // A finished one is, carrying params + final Adam + metadata.
        c.done = true;
        c.partial = None;
        write_atomic(&dir, 2, &c).unwrap();
        let ws = load_warm_start(&dir, "c0").unwrap().unwrap();
        assert_eq!(ws.donor, "c0");
        assert_eq!(ws.dim, 2);
        assert_eq!(ws.warm_fingerprint, 0xfeed_f00d);
        assert_eq!(ws.params.len(), 2);
        assert!(ws.adam.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
