//! CPD-ALS — paper Algorithm 1, generic over the MTTKRP backend.
//!
//! Each iteration updates every factor in turn:
//! `Aₙ ← MTTKRP(X, n) · (∗ₘ≠ₙ AₘᵀAₘ)†`, then normalizes the updated
//! factor's columns into `λ`. The MTTKRP is supplied as a closure so any
//! kernel in this crate (CPU or simulated-GPU) can drive a full
//! decomposition — MTTKRP being "a common bottleneck for CPD" is the
//! paper's entire motivation.
//!
//! Every public driver here (and the streaming driver in `gpu::stream`)
//! is a thin delegation to one private engine, `als`, generic over the
//! MTTKRP backend and given `‖X‖`, the update rule (least squares or
//! non-negative multiplicative), and optional resilience guards. The
//! fit's `⟨X, X̃⟩` comes from the last mode's MTTKRP output (Kolda &
//! Bader 2009), so no iteration re-reads the tensor. Cross-driver
//! bit-identity holds because there is only one loop to agree with.

use std::convert::Infallible;
use std::time::Instant;

use dense::{pseudo_inverse, spd_condition, HadamardChain, Matrix};
use simprof::{ModeTiming, ResilienceRecord, RunManifest};
use sptensor::CooTensor;

use crate::gpu::GpuContext;
use crate::reference::random_factors;

/// CPD-ALS configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpdOptions {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Maximum ALS iterations (paper term: `outer_iters`).
    pub max_iters: usize,
    /// Stop when the fit improves by less than this.
    pub tol: f64,
    /// Factor initialization seed.
    pub seed: u64,
}

impl Default for CpdOptions {
    fn default() -> Self {
        CpdOptions {
            rank: 16,
            max_iters: 25,
            tol: 1e-5,
            seed: 0xC9D,
        }
    }
}

/// Decomposition output.
#[derive(Debug, Clone)]
pub struct CpdResult {
    /// Normalized factor matrices, one per mode.
    pub factors: Vec<Matrix>,
    /// Column weights (norms absorbed from the last-updated factor).
    pub lambda: Vec<f32>,
    /// Fit after each iteration: `1 − ‖X − X̃‖ / ‖X‖`.
    pub fits: Vec<f64>,
    /// Iterations actually executed.
    pub iterations: usize,
}

impl CpdResult {
    /// Final fit (0 when no iterations ran).
    pub fn final_fit(&self) -> f64 {
        self.fits.last().copied().unwrap_or(0.0)
    }
}

/// Runs CPD-ALS on `t` using `mttkrp(factors, mode)` as the kernel.
///
/// The closure must return `X₍ₙ₎ ⨀ₘ≠ₙ factors[m]` exactly like
/// [`crate::reference::mttkrp`] — every backend in this crate qualifies.
///
/// ```
/// use mttkrp::cpd::{cpd_als, CpdOptions};
/// use mttkrp::reference;
/// use sptensor::synth::uniform_random;
///
/// let t = uniform_random(&[6, 7, 8], 100, 1);
/// let opts = CpdOptions { rank: 3, max_iters: 5, tol: 0.0, seed: 2 };
/// let res = cpd_als(&t, &opts, |factors, mode| reference::mttkrp(&t, factors, mode));
/// assert_eq!(res.iterations, 5);
/// assert_eq!(res.factors.len(), 3);
/// assert!(res.final_fit() > 0.0);
/// ```
pub fn cpd_als(
    t: &CooTensor,
    opts: &CpdOptions,
    mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
) -> CpdResult {
    resident(t, opts, Update::LeastSquares, mttkrp, None, None, None).0
}

/// [`cpd_als`] with iteration telemetry: per-mode MTTKRP wall time, fit
/// trajectory, and total run time are appended to `manifest` (one
/// [`IterationRecord`](simprof::IterationRecord) per ALS iteration). The
/// manifest's `rank`/`max_iters`/`tol`/`seed` are overwritten from `opts`
/// so the written document always describes the run that produced it.
/// With a `ctx`, per-iteration simulated timings are observed into its
/// registry (`cpd.iter_sim_us`) and `iteration` events are emitted when
/// its telemetry stream is enabled.
pub fn cpd_als_profiled(
    t: &CooTensor,
    opts: &CpdOptions,
    mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
    manifest: &mut RunManifest,
    ctx: Option<&GpuContext>,
) -> CpdResult {
    resident(
        t,
        opts,
        Update::LeastSquares,
        mttkrp,
        None,
        Some(manifest),
        ctx,
    )
    .0
}

/// [`cpd_als`] driven by pre-captured launch plans: one
/// [`ModePlans`](crate::gpu::ModePlans) replay per (iteration, mode)
/// instead of a fresh kernel emission. Numerically identical to wiring
/// `plans.execute` into [`cpd_als`] by hand — this is the convenience
/// spelling of the plan/execute split.
pub fn cpd_als_planned(
    t: &CooTensor,
    opts: &CpdOptions,
    ctx: &GpuContext,
    plans: &crate::gpu::ModePlans,
) -> CpdResult {
    let backend = |factors: &[Matrix], mode: usize| match plans.execute(ctx, factors, mode) {
        Ok(run) => run.y,
        // A launch refusal (rank/shape mismatch against the captured
        // plan) cannot be retried at this layer; degrade to the
        // reference kernel rather than poison the whole run.
        Err(_) => crate::reference::mttkrp(t, factors, mode),
    };
    resident(
        t,
        opts,
        Update::LeastSquares,
        backend,
        None,
        None,
        Some(ctx),
    )
    .0
}

/// Self-healing policy for [`cpd_als_resilient`].
#[derive(Debug, Clone, Copy)]
pub struct ResilienceOptions {
    /// Take a factor checkpoint every this many ALS iterations (the last
    /// non-regressed state rollbacks return to).
    pub checkpoint_every: usize,
    /// A fit drop larger than this (vs. the best fit seen) triggers a
    /// rollback to the last checkpoint.
    pub fit_drop_tol: f64,
    /// Rollbacks allowed before regressions are accepted as-is (prevents
    /// livelock under a persistently hostile fault plan).
    pub max_rollbacks: u64,
    /// Gram-Hadamard condition number above which the normal equations are
    /// Tikhonov-regularized before inversion.
    pub cond_limit: f64,
    /// Relative ridge weight for the Tikhonov fallback: the diagonal gets
    /// `ridge × trace(V)/R` added.
    pub ridge: f32,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            checkpoint_every: 2,
            fit_drop_tol: 1e-3,
            max_rollbacks: 3,
            cond_limit: 1e8,
            ridge: 1e-4,
        }
    }
}

/// What the self-healing machinery did during a [`cpd_als_resilient`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Non-finite entries scrubbed from MTTKRP outputs and factor updates.
    pub nan_resets: u64,
    /// Normal-equations solves that took the Tikhonov-regularized path.
    pub tikhonov_fallbacks: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks to a checkpoint after a fit regression.
    pub rollbacks: u64,
}

/// Replaces non-finite entries with zero; returns how many were scrubbed.
fn scrub_nonfinite(m: &mut Matrix) -> u64 {
    let mut n = 0u64;
    for v in m.data_mut() {
        if !v.is_finite() {
            *v = 0.0;
            n += 1;
        }
    }
    n
}

/// A rollback target: everything ALS needs to resume from an iteration
/// (grams are recomputed after the rollback jitter, so not stored).
#[derive(Clone)]
struct Checkpoint {
    factors: Vec<Matrix>,
    lambda: Vec<f32>,
    fit: f64,
}

/// [`cpd_als`] hardened against faulty MTTKRP backends — the CPD layer of
/// the simfault stack. Three independent guards:
///
/// 1. **NaN/Inf scrubbing** — non-finite entries in a kernel's output or
///    in the updated factor are replaced with zero (then repaired by later
///    iterations) instead of poisoning the whole decomposition.
/// 2. **Tikhonov fallback** — when the Gram-Hadamard matrix `V` is
///    ill-conditioned (corrupted factors routinely degenerate it), a
///    relative ridge is added before the pseudo-inverse.
/// 3. **Checkpoint & rollback** — factors are checkpointed every
///    [`ResilienceOptions::checkpoint_every`] iterations; a fit regression
///    beyond [`ResilienceOptions::fit_drop_tol`] rolls back to the last
///    checkpoint and re-jitters the factors (deterministically, from
///    `opts.seed` and the rollback count) so the re-run does not retrace
///    the corrupted trajectory.
///
/// Every event is counted in the returned [`ResilienceStats`] and — when a
/// manifest is supplied — merged into [`RunManifest::resilience`]. With a
/// fault-free backend every guard is inert: the result equals
/// [`cpd_als`]'s exactly.
///
/// Checkpoints here are in-memory rollback targets. Setting
/// [`ResilienceOptions::checkpoint_every`] to `0` disables checkpointing
/// entirely: no checkpoints are taken, so a fit regression has no
/// rollback target and the run rides it out (rollbacks stay at zero).
/// For durable, crash-consistent checkpoints on disk see
/// [`cpd_als_resilient_durable`].
pub fn cpd_als_resilient(
    t: &CooTensor,
    opts: &CpdOptions,
    ropts: &ResilienceOptions,
    mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
    manifest: Option<&mut RunManifest>,
    ctx: Option<&GpuContext>,
) -> (CpdResult, ResilienceStats) {
    let guards = Guards {
        ropts,
        durable: None,
    };
    resident(
        t,
        opts,
        Update::LeastSquares,
        mttkrp,
        Some(guards),
        manifest,
        ctx,
    )
}

/// How [`cpd_als_resilient_durable`] persists and resumes state.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Directory the checkpoint files live in (created if missing).
    pub dir: std::path::PathBuf,
    /// Run label keying the crash-fault draws — same label, same plan,
    /// same crashes. Service jobs use `"job<id>"`.
    pub label: String,
    /// Scan the directory for the newest *valid* checkpoint (skipping
    /// torn/corrupt files) and warm-restart from it.
    pub resume: bool,
    /// Treat an injected mid-write crash as process death: stop the run
    /// right there (the torn file stays on disk for the next restart to
    /// scan past). When `false` the crash only loses that checkpoint —
    /// the computation itself continues, like a failed async snapshot.
    pub halt_on_crash: bool,
}

/// Durable-checkpoint state threaded through one resilient ALS run.
struct DurableSession {
    store: crate::checkpoint::CheckpointStore,
    record: simprof::CheckpointRecord,
    resume: Option<crate::checkpoint::CheckpointState>,
    halt_on_crash: bool,
    halted: bool,
    error: Option<crate::checkpoint::CheckpointError>,
}

impl DurableSession {
    /// Writes one durable checkpoint and accounts for it. Returns `false`
    /// when the run must stop here: an injected crash under
    /// `halt_on_crash`, or a genuine I/O error (kept in `self.error`).
    fn write(
        &mut self,
        ctx: Option<&GpuContext>,
        iteration: usize,
        factors: &[Matrix],
        lambda: &[f32],
        fits: &[f64],
    ) -> bool {
        use crate::checkpoint::WriteOutcome;
        let (kind, seq, size_field) = match self.store.write(iteration, factors, lambda, fits) {
            Ok(WriteOutcome::Written { seq, bytes }) => {
                self.record.writes += 1;
                self.record.bytes_written += bytes;
                ("checkpoint-write", seq, ("bytes", bytes))
            }
            Ok(WriteOutcome::Crashed { seq, torn_bytes }) => {
                self.record.crashes += 1;
                ("checkpoint-crash", seq, ("torn_bytes", torn_bytes))
            }
            Err(e) => {
                self.error = Some(e);
                return false;
            }
        };
        if let Some(tel) = ctx.map(|c| &c.telemetry).filter(|tel| tel.enabled()) {
            tel.emit(
                kind,
                None,
                tel.new_span(),
                &[
                    ("seq", simprof::FieldValue::from(seq)),
                    ("iteration", simprof::FieldValue::from(iteration)),
                    (size_field.0, simprof::FieldValue::from(size_field.1)),
                ],
            );
        }
        if kind == "checkpoint-crash" && self.halt_on_crash {
            self.halted = true;
            return false;
        }
        true
    }
}

/// [`cpd_als_resilient`] with durable, crash-consistent checkpoints: at
/// every in-memory checkpoint a versioned, checksummed file is written
/// atomically (temp + fsync + rename) through a
/// [`CheckpointStore`](crate::checkpoint::CheckpointStore), and with
/// `resume` set the run warm-restarts from the newest valid file —
/// scanning back past any torn files a `crash:RATE` fault (drawn from
/// the context's [`crash_fault_plan`](crate::gpu::GpuContext::crash_fault_plan))
/// left behind.
///
/// ALS is deterministic, so with a fault-free backend a resumed run
/// replays the identical remaining iterations: its final fit equals the
/// uninterrupted run's **exactly** — the invariant the chaos harness
/// asserts at 1e-9.
///
/// Returns the checkpoint activity alongside the usual result and stats
/// (also merged into [`RunManifest::checkpointing`] when a manifest is
/// supplied); `record.halted` reports whether an injected crash stopped
/// the run early under [`DurableOptions::halt_on_crash`]. `Err` is
/// reserved for genuine I/O failures — injected crashes are data, not
/// errors.
pub fn cpd_als_resilient_durable(
    t: &CooTensor,
    opts: &CpdOptions,
    ropts: &ResilienceOptions,
    dopts: &DurableOptions,
    mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
    mut manifest: Option<&mut RunManifest>,
    ctx: Option<&GpuContext>,
) -> Result<
    (CpdResult, ResilienceStats, simprof::CheckpointRecord),
    crate::checkpoint::CheckpointError,
> {
    let crash = ctx.and_then(|c| c.crash_fault_plan());
    let store =
        crate::checkpoint::CheckpointStore::open(&dopts.dir, &dopts.label)?.with_crash_plan(crash);
    let mut record = simprof::CheckpointRecord::default();
    let mut resume = None;
    if dopts.resume {
        let scan = store.latest_valid()?;
        record.torn_skipped += scan.skipped;
        if let Some(state) = scan.state {
            record.resumes += 1;
            record.resumed_iteration = state.iteration as u64;
            resume = Some(state);
        }
    }
    let mut session = DurableSession {
        store,
        record,
        resume,
        halt_on_crash: dopts.halt_on_crash,
        halted: false,
        error: None,
    };
    let guards = Guards {
        ropts,
        durable: Some(&mut session),
    };
    let (result, stats) = resident(
        t,
        opts,
        Update::LeastSquares,
        mttkrp,
        Some(guards),
        manifest.as_deref_mut(),
        ctx,
    );
    if let Some(e) = session.error {
        return Err(e);
    }
    session.record.halted = session.halted;
    if let Some(m) = manifest {
        m.checkpointing.merge(&session.record);
    }
    Ok((result, stats, session.record))
}

/// Non-negative CPD via multiplicative updates (Lee–Seung generalized to
/// tensors): `Aₙ ← Aₙ ∗ MTTKRP(X, n) ⊘ (Aₙ · Vₙ)` with
/// `Vₙ = ∗ₘ≠ₙ AₘᵀAₘ`. Keeps every factor entry ≥ 0 — the constraint the
/// paper's motivating applications (e.g. Marble's high-throughput
/// phenotyping from health records) impose on CPD. The tensor's values
/// must be non-negative.
///
/// Shares the MTTKRP-backend contract with [`cpd_als`], so the same
/// simulated-GPU kernels drive it.
pub fn cpd_als_nonneg(
    t: &CooTensor,
    opts: &CpdOptions,
    mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
) -> CpdResult {
    resident(t, opts, Update::NonNeg, mttkrp, None, None, None).0
}

/// [`cpd_als_nonneg`] with the same iteration telemetry as
/// [`cpd_als_profiled`], including the `ctx` simulated-clock observations
/// and `iteration` events.
pub fn cpd_als_nonneg_profiled(
    t: &CooTensor,
    opts: &CpdOptions,
    mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
    manifest: &mut RunManifest,
    ctx: Option<&GpuContext>,
) -> CpdResult {
    resident(t, opts, Update::NonNeg, mttkrp, None, Some(manifest), ctx).0
}

/// The dense half of one ALS mode update, given `Yₙ = MTTKRP(X, n)` and
/// `Vₙ = ∗ₘ≠ₙ AₘᵀAₘ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Update {
    /// `Aₙ ← Yₙ · Vₙ†`, columns normalized into `λ` (paper Algorithm 1).
    LeastSquares,
    /// `Aₙ ← Aₙ ∗ Yₙ ⊘ (Aₙ · Vₙ)`, clamped at zero; factors stay
    /// unnormalized and the last one's column norms become `λ` at the end.
    NonNeg,
}

/// The self-healing half of [`cpd_als_resilient`]: scrubbing, Tikhonov
/// fallback, checkpoint/rollback, and (durable runs) on-disk checkpoints
/// with warm restart. Absent guards cost nothing: no scrub pass, no
/// condition estimate, no checkpoint clone.
pub(crate) struct Guards<'a> {
    ropts: &'a ResilienceOptions,
    durable: Option<&'a mut DurableSession>,
}

/// Where a run reports; neither part touches the arithmetic.
#[derive(Default)]
pub(crate) struct Observer<'a> {
    /// Options, per-iteration timings and fits, total time, and (guarded
    /// runs) the resilience record.
    manifest: Option<&'a mut RunManifest>,
    /// Simulated-clock iteration timings and `iteration` events.
    ctx: Option<&'a GpuContext>,
}

/// A resident run: factors seeded from `t`'s shape, `‖X‖` from `t`'s
/// values, and an infallible backend.
fn resident(
    t: &CooTensor,
    opts: &CpdOptions,
    update: Update,
    mut mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
    guards: Option<Guards<'_>>,
    manifest: Option<&mut RunManifest>,
    ctx: Option<&GpuContext>,
) -> (CpdResult, ResilienceStats) {
    assert!(
        update == Update::LeastSquares || t.values().iter().all(|&v| v >= 0.0),
        "non-negative CPD requires a non-negative tensor"
    );
    let factors = random_factors(t, opts.rank, opts.seed);
    let backend = |factors: &[Matrix], mode: usize| Ok::<_, Infallible>(mttkrp(factors, mode));
    let obs = Observer { manifest, ctx };
    let norm_x = frobenius_norm(t);
    let Ok(out) = als(factors, opts, update, norm_x, backend, guards, obs);
    out
}

/// `‖X‖` over `t`'s resident values.
fn frobenius_norm(t: &CooTensor) -> f64 {
    t.values()
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum::<f64>()
        .sqrt()
}

/// The ALS engine — the only iteration loop in the crate. Starts from
/// `factors` (or, for a durable run with a valid checkpoint, from the
/// checkpointed state), sweeps every mode per iteration through
/// `mttkrp` and `update`, and stops after `opts.max_iters` iterations or
/// when the fit moves less than `opts.tol`. A backend error aborts the
/// run.
pub(crate) fn als<E>(
    mut factors: Vec<Matrix>,
    opts: &CpdOptions,
    update: Update,
    norm_x: f64,
    mut mttkrp: impl FnMut(&[Matrix], usize) -> Result<Matrix, E>,
    mut guards: Option<Guards<'_>>,
    mut obs: Observer<'_>,
) -> Result<(CpdResult, ResilienceStats), E> {
    let run_start = Instant::now();
    if let Some(m) = obs.manifest.as_deref_mut() {
        sync_manifest(m, opts);
    }
    let order = factors.len();
    let mut lambda = vec![1.0f32; opts.rank];
    let mut grams: Vec<Matrix> = factors.iter().map(Matrix::gram).collect();

    let mut stats = ResilienceStats::default();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut best_fit = f64::NEG_INFINITY;
    let mut fits = Vec::new();
    let mut prev_fit = 0.0f64;
    let mut iterations = 0;

    // Warm restart: adopt the checkpointed trajectory wholesale. Grams
    // are recomputed from the restored factors (they are pure functions
    // of them), `prev_fit`/`best_fit` are re-derived from the restored
    // fit trajectory, and the restored state doubles as the in-memory
    // rollback target — exactly the state an uninterrupted run had right
    // after taking that checkpoint, so the continuation is bit-identical.
    let resume = guards.as_mut().and_then(|g| g.durable.as_deref_mut());
    if let Some(state) = resume.and_then(|d| d.resume.take()) {
        factors = state.factors;
        lambda = state.lambda;
        fits = state.fits;
        iterations = state.iteration;
        prev_fit = fits.last().copied().unwrap_or(0.0);
        best_fit = fits
            .iter()
            .copied()
            .filter(|f| f.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        checkpoint = Some(Checkpoint {
            factors: factors.clone(),
            lambda: lambda.clone(),
            fit: prev_fit,
        });
        grams = factors.iter().map(Matrix::gram).collect();
        if let Some(tel) = obs.ctx.map(|c| &c.telemetry).filter(|tel| tel.enabled()) {
            tel.emit(
                "checkpoint-resume",
                None,
                tel.new_span(),
                &[
                    ("seq", simprof::FieldValue::from(state.seq)),
                    ("iteration", simprof::FieldValue::from(iterations)),
                ],
            );
        }
    }

    while iterations < opts.max_iters {
        let iter_start = Instant::now();
        let iter_sim_start = obs.ctx.map_or(0.0, |c| c.telemetry.now_us());
        let mut mode_timings: Vec<ModeTiming> = Vec::new();
        // V = ∗_{m≠n} AₘᵀAₘ  (Eq. 3's gram-Hadamard), served from cached
        // prefix/suffix partial products across the sweep (Phan et al.
        // 2013) instead of an O(order²) per-iteration refold.
        let mut chain = HadamardChain::new(&grams, opts.rank);
        let mut y_last = Matrix::zeros(0, opts.rank);
        for mode in 0..order {
            let mttkrp_start = Instant::now();
            let mut y = mttkrp(&factors, mode)?;
            if obs.manifest.is_some() {
                mode_timings.push(ModeTiming {
                    mode,
                    mttkrp_seconds: mttkrp_start.elapsed().as_secs_f64(),
                });
            }
            let mut v = chain.v(mode);
            if let Some(g) = &guards {
                stats.nan_resets += scrub_nonfinite(&mut y);
                // Scrubbing applies to the joined product only — the
                // chain's cached partials stay as computed.
                stats.nan_resets += scrub_nonfinite(&mut v);
                if spd_condition(&v) > g.ropts.cond_limit {
                    // Relative ridge: λI scaled to the matrix's own magnitude.
                    let trace: f32 = (0..opts.rank).map(|i| v.get(i, i)).sum();
                    let mu = g.ropts.ridge * (trace / opts.rank as f32).max(f32::MIN_POSITIVE);
                    for i in 0..opts.rank {
                        v.set(i, i, v.get(i, i) + mu);
                    }
                    stats.tikhonov_fallbacks += 1;
                }
            }
            match update {
                Update::LeastSquares => {
                    let mut a_new = y.matmul(&pseudo_inverse(&v));
                    if guards.is_some() {
                        stats.nan_resets += scrub_nonfinite(&mut a_new);
                    }
                    lambda = a_new.normalize_columns();
                    floor_lambda(&mut lambda, guards.is_some());
                    factors[mode] = a_new;
                }
                Update::NonNeg => {
                    const EPS: f32 = 1e-12;
                    // Denominator A·V, then the multiplicative update.
                    let denom = factors[mode].matmul(&v);
                    let a = &mut factors[mode];
                    for i in 0..a.rows() {
                        for c in 0..opts.rank {
                            let upd = a.get(i, c) * y.get(i, c) / (denom.get(i, c) + EPS);
                            a.set(i, c, upd.max(0.0));
                        }
                    }
                }
            }
            grams[mode] = factors[mode].gram();
            chain.advance(&grams[mode]);
            if mode == order - 1 {
                y_last = y;
            }
        }
        iterations += 1;

        // Every fit follows a full sweep — a rollback `continue`s into
        // one and a durable resume restores `fits` from the checkpoint —
        // so `y_last` is always the MTTKRP against the factors the fit
        // describes, and no data pass is needed.
        let inner = inner_from_last_mode(&y_last, &factors[order - 1], &lambda);
        let fit = fit_from_inner(inner, &lambda, &grams, norm_x);
        fits.push(fit);
        if let Some(m) = obs.manifest.as_deref_mut() {
            m.push_iteration(fit, mode_timings, iter_start.elapsed().as_secs_f64());
        }
        if let Some(c) = obs.ctx {
            note_iteration(c, iterations - 1, fit, iter_sim_start);
        }

        if let Some(g) = guards.as_mut() {
            let regressed = fit.is_nan() || fit < best_fit - g.ropts.fit_drop_tol;
            let rollback_target = if regressed && stats.rollbacks < g.ropts.max_rollbacks {
                checkpoint.as_ref()
            } else {
                None
            };
            if let Some(cp) = rollback_target {
                // Roll back and re-jitter so the retried trajectory draws
                // different fault sites than the one that regressed.
                factors = cp.factors.clone();
                lambda = cp.lambda.clone();
                prev_fit = cp.fit;
                stats.rollbacks += 1;
                let jitter_seed = opts.seed.wrapping_add(0x5EED).wrapping_add(stats.rollbacks);
                for (m, f) in factors.iter_mut().enumerate() {
                    let noise = Matrix::random(f.rows(), f.cols(), jitter_seed + m as u64);
                    for (v, &nz) in f.data_mut().iter_mut().zip(noise.data()) {
                        *v += 1e-3 * nz;
                    }
                }
                grams = factors.iter().map(Matrix::gram).collect();
                continue;
            }
            if fit.is_finite() && fit > best_fit {
                best_fit = fit;
            }
            let every = g.ropts.checkpoint_every;
            if every > 0 && iterations % every == 0 && fit.is_finite() {
                checkpoint = Some(Checkpoint {
                    factors: factors.clone(),
                    lambda: lambda.clone(),
                    fit,
                });
                stats.checkpoints += 1;
                if let Some(d) = g.durable.as_deref_mut() {
                    if !d.write(obs.ctx, iterations, &factors, &lambda, &fits) {
                        break;
                    }
                }
            }
        }
        if iterations > 1 && (fit - prev_fit).abs() < opts.tol {
            break;
        }
        prev_fit = fit;
    }
    if let Some(m) = obs.manifest {
        m.total_seconds = run_start.elapsed().as_secs_f64();
        if guards.is_some() {
            m.resilience.merge(&ResilienceRecord {
                rollbacks: stats.rollbacks,
                nan_resets: stats.nan_resets,
                tikhonov_fallbacks: stats.tikhonov_fallbacks,
                checkpoints: stats.checkpoints,
                ..ResilienceRecord::default()
            });
        }
    }
    if update == Update::NonNeg {
        // Absorb column norms into λ at the end (updates stay unnormalized).
        if let Some(last) = factors.last_mut() {
            lambda = last.normalize_columns();
            floor_lambda(&mut lambda, false);
        }
    }

    let result = CpdResult {
        factors,
        lambda,
        fits,
        iterations,
    };
    Ok((result, stats))
}

/// Guards against zero columns collapsing the decomposition; guarded
/// runs also replace non-finite weights.
fn floor_lambda(lambda: &mut [f32], guarded: bool) {
    for l in lambda {
        if *l == 0.0 || (guarded && !l.is_finite()) {
            *l = 1e-30;
        }
    }
}

/// Stamps `opts` into the manifest so the document matches the run.
fn sync_manifest(manifest: &mut RunManifest, opts: &CpdOptions) {
    manifest.rank = opts.rank;
    manifest.max_iters = opts.max_iters;
    manifest.tol = opts.tol;
    manifest.seed = opts.seed;
}

/// Records one completed ALS iteration against the context's *simulated*
/// clock: the `cpd.iter_sim_us` histogram plus an `iteration` event. The
/// clock only moves when kernels replay through the context, so the
/// delta is the iteration's total simulated kernel time — wall-clock
/// timings stay in the manifest, deterministic timings live here.
fn note_iteration(ctx: &GpuContext, iteration: usize, fit: f64, start_us: f64) {
    let tel = &ctx.telemetry;
    let sim_us = (tel.now_us() - start_us).max(0.0);
    ctx.registry
        .observe("cpd.iter_sim_us", sim_us.round() as u64);
    if tel.enabled() {
        tel.emit(
            "iteration",
            None,
            tel.new_span(),
            &[
                ("iteration", simprof::FieldValue::from(iteration)),
                ("fit", simprof::FieldValue::from(fit)),
                ("iter_sim_us", simprof::FieldValue::from(sim_us)),
            ],
        );
    }
}

/// `⟨X, X̃⟩ = Σ_r λ_r Σ_i Y_N(i, r)·A_N(i, r)` from the last mode's
/// MTTKRP output `Y_N` and its updated factor `A_N`: O(I_N·R) instead of
/// a pass over every nonzero. Holds for both update rules — least squares
/// keeps `A_N` normalized with its column norms in `λ`; the non-negative
/// rule keeps `λ` all ones and `A_N` unnormalized.
fn inner_from_last_mode(y: &Matrix, a: &Matrix, lambda: &[f32]) -> f64 {
    let mut cols = vec![0.0f64; lambda.len()];
    for i in 0..y.rows() {
        for ((c, &yv), &av) in cols.iter_mut().zip(y.row(i)).zip(a.row(i)) {
            *c += yv as f64 * av as f64;
        }
    }
    cols.iter().zip(lambda).map(|(c, &l)| l as f64 * c).sum()
}

/// Fit = `1 − ‖X − X̃‖ / ‖X‖` from `⟨X, X̃⟩`:
/// `‖X − X̃‖² = ‖X‖² − 2⟨X, X̃⟩ + ‖X̃‖²` with
/// `‖X̃‖² = Σ_{r,s} λ_r λ_s Π_m (AₘᵀAₘ)_{r,s}` from the grams.
///
/// A residual below `−1e-3·‖X‖²` is impossible for an exact MTTKRP
/// (Cauchy–Schwarz; honest f32 rounding stays well inside it) and
/// means a corrupted `Y_N` inflated `⟨X, X̃⟩`: the fit is `NaN`, which
/// the guards roll back, instead of a clamped, perfect-looking 1.0.
fn fit_from_inner(inner: f64, lambda: &[f32], grams: &[Matrix], norm_x: f64) -> f64 {
    let r = lambda.len();
    // ‖X̃‖²
    let mut model_sq = 0.0f64;
    for a in 0..r {
        for b in 0..r {
            let mut g = lambda[a] as f64 * lambda[b] as f64;
            for gram in grams {
                g *= gram.get(a, b) as f64;
            }
            model_sq += g;
        }
    }
    if norm_x == 0.0 {
        return 1.0;
    }
    let norm_sq = norm_x * norm_x;
    let resid_sq = norm_sq - 2.0 * inner + model_sq;
    if resid_sq < -1e-3 * norm_sq {
        return f64::NAN;
    }
    1.0 - resid_sq.max(0.0).sqrt() / norm_x
}

/// [`fit_from_inner`] with `⟨X, X̃⟩` from an explicit pass over `t`'s
/// resident values, for `res`'s factors and `λ` — the reference the
/// last-mode identity is checked against.
#[cfg(test)]
pub(crate) fn reference_fit(t: &CooTensor, res: &CpdResult) -> f64 {
    let mut inner = 0.0f64;
    for (z, &val) in t.values().iter().enumerate() {
        for (r, &l) in res.lambda.iter().enumerate() {
            let mut p = val as f64 * l as f64;
            for (m, f) in res.factors.iter().enumerate() {
                p *= f.get(t.mode_indices(m)[z] as usize, r) as f64;
            }
            inner += p;
        }
    }
    let grams: Vec<Matrix> = res.factors.iter().map(Matrix::gram).collect();
    fit_from_inner(inner, &res.lambda, &grams, frobenius_norm(t))
}

/// Runs `run` stopped after each iteration count up to `max_iters`
/// (`tol = 0`, so every run is a prefix of the longest) and asserts every
/// reported fit is within 1e-6 of [`reference_fit`] on `t` for the
/// factors that run ends with.
#[cfg(test)]
pub(crate) fn assert_fits_match_data_pass(
    t: &CooTensor,
    max_iters: usize,
    mut run: impl FnMut(usize) -> CpdResult,
) {
    let full = run(max_iters);
    assert_eq!(full.iterations, max_iters);
    for k in 1..=max_iters {
        let res = run(k);
        assert_eq!(res.fits, full.fits[..k], "runs must be prefixes");
        let expect = reference_fit(t, &res);
        assert!(
            (res.final_fit() - expect).abs() < 1e-6,
            "iteration {k}: fit {} vs data pass {expect}",
            res.final_fit()
        );
    }
}

/// Factor match score between two decompositions: greedy one-to-one
/// matching of components by the product of per-mode column cosines
/// (1.0 = identical up to column permutation and scaling). The standard
/// metric for "did CPD recover the planted factors".
pub fn factor_match_score(a: &[Matrix], b: &[Matrix]) -> f64 {
    assert_eq!(a.len(), b.len(), "factor sets must have the same order");
    let r = a[0].cols();
    assert!(
        b.iter().all(|m| m.cols() == r) && a.iter().all(|m| m.cols() == r),
        "factor sets must share the rank"
    );
    let cosine = |m1: &Matrix, m2: &Matrix, c1: usize, c2: usize| -> f64 {
        let (mut dot, mut n1, mut n2) = (0.0f64, 0.0f64, 0.0f64);
        for i in 0..m1.rows() {
            let (x, y) = (m1.get(i, c1) as f64, m2.get(i, c2) as f64);
            dot += x * y;
            n1 += x * x;
            n2 += y * y;
        }
        if n1 == 0.0 || n2 == 0.0 {
            0.0
        } else {
            (dot / (n1.sqrt() * n2.sqrt())).abs()
        }
    };
    // Pairwise component scores = product of per-mode cosines.
    let mut score = vec![vec![0.0f64; r]; r];
    for (ca, row) in score.iter_mut().enumerate() {
        for (cb, s) in row.iter_mut().enumerate() {
            *s = a
                .iter()
                .zip(b)
                .map(|(ma, mb)| cosine(ma, mb, ca, cb))
                .product();
        }
    }
    // Greedy assignment (r is small; Hungarian is overkill here).
    let mut used = vec![false; r];
    let mut total = 0.0;
    for row in score.iter() {
        let best = (0..r)
            .filter(|&cb| !used[cb])
            .max_by(|&x, &y| row[x].partial_cmp(&row[y]).unwrap());
        if let Some(cb) = best {
            used[cb] = true;
            total += row[cb];
        }
    }
    total / r as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sptensor::CooTensor;

    /// A tensor that *is* rank-1: CPD must fit it almost exactly.
    fn rank_one_tensor() -> CooTensor {
        let a = [1.0f32, 2.0, 0.5, 1.5];
        let b = [0.5f32, 1.0, 2.0];
        let c = [1.0f32, 3.0];
        let mut t = CooTensor::new(vec![4, 3, 2]);
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                for (k, &ck) in c.iter().enumerate() {
                    t.push(&[i as u32, j as u32, k as u32], ai * bj * ck);
                }
            }
        }
        t
    }

    #[test]
    fn recovers_rank_one_tensor() {
        let t = rank_one_tensor();
        let opts = CpdOptions {
            rank: 2,
            max_iters: 40,
            tol: 1e-9,
            seed: 7,
        };
        let res = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        assert!(
            res.final_fit() > 0.999,
            "fit {} after {} iters",
            res.final_fit(),
            res.iterations
        );
    }

    #[test]
    fn fit_is_monotonically_non_decreasing() {
        let t = sptensor::synth::uniform_random(&[8, 9, 10], 200, 3);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 15,
            tol: 0.0,
            seed: 11,
        };
        let res = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        for w in res.fits.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-4,
                "fit decreased: {} -> {} ({:?})",
                w[0],
                w[1],
                res.fits
            );
        }
    }

    #[test]
    fn converges_and_stops_early() {
        let t = rank_one_tensor();
        let opts = CpdOptions {
            rank: 2,
            max_iters: 100,
            tol: 1e-7,
            seed: 5,
        };
        let res = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        assert!(res.iterations < 100, "should converge before max_iters");
    }

    #[test]
    fn backends_agree() {
        // CPD driven by the SPLATT backend lands at the same fit as the
        // reference backend.
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 10,
            tol: 0.0,
            seed: 21,
        };
        let r_ref = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        let r_splatt = cpd_als(&t, &opts, |f, m| {
            crate::cpu::splatt::mttkrp(&t, f, m, crate::cpu::splatt::SplattOptions::nontiled())
        });
        assert!(
            (r_ref.final_fit() - r_splatt.final_fit()).abs() < 1e-3,
            "ref {} vs splatt {}",
            r_ref.final_fit(),
            r_splatt.final_fit()
        );
    }

    #[test]
    fn fms_identical_is_one_and_permutation_invariant() {
        let a = vec![
            Matrix::random(6, 3, 1),
            Matrix::random(7, 3, 2),
            Matrix::random(8, 3, 3),
        ];
        assert!((factor_match_score(&a, &a) - 1.0).abs() < 1e-9);
        // Permute columns consistently: score stays 1.
        let perm = [2usize, 0, 1];
        let b: Vec<Matrix> = a
            .iter()
            .map(|m| {
                let mut out = Matrix::zeros(m.rows(), 3);
                for i in 0..m.rows() {
                    for (c_new, &c_old) in perm.iter().enumerate() {
                        out.set(i, c_new, m.get(i, c_old));
                    }
                }
                out
            })
            .collect();
        assert!((factor_match_score(&a, &b) - 1.0).abs() < 1e-6);
        // Column scaling is also invisible (cosines are scale-free).
        let c: Vec<Matrix> = a
            .iter()
            .map(|m| {
                let mut out = m.clone();
                for i in 0..out.rows() {
                    let v = out.get(i, 0) * 5.0;
                    out.set(i, 0, v);
                }
                out
            })
            .collect();
        assert!((factor_match_score(&a, &c) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fms_unrelated_factors_score_low() {
        let a = vec![Matrix::random(50, 4, 10), Matrix::random(60, 4, 11)];
        let b = vec![Matrix::random(50, 4, 20), Matrix::random(60, 4, 21)];
        let s = factor_match_score(&a, &b);
        // Random positive matrices are not orthogonal, but the per-mode
        // product suppresses the score well below a true match.
        assert!(s < 0.9, "unrelated factors scored {s}");
    }

    #[test]
    fn cpd_recovery_measured_by_fms() {
        // CPD on a rank-1 tensor must recover the planted factors.
        let t = rank_one_tensor();
        let opts = CpdOptions {
            rank: 1,
            max_iters: 40,
            tol: 1e-9,
            seed: 3,
        };
        let res = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        let planted = vec![
            Matrix::from_vec(4, 1, vec![1.0, 2.0, 0.5, 1.5]),
            Matrix::from_vec(3, 1, vec![0.5, 1.0, 2.0]),
            Matrix::from_vec(2, 1, vec![1.0, 3.0]),
        ];
        let s = factor_match_score(&res.factors, &planted);
        assert!(s > 0.999, "recovered factors score {s}");
    }

    #[test]
    fn nonneg_factors_stay_nonnegative_and_fit_improves() {
        let t = sptensor::synth::uniform_random(&[8, 9, 10], 250, 13);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 20,
            tol: 0.0,
            seed: 14,
        };
        let res = cpd_als_nonneg(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        for f in &res.factors {
            assert!(f.data().iter().all(|&v| v >= 0.0), "negative factor entry");
        }
        assert!(
            res.fits.last().unwrap() > res.fits.first().unwrap(),
            "fit did not improve: {:?}",
            res.fits
        );
    }

    #[test]
    fn nonneg_recovers_nonneg_rank_one() {
        let t = rank_one_tensor(); // strictly positive by construction
        let opts = CpdOptions {
            rank: 2,
            max_iters: 120,
            tol: 1e-10,
            seed: 15,
        };
        let res = cpd_als_nonneg(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        assert!(
            res.final_fit() > 0.99,
            "fit {} after {} iters",
            res.final_fit(),
            res.iterations
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nonneg_rejects_negative_tensor() {
        let mut t = rank_one_tensor();
        t.values_mut()[0] = -1.0;
        let opts = CpdOptions::default();
        let _ = cpd_als_nonneg(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
    }

    /// [`cpd_als_resilient`] over `exec` with the tensor attached, the
    /// composition `sptk cpd` builds for a degradable ladder. Launch
    /// records are absorbed into the returned manifest and merged into
    /// `manifest`, when given.
    fn resilient_over(
        exec: &crate::gpu::Executor,
        t: &CooTensor,
        opts: &CpdOptions,
        ropts: &ResilienceOptions,
        plans: &crate::gpu::ModePlans,
        mut manifest: Option<&mut RunManifest>,
    ) -> (CpdResult, ResilienceStats, RunManifest) {
        let mut launches = RunManifest::new("launches", "synth", 0, 0, 0.0, 0);
        let backend = |factors: &[Matrix], mode: usize| {
            let args = crate::gpu::LaunchArgs::new(factors).with_tensor(t);
            match exec.execute(plans.plan(mode), &args) {
                Ok(e) => {
                    e.absorb_into(&mut launches);
                    e.run.y
                }
                Err(_) => reference::mttkrp(t, factors, mode),
            }
        };
        let (res, stats) = cpd_als_resilient(
            t,
            opts,
            ropts,
            backend,
            manifest.as_deref_mut(),
            Some(exec.ctx()),
        );
        if let Some(m) = manifest {
            m.resilience.merge(&launches.resilience);
            m.memory.merge(&launches.memory);
            m.grid.merge(&launches.grid);
        }
        (res, stats, launches)
    }

    #[test]
    fn adaptive_matches_planned_in_core_and_under_pressure() {
        use crate::abft::AbftOptions;
        use crate::gpu::{Executor, GpuContext, ModePlans, OocOptions};
        use gpu_sim::DeviceMemory;
        use std::sync::Arc;
        use tensor_formats::BcsfOptions;

        let t = sptensor::synth::uniform_random(&[12, 14, 16], 600, 31);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 4,
            tol: 0.0,
            seed: 17,
        };
        let ropts = ResilienceOptions::default();
        let oopts = OocOptions::default();
        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, opts.rank, BcsfOptions::default());
        let plain = cpd_als_planned(&t, &opts, &ctx, &plans);
        let adaptive = |ctx: &GpuContext| {
            Executor::new(ctx.clone())
                .with_ooc(oopts)
                .with_abft(AbftOptions::default())
        };

        // Unconstrained: every launch takes the full-device rung and the
        // decomposition is bit-identical to the plain planned driver.
        let (res, stats, log) = resilient_over(&adaptive(&ctx), &t, &opts, &ropts, &plans, None);
        let mem = log.memory;
        assert_eq!(res.fits, plain.fits, "in-core adaptive must be bit-exact");
        // Proactive checkpoints still fire on a clean run; every corrective
        // counter must stay at zero.
        assert_eq!(stats.nan_resets, 0);
        assert_eq!(stats.tikhonov_fallbacks, 0);
        assert_eq!(stats.rollbacks, 0);
        assert!(mem.in_core_launches > 0);
        assert_eq!(mem.tiled_launches + mem.cpu_fallbacks + mem.oom_events, 0);

        // Capacity below the worst plan's footprint: the tiled rung must
        // engage, and the clean tiled fold is still bit-exact.
        let worst = (0..t.order())
            .map(|m| *plans.plan(m).footprint())
            .max_by_key(|fp| fp.total_bytes())
            .unwrap();
        let capacity = worst.total_bytes() - worst.format_bytes / 8;
        let small = GpuContext::tiny().with_memory(Arc::new(DeviceMemory::with_capacity(capacity)));
        let (res2, _, log2) = resilient_over(&adaptive(&small), &t, &opts, &ropts, &plans, None);
        let mem2 = log2.memory;
        assert_eq!(res2.fits, plain.fits, "tiled adaptive must be bit-exact");
        assert!(mem2.tiled_launches > 0, "tiling never engaged: {mem2:?}");
        assert_eq!(mem2.cpu_fallbacks, 0);
        assert!(mem2.high_water_bytes <= capacity, "capacity was breached");

        // The manifest absorbs the same memory story.
        let mut manifest = RunManifest::new("hb-csf", "synth", 0, 0, 0.0, 0);
        let (_, _, log3) = resilient_over(
            &adaptive(&small),
            &t,
            &opts,
            &ropts,
            &plans,
            Some(&mut manifest),
        );
        let mem3 = log3.memory;
        assert_eq!(manifest.memory.tiled_launches, mem3.tiled_launches);
        assert!(manifest.memory.any());
    }

    #[test]
    fn sharded_matches_planned_for_any_device_count() {
        use crate::abft::AbftOptions;
        use crate::gpu::{Executor, GpuContext, GridSpec, ModePlans, OocOptions};
        use gpu_sim::Interconnect;
        use tensor_formats::BcsfOptions;

        let t = sptensor::synth::uniform_random(&[12, 14, 16], 600, 31);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 4,
            tol: 0.0,
            seed: 17,
        };
        let ropts = ResilienceOptions::default();
        let oopts = OocOptions::default();
        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, opts.rank, BcsfOptions::default());
        let plain = cpd_als_planned(&t, &opts, &ctx, &plans);

        let mut records = Vec::new();
        for devices in [1usize, 3, 4] {
            let grid = GridSpec::new(devices, Interconnect::nvlink());
            let mut manifest = RunManifest::new("hb-csf", "synth", 0, 0, 0.0, 0);
            let exec = Executor::new(ctx.clone())
                .with_ooc(oopts)
                .with_grid(grid)
                .with_abft(AbftOptions::default());
            let (res, stats, log) =
                resilient_over(&exec, &t, &opts, &ropts, &plans, Some(&mut manifest));
            let rec = log.grid;
            assert_eq!(
                res.fits, plain.fits,
                "{devices}-device sharded CPD must be bit-exact"
            );
            assert_eq!(stats.nan_resets + stats.rollbacks, 0);
            assert_eq!(rec.devices, devices);
            // 4 iterations × 3 modes = 12 sharded launches recorded.
            assert_eq!(rec.launches, 12);
            assert_eq!(rec.per_device.len(), devices);
            assert!(manifest.grid.any());
            assert_eq!(manifest.grid.devices, devices);
            records.push(rec);
        }
        // Interconnect cost is zero alone and strictly increases with
        // device count for a fixed tensor.
        assert_eq!(records[0].allreduce_seconds, 0.0);
        assert!(records[1].allreduce_seconds > 0.0);
        assert!(records[2].allreduce_seconds > records[1].allreduce_seconds);
    }

    #[test]
    fn profiled_run_fills_manifest_and_matches_unprofiled() {
        let t = sptensor::synth::uniform_random(&[8, 9, 10], 200, 3);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 6,
            tol: 0.0,
            seed: 11,
        };
        let plain = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        let mut manifest = RunManifest::new("reference", "uniform-200", 0, 0, 0.0, 0);
        let prof = cpd_als_profiled(
            &t,
            &opts,
            |f, m| reference::mttkrp(&t, f, m),
            &mut manifest,
            None,
        );
        // Telemetry is observational: the math is unchanged.
        assert_eq!(plain.fits, prof.fits);
        assert_eq!(plain.iterations, prof.iterations);
        // Options were stamped into the manifest.
        assert_eq!(manifest.rank, 4);
        assert_eq!(manifest.max_iters, 6);
        assert_eq!(manifest.seed, 11);
        // One record per iteration, one timing per mode, fits verbatim.
        assert_eq!(manifest.iterations_run, prof.iterations);
        assert_eq!(manifest.iterations.len(), prof.iterations);
        for (rec, &fit) in manifest.iterations.iter().zip(&prof.fits) {
            assert_eq!(rec.fit, fit);
            assert_eq!(rec.modes.len(), 3);
            for (mi, mt) in rec.modes.iter().enumerate() {
                assert_eq!(mt.mode, mi);
                assert!(mt.mttkrp_seconds >= 0.0);
            }
            assert!(rec.seconds >= 0.0);
        }
        assert_eq!(manifest.final_fit, prof.final_fit());
        assert!(manifest.total_seconds > 0.0);
    }

    #[test]
    fn nonneg_profiled_fills_manifest() {
        let t = sptensor::synth::uniform_random(&[6, 7, 8], 150, 5);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 4,
            tol: 0.0,
            seed: 9,
        };
        let mut manifest = RunManifest::new("reference-nonneg", "uniform-150", 0, 0, 0.0, 0);
        let prof = cpd_als_nonneg_profiled(
            &t,
            &opts,
            |f, m| reference::mttkrp(&t, f, m),
            &mut manifest,
            None,
        );
        assert_eq!(manifest.iterations_run, prof.iterations);
        assert_eq!(manifest.final_fit, prof.final_fit());
        assert!(manifest.iterations.iter().all(|rec| rec.modes.len() == 3));
    }

    #[test]
    fn nonneg_profiled_observes_every_iteration() {
        use simprof::{RingSink, Telemetry, TelemetrySink};
        use std::sync::Arc;

        let t = sptensor::synth::uniform_random(&[6, 7, 8], 150, 5);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 4,
            tol: 0.0,
            seed: 9,
        };
        let ring = Arc::new(RingSink::new(256));
        let tel = Telemetry::with_sink(Arc::clone(&ring) as Arc<dyn TelemetrySink>);
        let ctx = GpuContext::tiny()
            .with_profiling()
            .with_events(Arc::new(tel));
        let mut manifest = RunManifest::new("reference-nonneg", "uniform-150", 0, 0, 0.0, 0);
        let res = cpd_als_nonneg_profiled(
            &t,
            &opts,
            |f, m| reference::mttkrp(&t, f, m),
            &mut manifest,
            Some(&ctx),
        );
        assert_eq!(res.iterations, 4);
        let events = ring.lines();
        let iteration_events = events
            .iter()
            .filter(|l| l.contains("\"kind\":\"iteration\""))
            .count();
        assert_eq!(iteration_events, res.iterations, "one event per iteration");
        let observed = ctx.registry.histogram("cpd.iter_sim_us").map(|h| h.count);
        assert_eq!(observed, Some(res.iterations as u64));
    }

    #[test]
    fn resilient_matches_plain_on_clean_backend() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        let plain = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        let (res, stats) = cpd_als_resilient(
            &t,
            &opts,
            &ResilienceOptions::default(),
            |f, m| reference::mttkrp(&t, f, m),
            None,
            None,
        );
        assert_eq!(plain.fits, res.fits, "clean backend: guards must be inert");
        assert_eq!(stats.nan_resets, 0);
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.tikhonov_fallbacks, 0);
        assert!(stats.checkpoints > 0);
    }

    #[test]
    fn checkpoint_every_zero_disables_checkpointing() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        let ropts = ResilienceOptions {
            checkpoint_every: 0,
            ..ResilienceOptions::default()
        };
        let plain = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        let (res, stats) = cpd_als_resilient(
            &t,
            &opts,
            &ropts,
            |f, m| reference::mttkrp(&t, f, m),
            None,
            None,
        );
        assert_eq!(
            stats.checkpoints, 0,
            "checkpoint_every: 0 must take no checkpoints"
        );
        assert_eq!(
            stats.rollbacks, 0,
            "without checkpoints there is no rollback target"
        );
        assert_eq!(
            plain.fits, res.fits,
            "disabling checkpoints changes nothing"
        );
        assert_eq!(plain.factors, res.factors);
    }

    #[test]
    fn durable_crash_restart_reaches_the_uninterrupted_fit_exactly() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        let ropts = ResilienceOptions::default();
        let (uninterrupted, _) = cpd_als_resilient(
            &t,
            &opts,
            &ropts,
            |f, m| reference::mttkrp(&t, f, m),
            None,
            None,
        );

        let dir = std::env::temp_dir().join("sptk_cpd_durable_restart");
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = crate::gpu::GpuContext::tiny()
            .with_faults(gpu_sim::FaultPlan::parse("crash:0.6", 0xC4A5).unwrap());
        let dopts = DurableOptions {
            dir: dir.clone(),
            label: "restart-test".to_string(),
            resume: true,
            halt_on_crash: true,
        };
        let mut crashes = 0u64;
        let mut torn_skipped = 0u64;
        let mut resumes = 0u64;
        let mut last = None;
        for _restart in 0..32 {
            let (res, _, record) = cpd_als_resilient_durable(
                &t,
                &opts,
                &ropts,
                &dopts,
                |f, m| reference::mttkrp(&t, f, m),
                None,
                Some(&ctx),
            )
            .expect("no genuine I/O errors in temp dir");
            crashes += record.crashes;
            torn_skipped += record.torn_skipped;
            resumes += record.resumes;
            if !record.halted {
                last = Some(res);
                break;
            }
        }
        let resumed = last.expect("restart cycle must eventually complete");
        assert!(crashes >= 1, "crash:0.6 must tear at least one write");
        assert!(torn_skipped >= 1, "resume must scan past the torn file(s)");
        assert!(resumes >= 1, "at least one warm restart must happen");
        assert_eq!(
            resumed.final_fit(),
            uninterrupted.final_fit(),
            "warm restart must converge to the uninterrupted fit exactly"
        );
        assert_eq!(resumed.fits, uninterrupted.fits);
        assert_eq!(resumed.factors, uninterrupted.factors);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resilient_scrubs_nan_poisoned_mttkrp() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        // Every 5th MTTKRP output has one entry poisoned with NaN.
        let calls = std::cell::Cell::new(0usize);
        let poisoned = |f: &[Matrix], m: usize| {
            let mut y = reference::mttkrp(&t, f, m);
            let n = calls.get();
            calls.set(n + 1);
            if n % 5 == 4 {
                y.set(0, 0, f32::NAN);
            }
            y
        };
        let (res, stats) = cpd_als_resilient(
            &t,
            &opts,
            &ResilienceOptions::default(),
            poisoned,
            None,
            None,
        );
        assert!(stats.nan_resets > 0, "poisoned entries must be scrubbed");
        assert!(
            res.final_fit().is_finite() && res.final_fit() > 0.0,
            "fit {} must stay finite",
            res.final_fit()
        );
    }

    #[test]
    fn resilient_rolls_back_on_fit_regression() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 400, 31);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 10,
            tol: 0.0,
            seed: 33,
        };
        let clean = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        // One catastrophic kernel execution mid-run (iteration 4, mode 0):
        // a third of the output entries sign-flipped and blown up 30× —
        // structural corruption normalization cannot absorb.
        let calls = std::cell::Cell::new(0usize);
        let corrupting = |f: &[Matrix], m: usize| {
            let mut y = reference::mttkrp(&t, f, m);
            let n = calls.get();
            calls.set(n + 1);
            if n == 9 {
                for (idx, v) in y.data_mut().iter_mut().enumerate() {
                    if idx % 3 == 0 {
                        *v *= -30.0;
                    }
                }
            }
            y
        };
        let mut manifest = RunManifest::new("reference", "uniform-400", 0, 0, 0.0, 0);
        let (res, stats) = cpd_als_resilient(
            &t,
            &opts,
            &ResilienceOptions::default(),
            corrupting,
            Some(&mut manifest),
            None,
        );
        assert!(stats.rollbacks >= 1, "regression must trigger a rollback");
        assert_eq!(manifest.resilience.rollbacks, stats.rollbacks);
        assert_eq!(manifest.resilience.checkpoints, stats.checkpoints);
        assert!(
            (res.final_fit() - clean.final_fit()).abs() < 0.01,
            "healed fit {} vs clean {}",
            res.final_fit(),
            clean.final_fit()
        );
    }

    #[test]
    fn resilient_rolls_back_on_last_mode_corruption() {
        // `resilient_rolls_back_on_fit_regression`'s corruption moved to
        // the last mode (call 11: iteration 4, mode 2), whose output the
        // fit's `⟨X, X̃⟩` is taken from. The inflated inner product must
        // read as a regression, not as a clamped perfect fit.
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 400, 31);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 10,
            tol: 0.0,
            seed: 33,
        };
        let clean = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        let calls = std::cell::Cell::new(0usize);
        let corrupting = |f: &[Matrix], m: usize| {
            let mut y = reference::mttkrp(&t, f, m);
            let n = calls.get();
            calls.set(n + 1);
            if n == 11 {
                for (idx, v) in y.data_mut().iter_mut().enumerate() {
                    if idx % 3 == 0 {
                        *v *= -30.0;
                    }
                }
            }
            y
        };
        let (res, stats) = cpd_als_resilient(
            &t,
            &opts,
            &ResilienceOptions::default(),
            corrupting,
            None,
            None,
        );
        assert!(stats.rollbacks >= 1, "regression must trigger a rollback");
        assert!(
            !res.fits.contains(&1.0),
            "corruption reported as a perfect fit: {:?}",
            res.fits
        );
        assert!(
            (res.final_fit() - clean.final_fit()).abs() < 0.01,
            "healed fit {} vs clean {}",
            res.final_fit(),
            clean.final_fit()
        );
    }

    #[test]
    fn fit_from_inner_rejects_an_impossible_residual() {
        let lambda = [1.0f32];
        let grams = [Matrix::from_vec(1, 1, vec![4.0])];
        // ‖X‖ = 2, ‖X̃‖² = 4: ⟨X, X̃⟩ = 4 is an exact fit.
        assert_eq!(fit_from_inner(4.0, &lambda, &grams, 2.0), 1.0);
        // Rounding-sized overshoot still clamps to a perfect fit...
        assert_eq!(fit_from_inner(4.0 + 1e-4, &lambda, &grams, 2.0), 1.0);
        // ...but an inner product Cauchy–Schwarz rules out is NaN.
        assert!(fit_from_inner(5.0, &lambda, &grams, 2.0).is_nan());
    }

    #[test]
    fn least_squares_fits_match_a_data_pass_3way() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        assert_fits_match_data_pass(&t, 6, |k| {
            let opts = CpdOptions {
                rank: 4,
                max_iters: k,
                tol: 0.0,
                seed: 21,
            };
            cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m))
        });
    }

    #[test]
    fn least_squares_fits_match_a_data_pass_4way() {
        let t = sptensor::synth::uniform_random(&[6, 7, 8, 9], 400, 12);
        assert_fits_match_data_pass(&t, 6, |k| {
            let opts = CpdOptions {
                rank: 3,
                max_iters: k,
                tol: 0.0,
                seed: 5,
            };
            cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m))
        });
    }

    #[test]
    fn nonneg_fits_match_a_data_pass() {
        let t = sptensor::synth::uniform_random(&[8, 9, 10], 250, 13);
        assert_fits_match_data_pass(&t, 6, |k| {
            let opts = CpdOptions {
                rank: 4,
                max_iters: k,
                tol: 0.0,
                seed: 14,
            };
            cpd_als_nonneg(&t, &opts, |f, m| reference::mttkrp(&t, f, m))
        });
    }

    #[test]
    fn empty_tensor_is_fit_one() {
        let t = CooTensor::new(vec![3, 3, 3]);
        let opts = CpdOptions::default();
        let res = cpd_als(&t, &opts, |f, m| reference::mttkrp(&t, f, m));
        assert!(res.final_fit() >= 1.0 - 1e-12);
    }
}
