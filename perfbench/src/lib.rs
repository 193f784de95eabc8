//! Repeatable end-to-end and per-layer benchmark of the CPD pipeline.
//!
//! One invocation runs one workload on inputs generated from a seed:
//!
//! * `darpa-cpd` — resident CPD-ALS (`cpd_als` over a `ModePlans::execute`
//!   backend, the `sptk cpd` wiring) on a binary 1M-nnz darpa stand-in.
//!   Its 500k-row mode makes the dense update and the fit most of an
//!   iteration.
//! * `uber-durable` — resident CPD-ALS through `cpd_als_resilient_durable`
//!   on the 4-way uber stand-in, with a fresh checkpoint directory per
//!   repetition. Replay dominates; the dense update is tiny.
//! * `nell2-ingest` — the streamed pipeline: `.tns` text of 2M raw nell2
//!   entries through `SpilledTensor::ingest` and `cpd_als_streamed` with
//!   four shards.
//!
//! Inputs are written to a work directory before any timing; the
//! pipeline only ever reads them back from disk. Every ALS run uses a
//! fixed iteration count with `tol = 0`. The timed region is repeated
//! until `--seconds` have passed (at least three repetitions) and
//! every timing is reported as a median. Correctness checks run outside
//! the timed region and count into `attempted`/`failed`.
//!
//! With `--trace 1` the run alternates untraced and traced repetitions,
//! records spans around every layer call it makes, and then probes the
//! layers the drivers call internally (dense update, checkpoint write,
//! the streaming layers) by calling the same public functions on the
//! same data; see [`probes`].

pub mod probes;
pub mod resident;
pub mod streamed;
pub mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gpu_sim::SimResult;
use mttkrp::cpd::CpdResult;
use mttkrp::gpu::{GpuContext, ModePlans};
use sptensor::CooTensor;

use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DarpaCpd,
    UberDurable,
    Nell2Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DarpaCpd,
        Workload::UberDurable,
        Workload::Nell2Ingest,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DarpaCpd => "darpa-cpd",
            Workload::UberDurable => "uber-durable",
            Workload::Nell2Ingest => "nell2-ingest",
        }
    }
}

/// Problem size: `Full` is the benchmark, `Tiny` is the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Size and solver parameters of one workload at one scale.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Stand-in dataset name (`sptensor::synth::standin`).
    pub dataset: &'static str,
    /// Generator nonzero budget (raw entries before folding).
    pub nnz: usize,
    pub rank: usize,
    /// ALS iterations; `tol = 0` keeps the count fixed.
    pub iters: usize,
    /// Shards per mode of the streamed pipeline.
    pub devices: usize,
    /// Fewest timed repetitions, whatever `--seconds` says.
    pub min_reps: usize,
}

impl Params {
    pub fn of(workload: Workload, scale: Scale) -> Params {
        let (dataset, nnz, iters) = match workload {
            Workload::DarpaCpd => ("darpa", 1_000_000, 5),
            Workload::UberDurable => ("uber", 1_000_000, 12),
            Workload::Nell2Ingest => ("nell2", 2_000_000, 4),
        };
        match scale {
            Scale::Full => Params {
                dataset,
                nnz,
                rank: 16,
                iters,
                devices: 4,
                min_reps: 3,
            },
            Scale::Tiny => Params {
                dataset,
                nnz: 10_000,
                rank: 8,
                iters: 2,
                devices: 3,
                min_reps: 1,
            },
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of timed repetitions to collect.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory for generated inputs, spills, checkpoints and outputs.
    pub work_root: PathBuf,
    /// Perturb one replayed MTTKRP value before it is checked (self-test
    /// of the checks).
    pub corrupt_mttkrp: bool,
}

impl Config {
    pub fn params(&self) -> Params {
        Params::of(self.workload, self.scale)
    }
}

/// Named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Correctness checks attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Everything one invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Input and host record: `(key, value)` lines.
    pub record: Vec<(String, String)>,
    /// Self time per layer of the traced run, `unattributed` included.
    pub layer_table: Vec<(String, f64)>,
    /// Where the span trace was written (traced runs).
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable record, metrics, self-time table and failed checks.
    pub fn report(&self, cfg: &Config) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "perfbench {} (seed {}, {}):",
            cfg.workload.name(),
            cfg.seed,
            if cfg.trace { "traced" } else { "untraced" }
        );
        for (k, v) in &self.record {
            let _ = writeln!(s, "  {k:<22} {v}");
        }
        for m in &self.metrics {
            let _ = writeln!(s, "  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
        if !self.layer_table.is_empty() {
            let total: f64 = self.layer_table.iter().map(|(_, v)| v).sum();
            let _ = writeln!(s, "  self time per layer (traced repetitions):");
            for (layer, secs) in &self.layer_table {
                let _ = writeln!(
                    s,
                    "    {layer:<16} {secs:>10.4} s {:>6.1}%",
                    100.0 * secs / total
                );
            }
        }
        if let Some(p) = &self.trace_file {
            let _ = writeln!(s, "  spans written to {}", p.display());
        }
        let _ = writeln!(
            s,
            "  checks: {} attempted, {} failed",
            self.checks.attempted,
            self.checks.failed()
        );
        for f in &self.checks.failures {
            let _ = writeln!(s, "    FAILED: {f}");
        }
        s
    }

    /// The result line. Non-finite values cannot be written as JSON
    /// numbers; they are reported as failed checks instead.
    pub fn json_line(&self) -> String {
        let non_finite = self.metrics.iter().filter(|m| !m.value.is_finite()).count();
        let failed = self.checks.failed() + non_finite as u64;
        let attempted = self.checks.attempted + self.metrics.len() as u64;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// Runs one invocation: generate inputs, time, check, report.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let dir = cfg.work_root.join(format!(
        "run-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = match cfg.workload {
        Workload::DarpaCpd | Workload::UberDurable => resident::run(cfg, &dir),
        Workload::Nell2Ingest => streamed::run(cfg, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = result?;
    record_host(cfg, &mut out);
    Ok(out)
}

/// Wall times of one timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Everything before the ALS driver call.
    pub setup_s: f64,
    /// The ALS driver call.
    pub solve_s: f64,
    /// Input file on disk → CPD result.
    pub total_s: f64,
}

/// The end-to-end metrics of an untraced run: medians over repetitions,
/// iteration percentiles over every sample.
pub fn push_end_to_end(
    out: &mut Outcome,
    timings: &[Timing],
    iter_s: &[f64],
    peak_rss_mb: f64,
    final_fit: f64,
    sim_gflops: f64,
) {
    let col = |f: fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    out.push("total_s", "s", col(|t| t.total_s));
    out.push("setup_s", "s", col(|t| t.setup_s));
    out.push("solve_s", "s", col(|t| t.solve_s));
    out.push("iter_s.p50", "s", median(iter_s));
    out.push("iter_s.p90", "s", percentile(iter_s, 0.9));
    out.push("peak_rss_mb", "MiB", peak_rss_mb);
    out.push("final_fit", "fit", final_fit);
    out.push("sim_gflops", "GFLOP/s", sim_gflops);
    out.note("repetitions", timings.len());
    out.note("iteration_samples", iter_s.len());
    let per_rep: Vec<String> = timings
        .iter()
        .map(|t| format!("{:.3}", t.total_s))
        .collect();
    out.note("total_s_per_rep", per_rep.join(" "));
}

/// The per-iteration layer metrics of a traced run. `sweep_flops` is the
/// paper-normalized flop count of one all-mode MTTKRP sweep.
pub fn push_iteration_layers(
    out: &mut Outcome,
    iter_s: f64,
    replay_s: f64,
    replay_share: f64,
    sweep_flops: f64,
    dense_s: f64,
) {
    out.push("cpd.iter_s", "s", iter_s);
    out.push("replay.s", "s", replay_s);
    out.push("replay.share", "ratio", replay_share);
    out.push(
        "replay.host_gflops",
        "GFLOP/s",
        sweep_flops / replay_s / 1e9,
    );
    out.push("cpd.other_s", "s", iter_s - replay_s - dense_s);
}

/// The repetitions of one run and the last repetition's CPD result.
pub struct Reps<R> {
    pub untraced: Vec<R>,
    /// Traced repetitions, interleaved with the untraced ones so that
    /// both see the same host conditions (traced runs only).
    pub traced: Vec<R>,
    pub last: CpdResult,
    /// `VmHWM` after the first repetition: later repetitions only add
    /// allocator history, not pipeline memory.
    pub peak_rss_mb: f64,
}

/// Repeats `rep` (given its index and the tracer to record into) until
/// `cfg.seconds` have passed and at least `min_reps` ran. A traced run
/// pairs every untraced repetition with a traced one.
pub fn collect_reps<R>(
    cfg: &Config,
    min_reps: usize,
    tracer: &Tracer,
    mut rep: impl FnMut(usize, &Tracer) -> Result<(R, CpdResult), String>,
) -> Result<Reps<R>, String> {
    let quiet = Tracer::new(false);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    let mut peak = 0.0;
    while untraced.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < cfg.seconds {
        let i = untraced.len();
        // Traced runs alternate which side of a pair goes first.
        let order: &[bool] = match (cfg.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for (k, &traced_rep) in order.iter().enumerate() {
            let (r, res) = rep(2 * i + k, if traced_rep { tracer } else { &quiet })?;
            if traced_rep {
                traced.push(r);
            } else {
                untraced.push(r);
            }
            last = Some(res);
        }
        if i == 0 {
            peak = peak_rss_mb();
        }
    }
    Ok(Reps {
        untraced,
        traced,
        last: last.expect("the loop runs at least once"),
        peak_rss_mb: peak,
    })
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q ∈ [0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    simprof::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Paper-normalized simulated statistics of one all-mode sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Per mode, in mode order.
    pub modes: Vec<SimResult>,
    /// `order · nnz · rank` per mode (paper Section III-A flop count).
    pub paper_flops_per_mode: u64,
}

impl SimSummary {
    pub fn time_s(&self) -> f64 {
        self.modes.iter().map(|s| s.time_s).sum()
    }

    /// Paper-normalized simulated GFLOP/s of the sweep.
    pub fn gflops(&self) -> f64 {
        self.paper_flops_per_mode as f64 * self.modes.len() as f64 / self.time_s() / 1e9
    }

    fn mean(&self, f: impl Fn(&SimResult) -> f64) -> f64 {
        self.modes.iter().map(f).sum::<f64>() / self.modes.len().max(1) as f64
    }

    pub fn push_layer_metrics(&self, out: &mut Outcome) {
        out.push("sim.time_us", "sim_us", self.time_s() * 1e6);
        out.push("sim.sm_efficiency", "%", self.mean(|s| s.sm_efficiency));
        out.push(
            "sim.achieved_occupancy",
            "%",
            self.mean(|s| s.achieved_occupancy),
        );
        out.push("sim.l2_hit_rate", "%", self.mean(|s| s.l2_hit_rate));
    }

    /// A line per mode with every compared field, bit-exact.
    fn fingerprint(&self) -> String {
        self.modes
            .iter()
            .map(|s| {
                format!(
                    "{} {:016x} {:016x} {:016x} {:016x} {:016x} {} {} {} {}\n",
                    s.kernel,
                    s.makespan_cycles.to_bits(),
                    s.time_s.to_bits(),
                    s.sm_efficiency.to_bits(),
                    s.achieved_occupancy.to_bits(),
                    s.l2_hit_rate.to_bits(),
                    s.total_flops,
                    s.num_blocks,
                    s.mem_segments,
                    s.atomic_ops
                )
            })
            .collect()
    }
}

/// Checks that every repetition simulated the same statistics and that
/// they match what an earlier invocation of this same executable
/// recorded for the same workload, scale and seed.
pub fn check_sim_stable(cfg: &Config, sims: &[SimSummary], checks: &mut Checks) {
    let Some(first) = sims.first() else {
        checks.check(false, || "no simulated statistics were collected".into());
        return;
    };
    for (i, s) in sims.iter().enumerate().skip(1) {
        checks.check(s == first, || {
            format!("simulated statistics of repetition {i} differ from repetition 0")
        });
    }
    let fp = first.fingerprint();
    let Some(exe) = exe_fingerprint() else {
        return;
    };
    let dir = cfg.work_root.join("sim-records");
    let path = dir.join(format!(
        "{}-{:?}-{}-{exe}.txt",
        cfg.workload.name(),
        cfg.scale,
        cfg.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) => checks.check(prev == fp, || {
            format!(
                "simulated statistics differ from the earlier run recorded in {}",
                path.display()
            )
        }),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, fp);
        }
    }
}

/// Each mode's replayed MTTKRP on the initial factors against the exact
/// MTTKRP, accumulated in `f64`, within relative Frobenius error 1e-4.
///
/// `mttkrp::reference::mttkrp` sums every output row sequentially in
/// `f32`; on darpa's heaviest slices that sum alone drifts past 1e-4
/// from the exact value, while the replay stays within 1e-6. Its drift
/// is recorded as `reference_f32_drift`. Shared with the streamed
/// workload's in-core check; returns each mode's simulated statistics.
pub fn check_plans_against_reference(
    cfg: &Config,
    t: &CooTensor,
    plans: &ModePlans,
    ctx: &GpuContext,
    rank: usize,
    checks: &mut Checks,
    out: &mut Outcome,
) -> Vec<gpu_sim::SimResult> {
    let factors = mttkrp::reference::random_factors(t, rank, cfg.seed);
    let mut sims = Vec::new();
    let mut drift = Vec::new();
    for mode in 0..t.order() {
        let exact = exact_mttkrp(t, &factors, mode);
        match plans.execute(ctx, &factors, mode) {
            Ok(run) => {
                let mut y = run.y;
                if cfg.corrupt_mttkrp && mode == 0 && !y.data().is_empty() {
                    let v = &mut y.data_mut()[0];
                    *v += 1.0 + v.abs();
                }
                let err = rel_err_exact(&y, &exact);
                checks.check(err <= 1e-4, || {
                    format!("mode {mode} replayed MTTKRP relative error {err:e} > 1e-4")
                });
                let reference = mttkrp::reference::mttkrp(t, &factors, mode);
                drift.push(rel_err_exact(&reference, &exact));
                sims.push(run.sim);
            }
            Err(e) => checks.check(false, || format!("mode {mode} replay refused: {e}")),
        }
    }
    out.note(
        "reference_f32_drift",
        format!("{:.2e}", drift.iter().copied().fold(0.0, f64::max)),
    );
    sims
}

/// Self-time table, attributed share, overhead, and the trace file.
pub fn finish_trace(
    cfg: &Config,
    tracer: &Tracer,
    traced_total: f64,
    untraced_total: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = tracer.spans();
    let table = trace::self_times(&spans, "run");
    let all: f64 = table.values().sum();
    let unattributed = table.get("unattributed").copied().unwrap_or(0.0);
    out.layer_table = table.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    out.push("trace.total_s", "s", traced_total);
    out.push("trace.overhead_s", "s", traced_total - untraced_total);
    out.push("trace.attributed_share", "ratio", 1.0 - unattributed / all);
    let path = cfg.work_root.join(format!(
        "trace-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, trace::to_json(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.trace_file = Some(path);
    Ok(())
}

/// FNV-1a of the running executable, so simulated statistics are only
/// compared between runs of the same build.
fn exe_fingerprint() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    Some(format!("{h:016x}"))
}

/// Mode-`mode` MTTKRP of `t` accumulated in `f64` (row-major
/// `dims[mode] × rank`): the exact value the `f32` kernels approximate.
pub fn exact_mttkrp(t: &CooTensor, factors: &[dense::Matrix], mode: usize) -> Vec<f64> {
    let r = factors[0].cols();
    let mut y = vec![0.0f64; t.dims()[mode] as usize * r];
    let mut acc = vec![0.0f64; r];
    for (z, &v) in t.values().iter().enumerate() {
        acc.fill(v as f64);
        for (m, f) in factors.iter().enumerate() {
            if m != mode {
                let row = f.row(t.mode_indices(m)[z] as usize);
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a *= x as f64;
                }
            }
        }
        let i = t.mode_indices(mode)[z] as usize;
        for (o, &a) in y[i * r..(i + 1) * r].iter_mut().zip(&acc) {
            *o += a;
        }
    }
    y
}

/// Relative Frobenius distance of `got` from the exact `want`.
pub fn rel_err_exact(got: &dense::Matrix, want: &[f64]) -> f64 {
    if got.data().len() != want.len() {
        return f64::INFINITY;
    }
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&g, &w) in got.data().iter().zip(want) {
        num += (g as f64 - w) * (g as f64 - w);
        den += w * w;
    }
    num.sqrt() / den.sqrt().max(1e-300)
}

/// Fits must be finite and within `[0, 1]`, one per configured iteration.
pub fn check_fits(fits: &[f64], iters: usize, what: &str, checks: &mut Checks) {
    checks.check(fits.len() == iters, || {
        format!("{what}: {} iterations ran, {iters} configured", fits.len())
    });
    for (i, &f) in fits.iter().enumerate() {
        checks.check(f.is_finite() && (0.0..=1.0).contains(&f), || {
            format!(
                "{what}: fit {f} after iteration {} is outside [0, 1]",
                i + 1
            )
        });
    }
}

/// Host record: cores, threads, last-level cache.
fn record_host(cfg: &Config, out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.note("seed", cfg.seed);
    out.note("nproc", nproc);
    out.note("threads_used", rayon::current_num_threads().min(nproc));
    out.note("llc", llc_size());
}

/// Size of the largest cache level `lscpu` reports.
fn llc_size() -> String {
    let Ok(output) = std::process::Command::new("lscpu").output() else {
        return "unknown".into();
    };
    let text = String::from_utf8_lossy(&output.stdout);
    ["L3 cache:", "L2 cache:"]
        .iter()
        .find_map(|key| {
            text.lines()
                .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
