//! The resident workloads: `darpa-cpd` (`cpd_als`) and `uber-durable`
//! (`cpd_als_resilient_durable`), both over a `ModePlans::execute`
//! backend on a binary input file.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use dense::Matrix;
use mttkrp::checkpoint::CheckpointStore;
use mttkrp::cpd::{
    cpd_als, cpd_als_resilient_durable, CpdOptions, CpdResult, DurableOptions, ResilienceOptions,
};
use mttkrp::gpu::{GpuContext, ModePlans};
use sptensor::synth::{standin, SynthConfig};
use sptensor::{BinSource, CooTensor, DuplicatePolicy, IngestOptions};
use tensor_formats::{BcsfOptions, Hbcsf, IndexBytes};

use crate::probes::{self, ProbeInput};
use crate::trace::Tracer;
use crate::{
    check_fits, check_plans_against_reference, check_sim_stable, collect_reps, finish_trace,
    median, push_end_to_end, push_iteration_layers, Checks, Config, Outcome, Params, SimSummary,
    Timing, Workload,
};

/// What one timed repetition measured.
struct Rep {
    timing: Timing,
    /// Wall time per ALS iteration, delimited at the mode-0 MTTKRP call.
    iter_s: Vec<f64>,
    /// `ModePlans::execute` seconds per iteration.
    replay_s: Vec<f64>,
    nnz: usize,
    index_bytes: u64,
    blocks: usize,
    contributions: usize,
    sim: Option<SimSummary>,
    /// Launches the plans refused (the backend then fell back to the
    /// reference kernel — a failed check, never expected).
    refused: usize,
    fits: Vec<f64>,
    lambda: Vec<f32>,
    /// Durable workload: checkpoint writes and the newest valid file's
    /// fits, read back after the repetition.
    checkpoint: Option<(u64, Option<Vec<f64>>)>,
}

pub fn run(cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let p = cfg.params();
    let spec = standin(p.dataset).ok_or_else(|| format!("unknown stand-in {}", p.dataset))?;
    let synth = SynthConfig::default().with_nnz(p.nnz).with_seed(cfg.seed);
    let generated = spec.generate(&synth);
    let input = dir.join(format!("{}.bin", p.dataset));
    write_bin(&generated, &input)?;
    let gen_nnz = generated.nnz();
    let dims = generated.dims().to_vec();
    drop(generated);

    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let input_bytes = std::fs::metadata(&input).map_or(0, |m| m.len());
    out.note("dims", format!("{dims:?}"));
    out.note("nnz", gen_nnz);
    out.note("input_bytes", input_bytes);
    out.note(
        "factor_bytes",
        dims.iter()
            .map(|&d| d as u64 * p.rank as u64 * 4)
            .sum::<u64>(),
    );
    out.note("rank", p.rank);
    out.note("iters", p.iters);

    let ctx = GpuContext::default();
    let opts = CpdOptions {
        rank: p.rank,
        max_iters: p.iters,
        tol: 0.0,
        seed: cfg.seed,
    };
    let tracer = Tracer::new(cfg.trace);
    let reps = collect_reps(cfg, p.min_reps, &tracer, |i, tracer| {
        rep(cfg, &ctx, &opts, &input, dir, i, tracer)
    })?;
    let (untraced, traced) = (&reps.untraced, &reps.traced);
    let all: Vec<&Rep> = untraced.iter().chain(traced).collect();
    let untraced_total = median(
        &untraced
            .iter()
            .map(|r| r.timing.total_s)
            .collect::<Vec<_>>(),
    );

    for (i, r) in all.iter().enumerate() {
        check_rep(cfg.workload, &p, i, r, all[0], gen_nnz, &mut checks);
    }
    let sims: Vec<SimSummary> = all.iter().filter_map(|r| r.sim.clone()).collect();
    check_sim_stable(cfg, &sims, &mut checks);
    let sim = sims.first().cloned();
    out.note("index_bytes", all[0].index_bytes);
    check_mttkrp(cfg, &p, &input, &ctx, &mut checks, &mut out)?;

    if cfg.trace {
        let last = traced.last().expect("at least one traced repetition");
        let probe = probes::run(
            &tracer,
            &ctx,
            dir,
            &ProbeInput {
                input: &input,
                tns: false,
                policy: DuplicatePolicy::Keep,
                rank: p.rank,
                devices: p.devices,
                result: &reps.last,
            },
        )?;
        let iters: Vec<f64> = traced.iter().flat_map(|r| r.iter_s.clone()).collect();
        let replays: Vec<f64> = traced.iter().flat_map(|r| r.replay_s.clone()).collect();
        let shares: Vec<f64> = replays.iter().zip(&iters).map(|(r, i)| r / i).collect();
        let sweep_flops = (dims.len() * dims.len() * last.nnz * p.rank) as f64;
        push_iteration_layers(
            &mut out,
            median(&iters),
            median(&replays),
            median(&shares),
            sweep_flops,
            probe.dense_s,
        );
        out.push(
            "formats.build_s",
            "s",
            median(&per_rep(
                &tracer,
                "tensor-formats.Hbcsf::build",
                traced.len(),
            )),
        );
        out.push("formats.index_bytes", "bytes", last.index_bytes as f64);
        out.push(
            "plan.capture_s",
            "s",
            median(&tracer.durations("plan.ModePlans::from_formats")),
        );
        out.push("plan.blocks", "count", last.blocks as f64);
        out.push("plan.contributions", "count", last.contributions as f64);
        probe.push_metrics(&mut out);
        if let Some(s) = &sim {
            s.push_layer_metrics(&mut out);
        }
        let traced_total = median(&traced.iter().map(|r| r.timing.total_s).collect::<Vec<_>>());
        finish_trace(cfg, &tracer, traced_total, untraced_total, &mut out)?;
    } else {
        let iters: Vec<f64> = untraced.iter().flat_map(|r| r.iter_s.clone()).collect();
        let timings: Vec<Timing> = untraced.iter().map(|r| r.timing).collect();
        push_end_to_end(
            &mut out,
            &timings,
            &iters,
            reps.peak_rss_mb,
            untraced[0].fits.last().copied().unwrap_or(0.0),
            sim.as_ref().map_or(0.0, SimSummary::gflops),
        );
    }
    out.checks = checks;
    Ok(out)
}

/// One repetition: input file on disk → CPD result.
fn rep(
    cfg: &Config,
    ctx: &GpuContext,
    opts: &CpdOptions,
    input: &Path,
    dir: &Path,
    index: usize,
    tracer: &Tracer,
) -> Result<(Rep, CpdResult), String> {
    let root = tracer.span("run");
    let t0 = Instant::now();
    let t = tracer.time("sptensor.ingest", || load(input))?;
    let order = t.order();
    let formats: Vec<Hbcsf> = (0..order)
        .map(|m| {
            tracer.time("tensor-formats.Hbcsf::build", || {
                Hbcsf::build(
                    &t,
                    &sptensor::mode_orientation(order, m),
                    BcsfOptions::default(),
                )
            })
        })
        .collect();
    let plans = tracer.time("plan.ModePlans::from_formats", || {
        ModePlans::from_formats(ctx, &formats, opts.rank)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let index_bytes = formats.iter().map(IndexBytes::index_bytes).sum();
    tracer.time("tensor-formats.drop", || drop(formats));

    // The backend: one `ModePlans::execute` per MTTKRP. It stamps the
    // mode-0 calls (iteration boundaries) and its own durations, and keeps
    // the first sweep's simulated statistics.
    let marks: RefCell<Vec<Instant>> = RefCell::new(Vec::with_capacity(opts.max_iters + 1));
    let replay: RefCell<Vec<f64>> = RefCell::new(Vec::with_capacity(opts.max_iters));
    let sims: RefCell<Vec<gpu_sim::SimResult>> = RefCell::new(Vec::new());
    let refused = RefCell::new(0usize);
    let backend = |factors: &[Matrix], mode: usize| -> Matrix {
        let start = Instant::now();
        if mode == 0 {
            marks.borrow_mut().push(start);
            replay.borrow_mut().push(0.0);
        }
        let run = tracer.time("plan.ModePlans::execute", || {
            plans.execute(ctx, factors, mode)
        });
        if let Some(r) = replay.borrow_mut().last_mut() {
            *r += start.elapsed().as_secs_f64();
        }
        match run {
            Ok(run) => {
                let mut s = sims.borrow_mut();
                if s.len() == mode {
                    s.push(run.sim);
                }
                run.y
            }
            Err(_) => {
                *refused.borrow_mut() += 1;
                mttkrp::reference::mttkrp(&t, factors, mode)
            }
        }
    };

    let ckpt_dir = dir.join(format!("checkpoints-{index}"));
    let t1 = Instant::now();
    let result = match cfg.workload {
        Workload::UberDurable => {
            let dopts = DurableOptions {
                dir: ckpt_dir.clone(),
                label: "bench".into(),
                resume: false,
                halt_on_crash: false,
            };
            tracer
                .time("cpd.cpd_als_resilient_durable", || {
                    cpd_als_resilient_durable(
                        &t,
                        opts,
                        &ResilienceOptions::default(),
                        &dopts,
                        backend,
                        None,
                        Some(ctx),
                    )
                })
                .map_err(|e| format!("durable CPD: {e}"))?
                .0
        }
        _ => tracer.time("cpd.cpd_als", || cpd_als(&t, opts, backend)),
    };
    let end = Instant::now();
    drop(root);

    let marks = marks.into_inner();
    let iter_s = marks
        .iter()
        .enumerate()
        .map(|(k, &m)| (marks.get(k + 1).copied().unwrap_or(end) - m).as_secs_f64())
        .collect();
    let checkpoint = if cfg.workload == Workload::UberDurable {
        let r = read_checkpoints(&ckpt_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        Some(r)
    } else {
        None
    };
    let sims = sims.into_inner();
    let sim = (sims.len() == order).then(|| SimSummary {
        modes: sims,
        paper_flops_per_mode: mttkrp::reference::coo_flop_count(&t, opts.rank),
    });
    let (blocks, contributions) = (0..order).fold((0, 0), |(b, c), m| {
        let s = plans.plan(m).schedule();
        (b + s.num_blocks(), c + s.num_contributions())
    });
    let rep = Rep {
        timing: Timing {
            setup_s,
            solve_s: (end - t1).as_secs_f64(),
            total_s: (end - t0).as_secs_f64(),
        },
        iter_s,
        replay_s: replay.into_inner(),
        nnz: t.nnz(),
        index_bytes,
        blocks,
        contributions,
        sim,
        refused: refused.into_inner(),
        fits: result.fits.clone(),
        lambda: result.lambda.clone(),
        checkpoint,
    };
    Ok((rep, result))
}

/// Checkpoint files written and the fits of the newest valid one.
fn read_checkpoints(dir: &Path) -> (u64, Option<Vec<f64>>) {
    let files = std::fs::read_dir(dir).map_or(0, |d| d.flatten().count() as u64);
    let fits = CheckpointStore::open(dir, "bench")
        .and_then(|s| s.latest_valid())
        .ok()
        .and_then(|scan| scan.state)
        .map(|s| s.fits);
    (files, fits)
}

fn check_rep(
    workload: Workload,
    p: &Params,
    i: usize,
    r: &Rep,
    first: &Rep,
    gen_nnz: usize,
    checks: &mut Checks,
) {
    let what = format!("repetition {i}");
    check_fits(&r.fits, p.iters, &what, checks);
    checks.check(r.refused == 0, || {
        format!("{what}: {} plan launches were refused", r.refused)
    });
    checks.check(r.nnz == gen_nnz, || {
        format!("{what}: loaded {} nonzeros, generated {gen_nnz}", r.nnz)
    });
    checks.check(r.fits == first.fits && r.lambda == first.lambda, || {
        format!("{what}: fits differ from repetition 0 on identical input")
    });
    if workload == Workload::UberDurable {
        let every = ResilienceOptions::default().checkpoint_every;
        let want = (p.iters / every) as u64;
        let (files, fits) = r.checkpoint.clone().unwrap_or((0, None));
        checks.check(files == want, || {
            format!("{what}: {files} checkpoint files, expected {want}")
        });
        let last = p.iters - p.iters % every;
        checks.check(
            fits.as_deref() == Some(&r.fits[..last.min(r.fits.len())]),
            || format!("{what}: newest checkpoint's fits disagree with the run"),
        );
    }
}

/// Replayed MTTKRP against the exact one, on freshly captured plans.
fn check_mttkrp(
    cfg: &Config,
    p: &Params,
    input: &Path,
    ctx: &GpuContext,
    checks: &mut Checks,
    out: &mut Outcome,
) -> Result<(), String> {
    let t = load(input)?;
    let plans = ModePlans::build_hbcsf(ctx, &t, p.rank, BcsfOptions::default());
    check_plans_against_reference(cfg, &t, &plans, ctx, p.rank, checks, out);
    Ok(())
}

pub fn load(input: &Path) -> Result<CooTensor, String> {
    let src = BinSource::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
    sptensor::ingest(
        src,
        &IngestOptions::new().with_policy(DuplicatePolicy::Keep),
    )
    .map_err(|e| format!("{}: {e}", input.display()))
}

fn write_bin(t: &CooTensor, path: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut w = BufWriter::new(File::create(path).map_err(err)?);
    sptensor::io::write_bin(t, &mut w).map_err(err)?;
    w.flush().map_err(err)
}

/// Per-repetition sums of the durations of spans named `name`.
fn per_rep(tracer: &Tracer, name: &str, reps: usize) -> Vec<f64> {
    let d = tracer.durations(name);
    let per = d.len() / reps.max(1);
    d.chunks(per.max(1)).map(|c| c.iter().sum()).collect()
}
