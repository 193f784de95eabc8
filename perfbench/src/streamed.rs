//! The streamed workload, `nell2-ingest`: `.tns` text →
//! `SpilledTensor::ingest` → `cpd_als_streamed`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use mttkrp::cpd::{cpd_als_planned, CpdOptions, CpdResult};
use mttkrp::gpu::{cpd_als_streamed, GpuContext, ModePlans, StreamOptions};
use sptensor::synth::{standin, DatasetSpec, SynthConfig};
use sptensor::{
    identity_perm, mode_orientation, CooChunk, DuplicatePolicy, IngestOptions, SpilledTensor,
    TensorSource, TnsSource,
};
use tensor_formats::{BcsfOptions, Hbcsf, IndexBytes};

use crate::probes::{self, ProbeInput};
use crate::trace::Tracer;
use crate::{
    check_fits, check_plans_against_reference, check_sim_stable, collect_reps, finish_trace,
    median, push_end_to_end, push_iteration_layers, Checks, Config, Outcome, SimSummary, Timing,
};

struct Rep {
    timing: Timing,
    nnz: u64,
    raw_entries: u64,
    fits: Vec<f64>,
    lambda: Vec<f32>,
}

pub fn run(cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let p = cfg.params();
    let spec = standin(p.dataset).ok_or_else(|| format!("unknown stand-in {}", p.dataset))?;
    let synth = SynthConfig::default().with_nnz(p.nnz).with_seed(cfg.seed);
    let input = dir.join(format!("{}.tns", p.dataset));
    let raw = write_tns(&spec, &synth, &input)?;

    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let dims = spec.scaled_dims(p.nnz);
    let input_bytes = std::fs::metadata(&input).map_or(0, |m| m.len());
    out.note("dims", format!("{dims:?}"));
    out.note("raw_entries", raw);
    out.note("input_bytes", input_bytes);
    out.note(
        "factor_bytes",
        dims.iter()
            .map(|&d| d as u64 * p.rank as u64 * 4)
            .sum::<u64>(),
    );
    out.note("rank", p.rank);
    out.note("iters", p.iters);
    out.note("shards_per_mode", p.devices);

    let ctx = GpuContext::default();
    let iopts = IngestOptions::new().with_policy(DuplicatePolicy::Sum);
    let sopts = StreamOptions {
        cpd: CpdOptions {
            rank: p.rank,
            max_iters: p.iters,
            tol: 0.0,
            seed: cfg.seed,
        },
        devices: p.devices,
        chunk_nnz: iopts.effective_chunk_nnz(dims.len()),
        bcsf: BcsfOptions::default(),
    };
    let tracer = Tracer::new(cfg.trace);
    let reps = collect_reps(cfg, p.min_reps, &tracer, |i, tracer| {
        rep(
            &ctx,
            &input,
            &iopts,
            &sopts,
            &dir.join(format!("rep-{i}")),
            tracer,
        )
    })?;
    let (untraced, traced) = (&reps.untraced, &reps.traced);
    let untraced_total = median(
        &untraced
            .iter()
            .map(|r| r.timing.total_s)
            .collect::<Vec<_>>(),
    );

    // In-core reference: the generator's folded tensor in the spill's
    // merge order, captured resident and solved by the planned driver.
    let mut t = spec.generate(&synth);
    t.sort_by_perm_stable(&identity_perm(t.order()));
    out.note("nnz", t.nnz());
    let all: Vec<&Rep> = untraced.iter().chain(traced).collect();
    for (i, r) in all.iter().enumerate() {
        let what = format!("repetition {i}");
        check_fits(&r.fits, p.iters, &what, &mut checks);
        checks.check(r.nnz == t.nnz() as u64, || {
            format!(
                "{what}: spilled {} nonzeros, generator folded to {}",
                r.nnz,
                t.nnz()
            )
        });
        checks.check(r.raw_entries == raw, || {
            format!(
                "{what}: spill saw {} raw entries, file has {raw}",
                r.raw_entries
            )
        });
        checks.check(r.fits == all[0].fits && r.lambda == all[0].lambda, || {
            format!("{what}: fits differ from repetition 0 on identical input")
        });
    }
    let order = t.order();
    let build = Instant::now();
    let formats: Vec<Hbcsf> = (0..order)
        .map(|m| Hbcsf::build(&t, &mode_orientation(order, m), BcsfOptions::default()))
        .collect();
    let capture = Instant::now();
    let plans = ModePlans::from_formats(&ctx, &formats, p.rank);
    let capture_s = capture.elapsed().as_secs_f64();
    let incore_build_s = (capture - build).as_secs_f64();
    let index_bytes: u64 = formats.iter().map(IndexBytes::index_bytes).sum();
    drop(formats);
    out.note("index_bytes", index_bytes);
    let incore = cpd_als_planned(&t, &sopts.cpd, &ctx, &plans);
    checks.check(
        incore.fits == all[0].fits && incore.lambda == all[0].lambda,
        || "streamed fits/lambda differ from the in-core planned run".into(),
    );
    let sim = SimSummary {
        modes: check_plans_against_reference(cfg, &t, &plans, &ctx, p.rank, &mut checks, &mut out),
        paper_flops_per_mode: mttkrp::reference::coo_flop_count(&t, p.rank),
    };
    check_sim_stable(cfg, std::slice::from_ref(&sim), &mut checks);
    let (blocks, contributions) = (0..order).fold((0, 0), |(b, c), m| {
        let s = plans.plan(m).schedule();
        (b + s.num_blocks(), c + s.num_contributions())
    });
    let nnz = t.nnz();
    drop(plans);
    drop(t);

    if cfg.trace {
        let probe = probes::run(
            &tracer,
            &ctx,
            dir,
            &ProbeInput {
                input: &input,
                tns: true,
                policy: DuplicatePolicy::Sum,
                rank: p.rank,
                devices: p.devices,
                result: &reps.last,
            },
        )?;
        checks.check(probe.streamed_index_bytes == index_bytes, || {
            "streamed HB-CSF index bytes differ from the in-core build".into()
        });
        let solve = median(&traced.iter().map(|r| r.timing.solve_s).collect::<Vec<_>>());
        // The driver exposes no iteration boundary: an iteration is the
        // solve minus the probed capture phase, per iteration.
        let iter = (solve - probe.capture_phase_s()) / p.iters as f64;
        let replay = probe.stream_replay_s;
        push_iteration_layers(
            &mut out,
            iter,
            replay,
            replay / iter,
            (order * order * nnz * p.rank) as f64,
            probe.dense_s,
        );
        out.push("formats.build_s", "s", probe.streamed_build_s);
        out.push("formats.index_bytes", "bytes", index_bytes as f64);
        out.push("plan.capture_s", "s", capture_s);
        out.push("plan.blocks", "count", blocks as f64);
        out.push("plan.contributions", "count", contributions as f64);
        probe.push_metrics(&mut out);
        sim.push_layer_metrics(&mut out);
        out.note("incore_build_s", incore_build_s);
        let traced_total = median(&traced.iter().map(|r| r.timing.total_s).collect::<Vec<_>>());
        finish_trace(cfg, &tracer, traced_total, untraced_total, &mut out)?;
    } else {
        // No iteration boundary is visible from outside the streamed
        // driver: an iteration sample is a repetition's solve over its
        // iteration count, capture included.
        let timings: Vec<Timing> = untraced.iter().map(|r| r.timing).collect();
        let iters: Vec<f64> = timings.iter().map(|t| t.solve_s / p.iters as f64).collect();
        push_end_to_end(
            &mut out,
            &timings,
            &iters,
            reps.peak_rss_mb,
            untraced[0].fits.last().copied().unwrap_or(0.0),
            sim.gflops(),
        );
    }
    out.checks = checks;
    Ok(out)
}

/// One repetition: `.tns` on disk → parse + spill → streamed CPD.
fn rep(
    ctx: &GpuContext,
    input: &Path,
    iopts: &IngestOptions,
    sopts: &StreamOptions,
    scratch: &Path,
    tracer: &Tracer,
) -> Result<(Rep, CpdResult), String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let root = tracer.span("run");
    let t0 = Instant::now();
    let spill = tracer.time("sptensor.SpilledTensor::ingest", || {
        let f = File::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
        SpilledTensor::ingest(
            TnsSource::new(BufReader::with_capacity(1 << 20, f)),
            iopts,
            scratch,
        )
        .map_err(|e| format!("{}: {e}", input.display()))
    })?;
    let t1 = Instant::now();
    let res = tracer
        .time("stream.cpd_als_streamed", || {
            cpd_als_streamed(ctx, &spill, sopts, scratch)
        })
        .map_err(|e| format!("streamed CPD: {e}"))?;
    let end = Instant::now();
    drop(root);
    let rep = Rep {
        timing: Timing {
            setup_s: (t1 - t0).as_secs_f64(),
            solve_s: (end - t1).as_secs_f64(),
            total_s: (end - t0).as_secs_f64(),
        },
        nnz: spill.nnz(),
        raw_entries: spill.raw_entries(),
        fits: res.result.fits.clone(),
        lambda: res.result.lambda.clone(),
    };
    drop(spill);
    let _ = std::fs::remove_dir_all(scratch);
    Ok((rep, res.result))
}

/// Streams the stand-in's raw entries, duplicates included, to `.tns`.
fn write_tns(spec: &DatasetSpec, synth: &SynthConfig, path: &Path) -> Result<u64, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut source = spec.source(synth);
    let f = File::create(path).map_err(|e| err(&e))?;
    let mut w = BufWriter::with_capacity(1 << 20, f);
    let mut chunk = CooChunk::default();
    let mut written = 0u64;
    loop {
        let n = source
            .fill_chunk(1 << 20, &mut chunk)
            .map_err(|e| err(&e))?;
        if n == 0 {
            break;
        }
        written += n as u64;
        sptensor::io::write_tns_chunk(&chunk, n, &mut w).map_err(|e| err(&e))?;
    }
    w.flush().map_err(|e| err(&e))?;
    Ok(written)
}
