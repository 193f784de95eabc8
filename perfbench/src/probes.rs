//! Layer probes of the traced run.
//!
//! The ALS drivers are single public calls: `cpd_als` hides its dense
//! update and fit, `cpd_als_resilient_durable` its checkpoint writes, and
//! `cpd_als_streamed` its whole resort → build → capture → replay
//! pipeline. After the traced repetitions, each of those layers is timed
//! by calling its public function on the same input and the same final
//! factors, one layer at a time, under a `probe` root span that is not
//! part of the run's total. Every workload runs the same probes, so a
//! change to one layer shows in that layer's metric on every tensor.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::Instant;

use dense::{pseudo_inverse, Matrix};
use mttkrp::checkpoint::{CheckpointStore, WriteOutcome};
use mttkrp::cpd::CpdResult;
use mttkrp::gpu::stream::{capture_sharded_hbcsf, capture_weight_prefix, replay_mode};
use mttkrp::gpu::{GpuContext, ShardStore};
use sptensor::{
    mode_orientation, BinSource, CooChunk, DuplicatePolicy, IngestOptions, SortedChunks,
    SpilledTensor, TensorSource, TnsSource,
};
use tensor_formats::{BcsfOptions, Csf, Hbcsf, IndexBytes};

use crate::trace::Tracer;
use crate::{dir_bytes, median, Outcome};

/// What the probes run on.
pub struct ProbeInput<'a> {
    /// The workload's input file (`.tns` text or binary).
    pub input: &'a Path,
    pub tns: bool,
    pub policy: DuplicatePolicy,
    pub rank: usize,
    /// Shards per mode of the streamed capture.
    pub devices: usize,
    /// The traced run's final CPD state (factors, lambda, fits).
    pub result: &'a CpdResult,
}

/// Seconds and sizes per layer. Per-iteration quantities (replay, dense,
/// read pass) are for one ALS iteration.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub parse_s: f64,
    pub input_bytes: u64,
    pub spill_s: f64,
    pub spill_bytes: u64,
    pub read_pass_s: f64,
    pub resort_s: f64,
    /// `Csf::build_streamed` plus `Hbcsf::from_csf`, all modes.
    pub streamed_build_s: f64,
    pub streamed_index_bytes: u64,
    pub capture_weights_s: f64,
    pub capture_shards_s: f64,
    pub store_bytes: u64,
    pub stream_replay_s: f64,
    pub dense_s: f64,
    pub dense_flops: f64,
    pub checkpoint_s: f64,
    pub checkpoint_bytes: u64,
}

impl Probe {
    /// Resort, streamed build and sharded capture: the capture phase of
    /// `cpd_als_streamed`.
    pub fn capture_phase_s(&self) -> f64 {
        self.resort_s + self.streamed_build_s + self.capture_weights_s + self.capture_shards_s
    }

    pub fn push_metrics(&self, out: &mut Outcome) {
        out.push("sptensor.parse_s", "s", self.parse_s);
        out.push(
            "sptensor.parse_mb_s",
            "MB/s",
            self.input_bytes as f64 / 1e6 / self.parse_s,
        );
        out.push("sptensor.spill_s", "s", self.spill_s);
        out.push("sptensor.spill_bytes", "bytes", self.spill_bytes as f64);
        out.push("sptensor.resort_s", "s", self.resort_s);
        out.push("sptensor.read_pass_s", "s", self.read_pass_s);
        out.push("stream.capture_weights_s", "s", self.capture_weights_s);
        out.push("stream.capture_shards_s", "s", self.capture_shards_s);
        out.push("stream.store_bytes", "bytes", self.store_bytes as f64);
        out.push("stream.replay_s", "s", self.stream_replay_s);
        out.push("dense.update_s", "s", self.dense_s);
        out.push(
            "dense.gflops",
            "GFLOP/s",
            self.dense_flops / self.dense_s / 1e9,
        );
        out.push("checkpoint.write_s", "s", self.checkpoint_s);
        out.push("checkpoint.bytes", "bytes", self.checkpoint_bytes as f64);
    }
}

/// Runs every probe once (dense and checkpoint three times, median).
pub fn run(tracer: &Tracer, ctx: &GpuContext, dir: &Path, p: &ProbeInput) -> Result<Probe, String> {
    let _root = tracer.span("probe");
    let err = |e: &dyn std::fmt::Display| format!("probe: {e}");
    let factors = &p.result.factors;
    let order = factors.len();
    let iopts = IngestOptions::new().with_policy(p.policy);
    let chunk_nnz = iopts.effective_chunk_nnz(order);
    let mut probe = Probe {
        input_bytes: std::fs::metadata(p.input).map_or(0, |m| m.len()),
        ..Probe::default()
    };

    // Parse alone: drain the source without spilling.
    let start = Instant::now();
    tracer.time("sptensor.parse", || -> Result<(), String> {
        let mut chunk = CooChunk::default();
        if p.tns {
            let mut src = TnsSource::new(open(p.input)?);
            while src.fill_chunk(chunk_nnz, &mut chunk).map_err(|e| err(&e))? > 0 {}
        } else {
            let mut src = BinSource::open(p.input).map_err(|e| err(&e))?;
            while src.fill_chunk(chunk_nnz, &mut chunk).map_err(|e| err(&e))? > 0 {}
        }
        Ok(())
    })?;
    probe.parse_s = start.elapsed().as_secs_f64();

    let scratch = dir.join("probe-scratch");
    let start = Instant::now();
    let spill = tracer.time("sptensor.SpilledTensor::ingest", || {
        if p.tns {
            SpilledTensor::ingest(TnsSource::new(open(p.input)?), &iopts, &scratch)
                .map_err(|e| err(&e))
        } else {
            let src = BinSource::open(p.input).map_err(|e| err(&e))?;
            SpilledTensor::ingest(src, &iopts, &scratch).map_err(|e| err(&e))
        }
    })?;
    probe.spill_s = start.elapsed().as_secs_f64() - probe.parse_s;
    probe.spill_bytes = dir_bytes(&scratch);

    let start = Instant::now();
    tracer.time(
        "sptensor.SpilledTensor::stream",
        || -> Result<(), String> {
            let mut stream = spill.stream().map_err(|e| err(&e))?;
            let mut chunk = CooChunk::default();
            while stream
                .next_chunk(chunk_nnz, &mut chunk)
                .map_err(|e| err(&e))?
                > 0
            {}
            Ok(())
        },
    )?;
    probe.read_pass_s = start.elapsed().as_secs_f64();

    let mut store = ShardStore::create(&scratch).map_err(|e| err(&e))?;
    for mode in 0..order {
        let perm = mode_orientation(order, mode);
        let start = Instant::now();
        let resorted = tracer
            .time("sptensor.SpilledTensor::resort", || {
                spill.resort(&perm, &scratch, &iopts)
            })
            .map_err(|e| err(&e))?;
        let built = Instant::now();
        probe.resort_s += (built - start).as_secs_f64();
        let h = tracer.time("tensor-formats.build_streamed", || {
            let mut stream = resorted.stream()?;
            Csf::build_streamed(&mut stream, chunk_nnz)
                .map(|csf| Hbcsf::from_csf(csf, BcsfOptions::default()))
        });
        let h = h.map_err(|e| err(&e))?;
        drop(resorted);
        let weights = Instant::now();
        probe.streamed_build_s += (weights - built).as_secs_f64();
        probe.streamed_index_bytes += h.index_bytes();
        tracer.time("stream.capture_weight_prefix", || {
            capture_weight_prefix(ctx, &h, p.rank)
        });
        let shards = Instant::now();
        probe.capture_weights_s += (shards - weights).as_secs_f64();
        tracer
            .time("stream.capture_sharded_hbcsf", || {
                capture_sharded_hbcsf(ctx, &h, p.rank, p.devices, &mut store)
            })
            .map_err(|e| err(&e))?;
        // The sharded capture re-runs the weights pass before cutting;
        // the shard passes are what remains.
        probe.capture_shards_s += shards.elapsed().as_secs_f64() - (shards - weights).as_secs_f64();
    }
    probe.store_bytes = store.bytes_on_disk();

    let start = Instant::now();
    let ys = tracer.time("stream.replay_mode", || -> Result<Vec<Matrix>, String> {
        (0..order)
            .map(|m| replay_mode(&store, m, p.rank, factors).map_err(|e| err(&e)))
            .collect()
    })?;
    probe.stream_replay_s = start.elapsed().as_secs_f64();
    drop(store);
    drop(spill);

    let (dense_s, dense_flops) = dense_update(tracer, factors, &ys);
    probe.dense_s = dense_s;
    probe.dense_flops = dense_flops;

    let ckpt_dir = dir.join("probe-checkpoints");
    let mut ckpt = CheckpointStore::open(&ckpt_dir, "probe").map_err(|e| err(&e))?;
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let outcome = tracer
            .time("checkpoint.CheckpointStore::write", || {
                ckpt.write(
                    p.result.iterations,
                    factors,
                    &p.result.lambda,
                    &p.result.fits,
                )
            })
            .map_err(|e| err(&e))?;
        times.push(start.elapsed().as_secs_f64());
        if let WriteOutcome::Written { bytes, .. } = outcome {
            probe.checkpoint_bytes = bytes;
        }
    }
    probe.checkpoint_s = median(&times);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(probe)
}

/// One ALS sweep's dense update — `Y · pinv(V)`, column normalization and
/// the new gram, per mode — on the probed MTTKRP outputs. Median of three
/// sweeps, with its computed flop count.
fn dense_update(tracer: &Tracer, factors: &[Matrix], ys: &[Matrix]) -> (f64, f64) {
    let grams: Vec<Matrix> = factors.iter().map(Matrix::gram).collect();
    let vs: Vec<Matrix> = (0..factors.len())
        .map(|m| {
            grams
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != m)
                .map(|(_, g)| g.clone())
                .reduce(|a, b| a.hadamard(&b))
                .expect("order >= 2")
        })
        .collect();
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        tracer.time("dense.update", || {
            for (y, v) in ys.iter().zip(&vs) {
                let mut a = y.matmul(&pseudo_inverse(v));
                std::hint::black_box(a.normalize_columns());
                std::hint::black_box(a.gram());
            }
        });
        times.push(start.elapsed().as_secs_f64());
    }
    // Per mode: 2·I·R² (matmul) + I·R·(R+1) (upper-triangle gram) +
    // 3·I·R (normalization).
    let flops: f64 = ys
        .iter()
        .map(|y| {
            let (i, r) = (y.rows() as f64, y.cols() as f64);
            2.0 * i * r * r + i * r * (r + 1.0) + 3.0 * i * r
        })
        .sum();
    (median(&times), flops)
}

fn open(path: &Path) -> Result<impl BufRead, String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(BufReader::with_capacity(1 << 20, f))
}
