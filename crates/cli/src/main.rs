//! `sptk` — sparse tensor toolkit.
//!
//! A downstream-user command line over the reproduction's library stack:
//!
//! ```text
//! sptk gen darpa darpa.spt --nnz 500000        # write a stand-in dataset
//! sptk info darpa.spt                          # stats per mode
//! sptk convert darpa.spt darpa.tns             # binary <-> FROSTT text
//! sptk mttkrp darpa.spt --kernel hbcsf         # one simulated-GPU MTTKRP
//! sptk mttkrp darpa.spt --kernel splatt        # one measured CPU MTTKRP
//! sptk cpd darpa.spt --rank 8 --iters 10       # CPD-ALS end to end
//! ```
//!
//! File format by extension: `.tns` = FROSTT text, anything else = the
//! crate's `SPT1` binary.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{DeviceMemory, FaultPlan, Interconnect};
use mttkrp::abft::AbftOptions;
use mttkrp::cpd::{
    cpd_als, cpd_als_nonneg, cpd_als_nonneg_profiled, cpd_als_profiled, cpd_als_resilient,
    cpd_als_resilient_durable, CpdOptions, DurableOptions, ResilienceOptions,
};
use mttkrp::cpu::splatt::{SplattCsf, SplattOptions};
use mttkrp::gpu::{self, GpuContext, MemReport, MttkrpKernel};
use mttkrp::reference::random_factors;
use serve::{Service, ServiceConfig, Workload, WorkloadConfig};
use sptensor::stats::ModeStats;
use sptensor::{io as tio, mode_orientation, CooTensor};
use tensor_formats::{BcsfOptions, Csf, Csl, Fcoo, Hbcsf, Hicoo, IndexBytes};

mod args;
use args::{opt, switch, Args, Command, Flag, Kind, MemCapacity};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(COMMANDS, &argv) {
        Ok(args) => args,
        Err(e) => {
            eprint!("error: {e}\n{}", usage_for(&argv));
            return ExitCode::from(2);
        }
    };
    match (args.command.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a usage error in `argv` prints: the named command's usage, or
/// every command's, and the stand-in dataset names.
fn usage_for(argv: &[String]) -> String {
    let shown = Command::find(COMMANDS, argv).map_or(COMMANDS, |(c, _)| std::slice::from_ref(c));
    let datasets: Vec<&str> = sptensor::synth::standins().iter().map(|s| s.name).collect();
    format!("{}datasets: {}\n", args::usage(shown), datasets.join(" "))
}

const NNZ: Flag = opt("--nnz", "N", Kind::Count(0));
const RANK: Flag = opt("--rank", "R", Kind::Count(1));
const ITERS: Flag = opt("--iters", "K", Kind::Count(0));
const SEED: Flag = opt("--seed", "S", Kind::Count(0));
const DEVICES: Flag = opt("--devices", "N", Kind::Count(1));
const CHUNK_NNZ: Flag = opt("--chunk-nnz", "N", Kind::Count(0));
const OUT: Flag = opt("--out", "PATH", Kind::Text);
const SCRATCH: Flag = opt("--scratch", "DIR", Kind::Text);
const CHECKPOINT_DIR: Flag = opt("--checkpoint-dir", "DIR", Kind::Text);
const PROFILE: Flag = opt("--profile", "DIR", Kind::Text).help(
    "writes trace.json (Perfetto), nvprof_table.txt, counters.json, histograms.txt, \
     and (for cpd) manifest.json into DIR; simulated-GPU kernels only",
);
const EVENTS: Flag = opt("--events", "PATH", Kind::Text).help(
    "streams versioned JSONL telemetry events (kernel launches and replays, ladder \
     steps, shard compute, faults, iterations) to PATH",
);

/// The flags the stand-in fleet benchmarks share.
const FLEET: &[Flag] = &[opt("--datasets", "a,b", Kind::Text), NNZ, RANK, SEED, OUT];

/// The device flags `mttkrp`, `cpd` and `serve-sim` share; see
/// [`DeviceFlags`].
const DEVICE_FLAGS: &[Flag] = &[
    opt("--faults", "SPEC", Kind::Faults).help(
        "injects deterministic faults into simulated-GPU kernels with ABFT detection and \
         recovery; SPEC is comma-separated kind:rate terms, e.g. \
         bitflip:1e-3,abort:1e-4,straggler:0.05,slowdown:2.5 (or 'none')",
    ),
    opt("--mem-faults", "SPEC", Kind::Faults).help(
        "injects allocator faults (oom:RATE, frag:FRAC); shares --fault-seed with --faults \
         and may be combined with it",
    ),
    opt("--fault-seed", "S", Kind::Count(0)),
    opt("--mem-capacity", "B", Kind::MemCapacity).help(
        "caps simulated device memory: bytes with an optional k/m/g suffix (e.g. 64m), or a \
         footprint fraction like 0.7x; launches that do not fit degrade to out-of-core tiled \
         replay, then to the CPU reference",
    ),
    DEVICES.help(
        "shards simulated-GPU launches across N modeled devices (weight-balanced block \
         ranges, per-device memory, modeled ring all-reduce); bit-identical to a single \
         device for any N",
    ),
    opt("--interconnect", "SPEC", Kind::Interconnect).help(
        "prices the all-reduce: nvlink, pcie, or name:bwGBs:latus (e.g. nvlink:25:1.5); \
         default nvlink",
    ),
];

/// Every `sptk` command: what [`Args::parse`] accepts and [`args::usage`]
/// prints.
const COMMANDS: &[Command] = &[
    Command {
        name: "gen",
        positionals: &["<dataset>", "<out>"],
        flags: &[&[NNZ, SEED, switch("--stream")]],
        about: "--stream generates chunk by chunk straight to a .tns file (bounded memory, any \
                size); re-ingesting with the sum policy reproduces the non-streamed tensor \
                exactly",
        run: cmd_gen,
    },
    Command {
        name: "ingest",
        positionals: &["<file>"],
        flags: &[&[
            RANK,
            ITERS,
            DEVICES,
            CHUNK_NNZ,
            opt("--host-budget", "B", Kind::Bytes),
            opt("--policy", "", Kind::Choice(&["sum", "keep", "reject"])),
            SCRATCH,
            PROFILE,
        ]],
        about: "bounded-memory end-to-end CPD: chunked parse + external-sort spill, out-of-core \
                HB-CSF construction, shard-by-shard plan capture to disk (--devices shards per \
                mode), streaming ALS; --host-budget B derates chunk sizes and fails the run if \
                the host peak RSS ends above B",
        run: cmd_ingest,
    },
    Command {
        name: "info",
        positionals: &["<file>"],
        flags: &[],
        about: "",
        run: cmd_info,
    },
    Command {
        name: "convert",
        positionals: &["<in>", "<out>"],
        flags: &[],
        about: "",
        run: cmd_convert,
    },
    Command {
        name: "mttkrp",
        positionals: &["<file>"],
        flags: &[
            &[
                opt("--mode", "N", Kind::Count(1)),
                RANK,
                opt("--kernel", "", Kind::Choice(KERNELS)),
                opt("--device", "", Kind::Choice(&["p100", "v100"])),
                PROFILE,
                EVENTS,
                opt("--mem-trace", "PATH", Kind::Text)
                    .help("records the per-warp L2 address stream to PATH as JSONL"),
                opt("--trace-sample", "N", Kind::Count(1)).help(
                    "keeps every N-th --mem-trace access (default 1 = replayable exactly via \
                     sptk trace-replay)",
                ),
            ],
            DEVICE_FLAGS,
        ],
        about: "",
        run: cmd_mttkrp,
    },
    Command {
        name: "cpd",
        positionals: &["<file>"],
        flags: &[
            &[
                RANK,
                ITERS,
                switch("--nonneg"),
                PROFILE,
                EVENTS,
                opt("--expect-fit", "F", Kind::Float),
                switch("--expect-tiled")
                    .help("fails unless at least one launch took the tiled path"),
                CHECKPOINT_DIR,
                switch("--resume"),
                switch("--halt-on-crash"),
            ],
            DEVICE_FLAGS,
        ],
        about: "--checkpoint-dir writes a versioned, checksummed checkpoint per iteration (temp \
                + rename); --resume warm-restarts from the last valid one, scanning past torn \
                files; --halt-on-crash makes an injected crash:RATE fault kill the run (exit 1) \
                so a shell loop with --resume models process restarts",
        run: cmd_cpd,
    },
    Command {
        name: "bench plan-replay",
        positionals: &[],
        flags: &[FLEET, &[ITERS, opt("--min-speedup", "X", Kind::Float)]],
        about: "times emit-every-iteration vs. capture-once-replay CPD and writes JSON",
        run: cmd_bench_plan_replay,
    },
    Command {
        name: "bench ingest",
        positionals: &[],
        flags: &[&[
            opt("--dataset", "NAME", Kind::Text),
            NNZ,
            RANK,
            ITERS,
            DEVICES,
            CHUNK_NNZ,
            SEED,
            switch("--compare-incore"),
            SCRATCH,
            OUT,
        ]],
        about: "times the streaming pipeline (.tns generation -> spill -> out-of-core formats \
                -> sharded capture -> streaming ALS), records the host peak RSS against the \
                analytic resident-pipeline floor, and writes BENCH_ingest.json; \
                --compare-incore also runs the resident pipeline and fails on any \
                fit-trajectory divergence",
        run: cmd_bench_ingest,
    },
    Command {
        name: "bench replay-fleet",
        positionals: &[],
        flags: &[
            FLEET,
            &[
                ITERS,
                opt("--cpd-iters", "K", Kind::Count(0)),
                opt("--baseline", "PATH", Kind::Text),
                opt("--tolerance", "F", Kind::Float),
            ],
        ],
        about: "times generic vs. rank-specialized replay over the stand-in fleet, checks \
                bit-equality, writes BENCH_replay_fleet.json, and (with --baseline) fails on \
                any fit mismatch or >tolerance speedup regression",
        run: cmd_bench_replay_fleet,
    },
    Command {
        name: "calibrate",
        positionals: &[],
        flags: &[FLEET],
        about: "runs all six formats over the stand-in fleet, checks the paper's metric \
                orderings (Table II / Figs. 5-8), and writes BENCH_fleet.json",
        run: cmd_calibrate,
    },
    Command {
        name: "trace-replay",
        positionals: &["<trace.jsonl>"],
        flags: &[],
        about: "replays a --mem-trace file through a cold cache and re-derives L2 rates",
        run: cmd_trace_replay,
    },
    Command {
        name: "serve-sim",
        positionals: &[],
        flags: &[
            &[
                opt("--tenants", "N", Kind::Count(1)),
                opt("--jobs", "N", Kind::Count(0)),
                SEED,
                opt("--queue-depth", "N", Kind::Count(0)),
                NNZ,
                RANK,
                opt("--arrival-us", "U", Kind::Float),
                opt("--deadline-us", "U", Kind::Float),
                opt("--timeout-us", "U", Kind::Float),
                opt("--cpd-frac", "PCT", Kind::Count(0)),
                opt("--backoff-us", "U", Kind::Float),
                OUT,
                EVENTS,
                PROFILE,
                switch("--verify"),
                opt("--expect-shed", "N", Kind::Count(0)),
                opt("--expect-device-loss", "N", Kind::Count(0)),
                CHECKPOINT_DIR,
            ],
            DEVICE_FLAGS,
        ],
        about: "runs a deterministic multi-tenant CPD/MTTKRP service simulation: seeded \
                synthetic workload, shared plan cache, admission control with a bounded queue, \
                per-job deadlines with a degrading retry ladder, and device-loss recovery; \
                prints per-tenant latency percentiles and writes a byte-reproducible JSON \
                report with --out",
        run: cmd_serve_sim,
    },
    Command {
        name: "chaos",
        positionals: &[],
        flags: &[&[
            SEED,
            opt("--schedules", "N", Kind::Count(1)),
            opt("--jobs", "N", Kind::Count(1)),
            DEVICES,
            opt("--dir", "DIR", Kind::Text),
            OUT,
        ]],
        about: "runs the seeded composed-fault chaos harness: every schedule mixes >=3 fault \
                kinds (always one interconnect fault and one mid-write crash rate), drives a \
                full service workload twice per schedule, runs a crash-restart cycle against \
                durable checkpoints, and exits nonzero on any invariant violation (untyped \
                terminal state, failed standalone verification, unbalanced memory ledger, \
                nondeterministic same-seed passes) or on a coverage gap (a fault class that \
                never fired)",
        run: cmd_chaos,
    },
];

const KERNELS: &[&str] = &[
    "hbcsf",
    "bcsf",
    "csf",
    "csl",
    "coo",
    "fcoo",
    "splatt",
    "splatt-tiled",
    "hicoo",
    "dfacto",
];

type Result<T> = std::result::Result<T, String>;

/// `println!` for command output, shadowing std's for the whole CLI. A
/// closed stdout is not an error: when the reader of a pipe has seen
/// enough and exited (`sptk info f | head -1`), the rest of the output is
/// dropped and the command still runs to completion, so its files and
/// exit status are those of an unpiped run.
macro_rules! println {
    () => {
        write_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` with the closed-pipe handling of this crate's `println!`.
macro_rules! print {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))
    };
}

fn write_out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if cfg!(test) {
        // Unit tests keep libtest's output capture, which only sees std's
        // print macros.
        std::print!("{args}");
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes a command's JSON report to `out` and says so.
fn write_report<E: std::fmt::Display>(
    out: &str,
    json: std::result::Result<String, E>,
) -> Result<()> {
    let json = json.map_err(|e| format!("{out}: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// The first of `flags` whose condition holds.
fn first_set<'a>(flags: &[(bool, &'a str)]) -> Option<&'a str> {
    flags.iter().find(|(set, _)| *set).map(|(_, name)| *name)
}

/// The device flags `sptk mttkrp`, `sptk cpd` and `sptk serve-sim` share
/// ([`DEVICE_FLAGS`]). [`DeviceFlags::executor`] turns them into the one
/// [`gpu::Executor`] every launch of the command goes through.
struct DeviceFlags {
    faults: Option<FaultPlan>,
    mem_capacity: Option<MemCapacity>,
    devices: Option<usize>,
    interconnect: Interconnect,
}

impl DeviceFlags {
    /// `--devices` absent means the single-device ladder. Execution
    /// faults (`--faults`) and allocator faults (`--mem-faults`) share the
    /// grammar and `--fault-seed`; keeping them as separate flags only
    /// documents intent, so they form one plan, `None` when inactive.
    fn new(a: &Args) -> Result<DeviceFlags> {
        let specs: Vec<&str> = ["--faults", "--mem-faults"]
            .iter()
            .filter_map(|f| a.raw(f))
            .filter(|spec| spec.trim() != "none")
            .collect();
        let seed = a.get("--fault-seed").unwrap_or(0xFA17);
        let plan =
            FaultPlan::parse(&specs.join(","), seed).map_err(|e| format!("--faults: {e}"))?;
        Ok(DeviceFlags {
            faults: plan.is_active().then_some(plan),
            mem_capacity: a.get("--mem-capacity"),
            devices: a.get("--devices"),
            interconnect: a
                .raw("--interconnect")
                .map_or(Ok(Interconnect::nvlink()), Interconnect::parse)?,
        })
    }

    /// Whether device memory is modeled (a capacity or allocator faults),
    /// which puts launches on the out-of-core ladder.
    fn adaptive(&self) -> bool {
        self.mem_capacity.is_some() || self.faults.as_ref().is_some_and(|p| p.has_mem_faults())
    }

    /// The executor over `ctx` these flags configure, and whether its
    /// launches must attach the COO tensor: they must whenever the ladder
    /// can reach the CPU reference rung (limited memory, faults,
    /// sharding). The plain in-core replay attaches none and keeps its
    /// profile. `0.7x`-style capacities resolve against `worst_footprint`;
    /// with a grid the cap applies per device.
    fn executor(&self, mut ctx: GpuContext, worst_footprint: u64) -> (gpu::Executor, bool) {
        if let Some(plan) = &self.faults {
            ctx = ctx.with_faults(plan.clone());
        }
        let cap = self
            .mem_capacity
            .as_ref()
            .map(|c| c.resolve(worst_footprint));
        let mut exec = match self.devices {
            Some(n) => {
                let mut grid = gpu::GridSpec::new(n, self.interconnect.clone());
                if let Some(bytes) = cap {
                    grid = grid.with_capacity(bytes);
                }
                gpu::Executor::new(ctx).with_grid(grid)
            }
            None => {
                if let Some(bytes) = cap {
                    ctx = ctx.with_memory(Arc::new(DeviceMemory::with_capacity(bytes)));
                }
                gpu::Executor::new(ctx)
            }
        };
        if self.faults.is_some() {
            exec = exec.with_abft(AbftOptions::default());
        }
        let attach = self.adaptive() || self.faults.is_some() || self.devices.is_some();
        (exec, attach)
    }
}

/// One human line per degradation-ladder rung of an adaptive launch.
fn print_ladder(mem: &MemReport) {
    println!(
        "memory[{} mode {}]: footprint {} B, capacity {}, high water {} B, {} oom events",
        mem.kernel,
        mem.mode + 1,
        mem.footprint_bytes,
        if mem.capacity_bytes == u64::MAX {
            "unlimited".to_string()
        } else {
            format!("{} B", mem.capacity_bytes)
        },
        mem.high_water_bytes,
        mem.oom_events,
    );
    for step in &mem.ladder {
        println!(
            "  rung {:<11} budget {:>12} B, {:>4} tiles -> {}",
            step.rung, step.budget_bytes, step.tiles, step.outcome
        );
    }
}

/// Loads through the typed `TensorSource` ingestion API. `.tns` rejects
/// duplicate entries; binary files keep entries verbatim, as the `SPT1`
/// writer stored them.
fn load(path: &str) -> Result<CooTensor> {
    let opts = sptensor::IngestOptions::new();
    let t = if path.ends_with(".tns") {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        sptensor::ingest(sptensor::TnsSource::new(BufReader::new(f)), &opts)
            .map_err(|e| format!("{path}: {e}"))?
    } else {
        let src = sptensor::BinSource::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let opts = opts.with_policy(sptensor::DuplicatePolicy::Keep);
        sptensor::ingest(src, &opts).map_err(|e| format!("{path}: {e}"))?
    };
    Ok(t)
}

fn save(t: &CooTensor, path: &str) -> Result<()> {
    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let w = BufWriter::new(f);
    if path.ends_with(".tns") {
        tio::write_tns(t, w).map_err(|e| format!("{path}: {e}"))
    } else {
        tio::write_bin(t, w).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_gen(a: &Args) -> Result<()> {
    let (name, out) = (a.pos(0), a.pos(1));
    let nnz = a.get("--nnz").unwrap_or(200_000);
    let seed = a
        .get("--seed")
        .unwrap_or(sptensor::synth::SynthConfig::default().seed);
    let spec = sptensor::synth::standin(name).ok_or_else(|| format!("unknown dataset '{name}'"))?;
    let cfg = sptensor::synth::SynthConfig::default()
        .with_nnz(nnz)
        .with_seed(seed);
    if a.has("--stream") {
        // Bounded-memory path: raw entries chunk by chunk straight to
        // `.tns`, duplicates included — Sum-policy re-ingestion folds them
        // into exactly the tensor the in-core generator produces.
        if !out.ends_with(".tns") {
            return Err("gen --stream writes .tns text (the binary header needs \
                 the folded nonzero count upfront); use a .tns output path"
                .into());
        }
        use sptensor::TensorSource;
        let mut source = spec.source(&cfg);
        let f = File::create(out).map_err(|e| format!("{out}: {e}"))?;
        let mut w = BufWriter::with_capacity(1 << 20, f);
        let mut chunk = sptensor::CooChunk::default();
        let mut written = 0usize;
        loop {
            let n = source
                .fill_chunk(1 << 20, &mut chunk)
                .map_err(|e| format!("{out}: {e}"))?;
            if n == 0 {
                break;
            }
            written += n;
            tio::write_tns_chunk(&chunk, n, &mut w).map_err(|e| format!("{out}: {e}"))?;
        }
        use std::io::Write;
        w.flush().map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}: {written} raw entries (streamed)");
        return Ok(());
    }
    let t = spec.generate(&cfg);
    save(&t, out)?;
    println!("wrote {out}: {:?}, {} nonzeros", t.dims(), t.nnz());
    Ok(())
}

/// `sptk ingest <file>` — bounded-memory end-to-end CPD: the tensor goes
/// from bytes on disk to a finished decomposition without ever being
/// resident. Chunked parse feeds an external-sort spill; per-mode HB-CSF
/// formats are built out-of-core from the sorted stream; launch plans are
/// captured shard by shard to disk; every ALS MTTKRP replays the shards
/// sequentially. `--host-budget` both derates the chunk sizes and gates
/// the run on the measured host peak RSS (`VmHWM`).
fn cmd_ingest(a: &Args) -> Result<()> {
    let path = a.pos(0);
    let rank = a.get("--rank").unwrap_or(8);
    let iters = a.get("--iters").unwrap_or(15);
    let devices = a.get("--devices").unwrap_or(4);
    let host_budget = a.raw("--host-budget").and_then(args::parse_bytes);
    let policy = match a.raw("--policy") {
        Some("keep") => sptensor::DuplicatePolicy::Keep,
        Some("reject") => sptensor::DuplicatePolicy::Reject,
        _ => sptensor::DuplicatePolicy::Sum,
    };
    let profile_dir = a.get::<PathBuf>("--profile");
    let (scratch, own_scratch) = match a.get::<PathBuf>("--scratch") {
        Some(dir) => (dir, false),
        None => (
            std::env::temp_dir().join(format!("sptk_ingest_{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let mut iopts = sptensor::IngestOptions::new().with_policy(policy);
    if let Some(n) = a.get("--chunk-nnz") {
        iopts = iopts.with_chunk_nnz(n);
    }
    if let Some(b) = host_budget {
        iopts = iopts.with_host_budget(b);
    }

    let ingest_start = Instant::now();
    let spill = if path.ends_with(".tns") {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        sptensor::SpilledTensor::ingest(
            sptensor::TnsSource::new(BufReader::with_capacity(1 << 20, f)),
            &iopts,
            &scratch,
        )
    } else {
        let src = sptensor::BinSource::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        sptensor::SpilledTensor::ingest(src, &iopts, &scratch)
    }
    .map_err(|e| format!("{path}: {e}"))?;
    let ingest_s = ingest_start.elapsed().as_secs_f64();
    let order = spill.dims().len();
    println!(
        "{path}: order {order}, dims {:?}, {} nonzeros after {:?} policy \
         ({ingest_s:.2}s chunked parse + spill)",
        spill.dims(),
        spill.nnz(),
        policy,
    );

    let ctx = GpuContext::default();
    let opts = CpdOptions {
        rank,
        max_iters: iters,
        tol: 1e-6, // same convergence rule as `sptk cpd`
        seed: 42,
    };
    let sopts = gpu::StreamOptions {
        cpd: opts,
        devices,
        chunk_nnz: iopts.effective_chunk_nnz(order),
        bcsf: BcsfOptions::default(),
    };
    let cpd_start = Instant::now();
    let res = gpu::cpd_als_streamed(&ctx, &spill, &sopts, &scratch)
        .map_err(|e| format!("streamed cpd: {e}"))?;
    let cpd_s = cpd_start.elapsed().as_secs_f64();

    println!(
        "streamed CPD rank {rank}: fit {:.4} after {} iterations \
         ({cpd_s:.2}s capture + ALS, {} shards/mode)",
        res.result.fits.last().copied().unwrap_or(0.0),
        res.result.iterations,
        res.shards_per_mode
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("/"),
    );
    for (i, fit) in res.result.fits.iter().enumerate() {
        println!("  iter {:>2}: fit {fit:.5}", i + 1);
    }
    println!("plan store on disk: {} bytes", res.store_bytes);

    if let Some(dir) = &profile_dir {
        let mut manifest =
            simprof::RunManifest::new("hbcsf-streamed", path, rank, iters, opts.tol, opts.seed);
        manifest.push_phase("chunked parse + spill", ingest_s);
        manifest.push_phase("sharded capture + streaming ALS", cpd_s);
        for &fit in &res.result.fits {
            manifest.push_iteration(fit, Vec::new(), 0.0);
        }
        manifest.total_seconds = ingest_s + cpd_s;
        manifest.record_host_peak_rss();
        let out = dir.join("manifest.json");
        manifest
            .write_to(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }

    drop(spill);
    if own_scratch {
        let _ = std::fs::remove_dir_all(&scratch);
    }

    let peak = simprof::peak_rss_bytes().unwrap_or(0);
    println!(
        "host peak rss: {peak} bytes ({:.1} MB)",
        peak as f64 / (1u64 << 20) as f64
    );
    println!(
        "final_fit_exact {:.15e}",
        res.result.fits.last().copied().unwrap_or(0.0)
    );
    if let Some(budget) = host_budget {
        if peak > budget {
            return Err(format!(
                "host peak RSS {peak} bytes exceeds --host-budget {budget} bytes"
            ));
        }
        println!("host budget check: {peak} <= {budget} ok");
    }
    Ok(())
}

fn cmd_info(a: &Args) -> Result<()> {
    let path = a.pos(0);
    let t = load(path)?;
    println!(
        "{path}: order {}, dims {:?}, {} nonzeros, density {:.3e}",
        t.order(),
        t.dims(),
        t.nnz(),
        t.density()
    );
    println!(
        "{:>5} {:>10} {:>10} {:>12} {:>12} {:>9} {:>9}",
        "mode", "slices", "fibers", "stdev/slc", "stdev/fbr", "1nnz slc%", "1nnz fbr%"
    );
    for mode in 0..t.order() {
        let s = ModeStats::compute(&t, mode);
        println!(
            "{:>5} {:>10} {:>10} {:>12.2} {:>12.2} {:>9.1} {:>9.1}",
            mode + 1,
            s.num_slices,
            s.num_fibers,
            s.nnz_per_slice.stdev,
            s.nnz_per_fiber.stdev,
            100.0 * s.singleton_slice_fraction,
            100.0 * s.singleton_fiber_fraction
        );
    }
    // Storage footprint per format, mode-1 orientation.
    let perm = mode_orientation(t.order(), 0);
    println!("\nindex storage (mode-1 orientation):");
    let rows: Vec<(&str, u64)> = vec![
        ("COO", t.index_bytes()),
        ("CSF", Csf::build(&t, &perm).index_bytes()),
        ("CSL", Csl::build(&t, &perm).index_bytes()),
        ("F-COO", Fcoo::build(&t, &perm, 8).index_bytes()),
        (
            "HiCOO",
            Hicoo::build(&t, Hicoo::DEFAULT_BLOCK_BITS).index_bytes(),
        ),
        (
            "HB-CSF",
            Hbcsf::build(&t, &perm, BcsfOptions::unsplit()).index_bytes(),
        ),
    ];
    for (fmt, bytes) in rows {
        println!(
            "  {fmt:<7} {bytes:>12} bytes ({:.2}/nnz)",
            bytes as f64 / t.nnz().max(1) as f64
        );
    }
    Ok(())
}

fn cmd_convert(a: &Args) -> Result<()> {
    let (input, output) = (a.pos(0), a.pos(1));
    let t = load(input)?;
    save(&t, output)?;
    println!("{input} -> {output} ({} nonzeros)", t.nnz());
    Ok(())
}

fn cmd_mttkrp(a: &Args) -> Result<()> {
    let path = a.pos(0);
    let t = load(path)?;
    let mode = a.get("--mode").unwrap_or(1usize) - 1; // 1-based like the paper
    if mode >= t.order() {
        return Err(format!(
            "--mode out of range (tensor has {} modes)",
            t.order()
        ));
    }
    let rank = a.get("--rank").unwrap_or(32);
    let kernel = a.raw("--kernel").unwrap_or("hbcsf");
    let profile_dir = a.get::<PathBuf>("--profile");
    let events_path = a.get::<PathBuf>("--events");
    let memtrace_path = a.get::<PathBuf>("--mem-trace");
    let mut ctx = GpuContext {
        device: match a.raw("--device") {
            Some("v100") => gpu_sim::DeviceProfile::v100(),
            _ => gpu_sim::DeviceProfile::p100(),
        },
        ..GpuContext::default()
    };
    if profile_dir.is_some() {
        ctx = ctx.with_profiling();
    }
    if let Some(path) = &events_path {
        let tel =
            simprof::Telemetry::to_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ctx = ctx.with_events(Arc::new(tel));
    }
    let memtrace = memtrace_path.as_ref().map(|_| {
        let sample_every = a.get("--trace-sample").unwrap_or(1);
        Arc::new(gpu_sim::MemTraceRecorder::new(sample_every))
    });
    if let Some(rec) = &memtrace {
        ctx = ctx.with_memtrace(Arc::clone(rec));
    }
    let flags = DeviceFlags::new(a)?;
    let adaptive = flags.adaptive();
    let factors = random_factors(&t, rank, 42);
    let flops = t.order() as f64 * t.nnz() as f64 * rank as f64;

    if matches!(kernel, "coo" | "fcoo" | "dfacto") && t.order() != 3 {
        return Err(format!(
            "kernel '{kernel}' supports third-order tensors only (this one is order {})",
            t.order()
        ));
    }

    if matches!(kernel, "splatt" | "splatt-tiled" | "hicoo" | "dfacto") {
        let gpu_only = first_set(&[
            (profile_dir.is_some(), "--profile"),
            (flags.faults.is_some(), "--faults"),
            (
                events_path.is_some() || memtrace_path.is_some(),
                "--events/--mem-trace",
            ),
            (adaptive, "--mem-capacity/--mem-faults"),
            (flags.devices.is_some(), "--devices"),
        ]);
        if let Some(f) = gpu_only {
            return Err(format!(
                "{f} supports the simulated GPU kernels only ('{kernel}' is a CPU kernel)"
            ));
        }
        // Each CPU kernel times its MTTKRP alone, not its format build.
        let (y, secs) = match kernel {
            "hicoo" => {
                let h = Hicoo::build(&t, Hicoo::DEFAULT_BLOCK_BITS);
                timed(|| mttkrp::cpu::hicoo::mttkrp(&h, &factors, mode))
            }
            "dfacto" => {
                let d = mttkrp::cpu::dfacto::Dfacto::build(&t, mode);
                timed(|| d.mttkrp(&factors))
            }
            _ => {
                let opts = if kernel == "splatt" {
                    SplattOptions::nontiled()
                } else {
                    SplattOptions::tiled()
                };
                let s = SplattCsf::build(&t, mode, opts);
                timed(|| s.mttkrp(&factors))
            }
        };
        println!(
            "{kernel} (CPU): {:.3} ms wall, {:.2} GFLOPs, ||Y|| = {:.6e}",
            secs * 1e3,
            flops / secs / 1e9,
            y.fro_norm()
        );
        return Ok(());
    }
    let untraceable = first_set(&[
        (adaptive, "--mem-capacity/--mem-faults"),
        (flags.devices.is_some(), "--devices"),
    ]);
    if let (Some(f), Some(_)) = (untraceable, &profile_dir) {
        return Err(format!(
            "--profile does not combine with {f}: tiled sub-launch and per-device \
             timelines do not concatenate into one trace"
        ));
    }
    // One typed entry for all six simulated kernels: parse the kind, build
    // the format, capture the plan, and let the Executor dispatch the
    // configured ladder.
    let kind: gpu::KernelKind = kernel.parse().map_err(|e| format!("{e}"))?;
    let format = gpu::AnyFormat::build(kind, &t, mode, &gpu::BuildOptions::default())
        .map_err(|e| e.to_string())?;
    let plan = format.capture(&ctx, rank);
    let (exec, attach) = flags.executor(ctx, plan.footprint().total_bytes());
    let ctx = exec.ctx();
    let largs = gpu::LaunchArgs::new(&factors);
    let largs = if attach { largs.with_tensor(&t) } else { largs };
    let execution = exec.execute(&plan, &largs).map_err(|e| e.to_string())?;
    let run = &execution.run;
    if let Some(report) = &execution.abft {
        println!(
            "faults: {} injected ({} flips landed), {} rows corrupted, {} detected; \
             {} retries, {} rows recovered, {} degraded to CPU",
            report.faults_injected,
            report.flips_applied,
            report.corrupted_rows.len(),
            report.detected_rows.len(),
            report.retries,
            report.recovered_rows,
            report.degraded_rows
        );
    }
    if adaptive {
        for mem in &execution.mem {
            print_ladder(mem);
        }
    }
    if let Some(g) = &execution.grid {
        println!(
            "grid: {} devices over {}, compute {:.3} ms + allreduce {:.3} ms \
             ({} B on the wire){}",
            g.devices,
            g.interconnect,
            g.compute_seconds * 1e3,
            g.allreduce_seconds * 1e3,
            g.allreduce_bytes,
            if g.cpu_fallback { ", cpu fallback" } else { "" }
        );
        for s in &g.shards {
            println!(
                "  device {}: blocks [{}, {}), weight {}, {}, {} oom events, \
                 high water {} B",
                s.device,
                s.block_begin,
                s.block_end,
                s.weight,
                if s.in_core {
                    "in-core".to_string()
                } else {
                    format!("{} tiles", s.tiles_run)
                },
                s.oom_events,
                s.high_water_bytes
            );
        }
    }
    let variant = match (&execution.grid, adaptive) {
        (Some(g), _) => format!(" x{} sharded", g.devices),
        (None, true) => ", adaptive".to_string(),
        _ => String::new(),
    };
    println!(
        "{kernel} (simulated {}{variant}): {:.3} ms, {:.2} GFLOPs, sm_eff {:.1}%, \
         occ {:.1}%, L2 {:.1}%, {} atomics, ||Y|| = {:.6e}",
        ctx.device.name,
        run.sim.time_s * 1e3,
        flops / run.sim.time_s.max(1e-30) / 1e9,
        run.sim.sm_efficiency,
        run.sim.achieved_occupancy,
        run.sim.l2_hit_rate,
        run.sim.atomic_ops,
        run.y.fro_norm()
    );
    if let Some(dir) = &profile_dir {
        let profile = run
            .profile
            .as_ref()
            .ok_or("profiling context dropped the per-block profile")?;
        // Per-output-row atomic charges ride along with the counters.
        let mut counters = ctx.registry.snapshot_json();
        counters["atomic_rows"] = serde_json::to_value(&profile.atomic_rows);
        let trace = gpu_sim::chrome_trace(&run.sim, profile);
        let rows = [run.sim.metric_row()];
        write_profile(
            dir,
            ctx,
            trace,
            "nvprof metrics (simulated)",
            &rows,
            counters,
        )?;
        println!(
            "profile: {} (trace.json, nvprof_table.txt, counters.json, histograms.txt)",
            dir.display()
        );
    }
    if let Some(path) = &events_path {
        ctx.telemetry.flush();
        println!("events: {}", path.display());
    }
    if let (Some(rec), Some(path)) = (&memtrace, &memtrace_path) {
        rec.write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "mem trace: {} ({} launches, every {} accesses)",
            path.display(),
            rec.len(),
            rec.sample_every()
        );
    }
    Ok(())
}

/// Runs `f`, returning its result and the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Writes a simulated run's profile artifacts into `dir`: a
/// Perfetto-openable Chrome trace, the nvprof-style table of `rows`, the
/// registry counters in `counters`, and the registry's histograms.
fn write_profile(
    dir: &Path,
    ctx: &GpuContext,
    trace: simprof::ChromeTrace,
    title: &str,
    rows: &[simprof::MetricRow],
    counters: serde_json::Value,
) -> Result<()> {
    let io_err = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io_err)?;
    trace.write_to(&dir.join("trace.json")).map_err(io_err)?;
    let table = simprof::nvprof_table(title, rows);
    std::fs::write(dir.join("nvprof_table.txt"), table).map_err(io_err)?;
    let counters =
        serde_json::to_string_pretty(&counters).map_err(|e| format!("counters.json: {e}"))?;
    std::fs::write(dir.join("counters.json"), counters).map_err(io_err)?;
    let hists = ctx.registry.histograms();
    let hists = simprof::histogram_table("distribution metrics (simulated)", &hists);
    std::fs::write(dir.join("histograms.txt"), hists).map_err(io_err)
}

/// `sptk bench plan-replay` — the tracked launch-capture benchmark:
/// CPD-ALS with per-iteration kernel emission vs. capture-once/replay.
fn cmd_bench_plan_replay(a: &Args) -> Result<()> {
    let defaults = bench::plan_replay::PlanReplayConfig::default();
    let cfg = bench::plan_replay::PlanReplayConfig {
        datasets: a.list("--datasets").unwrap_or(defaults.datasets),
        nnz: a.get("--nnz").unwrap_or(defaults.nnz),
        rank: a.get("--rank").unwrap_or(defaults.rank),
        iters: a.get("--iters").unwrap_or(defaults.iters),
        seed: a.get("--seed").unwrap_or(defaults.seed),
    };
    let min_speedup = a.get("--min-speedup").unwrap_or(0.0);
    let out = a.raw("--out").unwrap_or("BENCH_plan_replay.json");

    let doc = bench::plan_replay::run(&cfg)?;
    for r in doc["datasets"].as_array().into_iter().flatten() {
        println!(
            "{}: emit-every-iter {:.3}s, plan build {:.3}s, replay {:.3}s -> {:.2}x \
             (fits match: {})",
            r["dataset"].as_str().unwrap_or("?"),
            r["emit_every_iter_s"].as_f64().unwrap_or(0.0),
            r["plan_build_s"].as_f64().unwrap_or(0.0),
            r["replay_s"].as_f64().unwrap_or(0.0),
            r["speedup"].as_f64().unwrap_or(0.0),
            r["fits_match"],
        );
        println!(
            "  out-of-core @ {} B (footprint {} B): {:.3}s ({:.2}x of replay), \
             {} tiled launches / {} tiles, high water {} B (fits match: {})",
            r["mem_capacity_bytes"],
            r["footprint_bytes"],
            r["ooc_replay_s"].as_f64().unwrap_or(0.0),
            r["ooc_overhead"].as_f64().unwrap_or(0.0),
            r["ooc_tiled_launches"],
            r["ooc_tiles"],
            r["mem_high_water_bytes"],
            r["ooc_fits_match"],
        );
    }
    write_report(out, serde_json::to_string_pretty(&doc))?;
    if !doc["all_fits_match"].as_bool().unwrap_or(false) {
        return Err("plan replay diverged from per-iteration emission".into());
    }
    if !doc["all_ooc_fits_match"].as_bool().unwrap_or(false) {
        return Err("out-of-core tiled replay diverged from in-core replay".into());
    }
    let measured = doc["min_speedup"].as_f64().unwrap_or(0.0);
    if measured < min_speedup {
        return Err(format!(
            "speedup {measured:.2}x below --min-speedup {min_speedup}"
        ));
    }
    Ok(())
}

/// `sptk bench ingest` — the tracked streaming-ingestion benchmark: the
/// full bounded-memory pipeline timed end to end, host peak RSS recorded
/// against the analytic resident-pipeline floor.
fn cmd_bench_ingest(a: &Args) -> Result<()> {
    let defaults = bench::ingest::IngestConfig::default();
    let cfg = bench::ingest::IngestConfig {
        dataset: a.raw("--dataset").map_or(defaults.dataset, str::to_string),
        nnz: a.get("--nnz").unwrap_or(defaults.nnz),
        rank: a.get("--rank").unwrap_or(defaults.rank),
        iters: a.get("--iters").unwrap_or(defaults.iters),
        devices: a.get("--devices").unwrap_or(defaults.devices),
        chunk_nnz: a.get("--chunk-nnz").unwrap_or(defaults.chunk_nnz),
        seed: a.get("--seed").unwrap_or(defaults.seed),
        compare_incore: a.has("--compare-incore"),
        scratch: a.get::<PathBuf>("--scratch"),
    };
    let out = a.raw("--out").unwrap_or("BENCH_ingest.json");

    let doc = bench::ingest::run(&cfg)?;
    let r = &doc["report"];
    println!(
        "{} ({} nnz -> {} after sum-fold, {} B .tns): generate {:.2}s, \
         ingest {:.2}s, capture+als {:.2}s",
        r["dataset"].as_str().unwrap_or("?"),
        r["generated_nnz"],
        r["ingested_nnz"],
        r["tns_bytes"],
        r["generate_s"].as_f64().unwrap_or(0.0),
        r["ingest_s"].as_f64().unwrap_or(0.0),
        r["cpd_s"].as_f64().unwrap_or(0.0),
    );
    println!(
        "  peak rss {} B vs in-core floor {} B ({:.2}x) -> gate {} \
         (plan store {} B, fit {:.6})",
        r["peak_rss_bytes"],
        r["incore_baseline_bytes"],
        r["rss_vs_incore"].as_f64().unwrap_or(0.0),
        doc["rss_gate"].as_str().unwrap_or("?"),
        r["plan_store_bytes"],
        r["final_fit"].as_f64().unwrap_or(0.0),
    );
    write_report(out, serde_json::to_string_pretty(&doc))?;
    if doc["rss_gate"] == "fail" {
        return Err("streaming peak RSS did not beat the in-core pipeline floor".into());
    }
    Ok(())
}

/// `sptk bench replay-fleet` — the rank-specialization benchmark: pure
/// replay sweeps (generic vs. const-generic value phase) over the whole
/// stand-in fleet, with bit-equality checks and an optional regression
/// gate against a committed baseline JSON.
fn cmd_bench_replay_fleet(a: &Args) -> Result<()> {
    let defaults = bench::replay_fleet::ReplayFleetConfig::default();
    let cfg = bench::replay_fleet::ReplayFleetConfig {
        datasets: a.list("--datasets").unwrap_or(defaults.datasets),
        nnz: a.get("--nnz").unwrap_or(defaults.nnz),
        rank: a.get("--rank").unwrap_or(defaults.rank),
        iters: a.get("--iters").unwrap_or(defaults.iters),
        cpd_iters: a.get("--cpd-iters").unwrap_or(defaults.cpd_iters),
        seed: a.get("--seed").unwrap_or(defaults.seed),
    };
    let out = a.raw("--out").unwrap_or("BENCH_replay_fleet.json");
    let tolerance = a.get("--tolerance").unwrap_or(0.10);

    let doc = bench::replay_fleet::run(&cfg)?;
    for r in doc["datasets"].as_array().into_iter().flatten() {
        println!(
            "{} (order {}, {} nnz): build {:.3}s, generic {:.3}s, {} {:.3}s -> {:.2}x \
             (y match: {}, fits match: {})",
            r["dataset"].as_str().unwrap_or("?"),
            r["order"],
            r["nnz"],
            r["plan_build_s"].as_f64().unwrap_or(0.0),
            r["generic_replay_s"].as_f64().unwrap_or(0.0),
            r["dispatch"].as_str().unwrap_or("?"),
            r["specialized_replay_s"].as_f64().unwrap_or(0.0),
            r["speedup"].as_f64().unwrap_or(0.0),
            r["y_match"],
            r["fits_match"],
        );
    }
    write_report(out, serde_json::to_string_pretty(&doc))?;
    if !doc["all_fits_match"].as_bool().unwrap_or(false) {
        return Err("specialized replay diverged from the generic value phase".into());
    }
    if let Some(path) = a.raw("--baseline") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let base: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let violations = bench::replay_fleet::gate(&doc, &base, tolerance);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("bench-gate: {v}");
            }
            return Err(format!(
                "replay-fleet regressed against {path} ({} violation(s))",
                violations.len()
            ));
        }
        println!(
            "bench-gate: all {} baseline dataset(s) within {:.0}% of baseline speedup",
            base["datasets"].as_array().map_or(0, Vec::len),
            tolerance * 100.0
        );
    }
    Ok(())
}

/// `sptk calibrate` — the paper-calibration harness: all six simulated
/// formats over the stand-in fleet, per-format latency distributions,
/// the full-rate memory-trace replay check, and the encoded Table II /
/// Figs. 5-8 ordering expectations. Fails (non-zero exit) when any
/// ordering breaks, so CI catches model drift.
fn cmd_calibrate(a: &Args) -> Result<()> {
    let defaults = bench::fleet::FleetConfig::default();
    let cfg = bench::fleet::FleetConfig {
        datasets: a.list("--datasets").unwrap_or(defaults.datasets),
        nnz: a.get("--nnz").unwrap_or(defaults.nnz),
        rank: a.get("--rank").unwrap_or(defaults.rank),
        seed: a.get("--seed").unwrap_or(defaults.seed),
    };
    let out = a.raw("--out").unwrap_or("BENCH_fleet.json");
    let report = bench::fleet::run(&cfg)?;
    println!(
        "{:<10} {:<6} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "dataset", "format", "time_us", "gflops", "sm_eff", "occ", "l2_hit"
    );
    for c in &report.cells {
        println!(
            "{:<10} {:<6} {:>10.1} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            c.dataset,
            c.format,
            c.mean_time_us,
            c.gflops,
            c.sm_efficiency,
            c.occupancy,
            c.l2_hit_rate
        );
    }
    for (format, dataset) in &report.skipped {
        println!("{dataset:<10} {format:<6} skipped (third-order kernel)");
    }
    println!();
    print!(
        "{}",
        simprof::histogram_table(
            "per-format kernel latency distributions (us, one sample per mode per dataset)",
            &report.latency_histograms,
        )
    );
    println!();
    for v in &report.verdicts {
        println!(
            "{} {:<32} [{}] {}",
            if v.pass { "PASS" } else { "FAIL" },
            v.id,
            v.metric,
            v.detail
        );
    }
    let t = &report.trace_check;
    println!(
        "{} mem-trace replay: {} ({} accesses) live L2 {:.2}% vs replayed {:.2}%",
        if t.exact { "PASS" } else { "FAIL" },
        t.kernel,
        t.accesses,
        t.live_hit_rate,
        t.replay_hit_rate
    );
    write_report(out, serde_json::to_string_pretty(&report.to_json(&cfg)))?;
    if !report.all_pass() {
        return Err("calibration failed: a paper ordering does not hold".into());
    }
    Ok(())
}

/// `sptk trace-replay <file>` — feeds a recorded memory trace back
/// through a cold cache and re-derives the L2 statistics from the trace
/// alone. Full-rate traces (`--trace-sample 1`) must reproduce the live
/// hit/miss counters exactly; sampled traces report the replayed rate.
fn cmd_trace_replay(a: &Args) -> Result<()> {
    let path = a.pos(0);
    let launches = gpu_sim::memtrace::read_jsonl(Path::new(path))?;
    if launches.is_empty() {
        return Err(format!("{path}: no launches in trace"));
    }
    let mut failed = false;
    for (i, trace) in launches.iter().enumerate() {
        let check = gpu_sim::replay_launch(trace);
        let ok = !check.exact
            || (check.verdict_mismatches == 0
                && check.set_mismatches == 0
                && check.hits == trace.live_hits
                && check.misses == trace.live_misses);
        failed |= !ok;
        println!(
            "launch {i} [{}]: {} accesses (every {}), live L2 {:.2}% -> replayed {:.2}% \
             ({} verdict / {} set mismatches){}{}",
            trace.kernel,
            trace.accesses.len(),
            trace.sample_every,
            trace.live_hit_rate(),
            check.hit_rate,
            check.verdict_mismatches,
            check.set_mismatches,
            if check.exact { ", exact" } else { ", sampled" },
            if ok { "" } else { " MISMATCH" },
        );
    }
    if failed {
        return Err("trace replay diverged from the live simulation".into());
    }
    Ok(())
}

/// `sptk serve-sim`: a deterministic multi-tenant service simulation —
/// seeded synthetic workload, shared plan cache, admission control,
/// deadlines with a degrading retry ladder, device-loss recovery — with
/// a byte-reproducible report.
fn cmd_serve_sim(a: &Args) -> Result<()> {
    let seed = a.get("--seed").unwrap_or(0x5EED);
    let tenants = a.get("--tenants").unwrap_or(3);
    let jobs = a.get("--jobs").unwrap_or(24);
    let rank = a.get("--rank").unwrap_or(8);
    let flags = DeviceFlags::new(a)?;
    let devices = flags.devices.unwrap_or(4);
    let events_path = a.get::<PathBuf>("--events");
    let profile_dir = a.get::<PathBuf>("--profile");

    let wl = Workload::generate(&WorkloadConfig {
        seed,
        tenants,
        jobs,
        nnz: a.get("--nnz").unwrap_or(4000),
        rank,
        arrival_mean_us: a.get("--arrival-us").unwrap_or(200.0),
        deadline_us: a.get("--deadline-us").unwrap_or(500_000.0),
        timeout_us: a.get("--timeout-us").unwrap_or(100_000.0),
        max_devices: devices,
        // Any percentage from 100 up makes every job a CPD.
        cpd_fraction_pct: a
            .get("--cpd-frac")
            .map_or(25, |pct: u64| pct.min(100) as u32),
    });

    let mut ctx = GpuContext::default().with_profiling();
    if let Some(path) = &events_path {
        let tel =
            simprof::Telemetry::to_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ctx = ctx.with_events(Arc::new(tel));
    }
    if let Some(plan) = &flags.faults {
        ctx = ctx.with_faults(plan.clone());
    }

    // Fractional --mem-capacity (e.g. 0.7x) resolves against the worst
    // single-plan footprint the catalog implies.
    let capacity = match &flags.mem_capacity {
        None => u64::MAX,
        Some(mc) => mc.resolve(worst_catalog_footprint(&ctx, &wl, rank)?),
    };

    let mut service = Service::new(
        ServiceConfig {
            devices,
            interconnect: flags.interconnect,
            capacity_per_device: capacity,
            queue_depth: a.get("--queue-depth").unwrap_or(8),
            backoff_base_us: a.get("--backoff-us").unwrap_or(50.0),
            cpu_slowdown: 25.0,
            checkpoint_dir: a.get::<PathBuf>("--checkpoint-dir"),
        },
        ctx,
    );
    for (name, t) in &wl.tensors {
        service.register(name, t.clone());
    }
    let report = service.run(&wl.jobs);

    let rec = &report.record;
    println!(
        "serve-sim: {} devices ({}), queue {} deep, {} tenants, {} jobs",
        report.devices, report.interconnect, report.queue_depth, tenants, jobs
    );
    println!(
        "outcomes: {} completed, {} rejected, {} shed | {} retries, {} device losses, \
         {} deadline misses",
        rec.completed, rec.rejected, rec.shed, rec.retries, rec.device_losses, rec.deadline_misses
    );
    println!(
        "plan cache: {} hits, {} misses ({} distinct plans)",
        rec.plan_cache_hits,
        rec.plan_cache_misses,
        service.cache().len()
    );
    let reg = &service.ctx().registry;
    if reg.counter("serve.checkpoint.writes") > 0 || reg.counter("serve.checkpoint.crashes") > 0 {
        println!(
            "checkpoints: {} writes, {} crashes, {} resumes, {} torn skipped",
            reg.counter("serve.checkpoint.writes"),
            reg.counter("serve.checkpoint.crashes"),
            reg.counter("serve.checkpoint.resumes"),
            reg.counter("serve.checkpoint.torn_skipped")
        );
    }
    for t in &rec.per_tenant {
        println!(
            "tenant {}: {}/{} completed, {} shed, {} rejected | latency p50 {} us, \
             p90 {} us, p99 {} us",
            t.tenant,
            t.completed,
            t.submitted,
            t.shed,
            t.rejected,
            t.latency.p50,
            t.latency.p90,
            t.latency.p99
        );
    }

    if a.has("--verify") {
        let n = report.verify(&service, &wl.jobs, 1e-9)?;
        println!("verify: {n} completed jobs match standalone execution within 1e-9");
    }
    let expect_shed = a.get("--expect-shed").unwrap_or(0);
    if rec.shed < expect_shed {
        return Err(format!(
            "expected at least {expect_shed} shed jobs, saw {}",
            rec.shed
        ));
    }
    let expect_loss = a.get("--expect-device-loss").unwrap_or(0);
    if rec.device_losses < expect_loss {
        return Err(format!(
            "expected at least {expect_loss} device losses, saw {}",
            rec.device_losses
        ));
    }
    if let Some(out) = a.raw("--out") {
        write_report(out, report.to_json_string())?;
    }
    if let Some(dir) = &profile_dir {
        let io_err = |e: std::io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let mut manifest = simprof::RunManifest::new("serve-sim", "synthetic", rank, 0, 0.0, seed);
        manifest.service = rec.clone();
        manifest.events_path = events_path.as_ref().map(|p| p.display().to_string());
        manifest.histograms = service.ctx().registry.histograms();
        manifest
            .write_to(&dir.join("manifest.json"))
            .map_err(io_err)?;
        std::fs::write(
            dir.join("histograms.txt"),
            simprof::histogram_table(
                "service distribution metrics (virtual us)",
                &manifest.histograms,
            ),
        )
        .map_err(io_err)?;
        println!("profile: {} (manifest.json, histograms.txt)", dir.display());
    }
    Ok(())
}

/// The largest single-plan footprint (bytes) any catalog tensor implies
/// — what fractional `--mem-capacity` values resolve against.
fn worst_catalog_footprint(ctx: &GpuContext, wl: &Workload, rank: usize) -> Result<u64> {
    let mut worst = 0u64;
    for (name, t) in &wl.tensors {
        let format =
            gpu::AnyFormat::build(gpu::KernelKind::Hbcsf, t, 0, &gpu::BuildOptions::default())
                .map_err(|e| format!("{name}: {e}"))?;
        let plan = format.capture(ctx, rank);
        worst = worst.max(plan.footprint().total_bytes());
    }
    Ok(worst)
}

/// `sptk chaos` — the seeded composed-fault chaos harness: generated
/// schedules mixing every fault class (interconnect and mid-write
/// crashes always included) drive full service workloads twice each,
/// plus a crash-restart cycle against durable checkpoints; exits
/// nonzero on any invariant violation or coverage gap.
fn cmd_chaos(a: &Args) -> Result<()> {
    let defaults = chaos::ChaosConfig::default();
    let cfg = chaos::ChaosConfig {
        seed: a.get("--seed").unwrap_or(defaults.seed),
        schedules: a.get("--schedules").unwrap_or(defaults.schedules),
        jobs: a.get("--jobs").unwrap_or(defaults.jobs),
        devices: a.get("--devices").unwrap_or(defaults.devices),
        verify_tol: defaults.verify_tol,
    };
    let dir = a
        .get::<PathBuf>("--dir")
        .unwrap_or_else(|| std::env::temp_dir().join("sptk-chaos"));

    let report = chaos::run_chaos(&cfg, &dir).map_err(|e| e.to_string())?;

    println!(
        "chaos: seed {:#x}, {} schedules x 2 passes, {} jobs each over {} devices",
        cfg.seed, cfg.schedules, cfg.jobs, cfg.devices
    );
    for s in &report.schedules {
        println!("{} [{}]", s.name, s.spec);
        println!(
            "  jobs: {} completed, {} rejected, {} shed of {} | {} retries, {} device losses",
            s.completed, s.rejected, s.shed, s.submitted, s.retries, s.device_losses
        );
        println!(
            "  faults: {} link degrades, {} link losses | checkpoints: {} writes, \
             {} crashes, {} resumes, {} torn skipped",
            s.link_degrades,
            s.link_losses,
            s.checkpoint_writes,
            s.checkpoint_crashes,
            s.checkpoint_resumes,
            s.torn_skipped
        );
        println!(
            "  invariants: {}/{} verified, deterministic {}, ledger balanced {}",
            s.verified, s.completed, s.deterministic, s.ledger_balanced
        );
    }
    let c = &report.crash_cycle;
    println!(
        "crash cycle: {} restarts, {} crashes, {} torn skipped, {} resumes",
        c.restarts, c.crashes, c.torn_skipped, c.resumes
    );
    println!(
        "  fit restarted {:.15e} vs uninterrupted {:.15e} (delta {:.3e}, within 1e-9: {})",
        c.fit_restarted, c.fit_uninterrupted, c.fit_delta, c.within_tol
    );

    if let Some(out) = a.raw("--out") {
        write_report(out, report.to_json_string())?;
    }

    for v in &report.violations {
        eprintln!("violation: {v}");
    }
    for g in &report.coverage_gaps {
        eprintln!("coverage gap: {g}");
    }
    if !report.ok_with_coverage() {
        return Err(format!(
            "chaos run failed: {} invariant violations, {} coverage gaps",
            report.violations.len(),
            report.coverage_gaps.len()
        ));
    }
    println!(
        "all invariants green: typed terminal states, standalone verification within 1e-9, \
         balanced memory ledger, byte-identical same-seed passes"
    );
    Ok(())
}

/// A tensor entry that rules out non-negative CPD.
#[derive(Debug, PartialEq)]
struct NegativeEntry {
    /// 0-based coordinates of the first offending nonzero.
    coords: Vec<u32>,
    value: f32,
}

impl std::fmt::Display for NegativeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--nonneg needs a non-negative tensor, but the entry at {:?} is {}",
            self.coords, self.value
        )
    }
}

/// Finds the first negative (or NaN) value, which the multiplicative
/// updates of non-negative CPD cannot accept.
fn check_nonneg(t: &CooTensor) -> std::result::Result<(), NegativeEntry> {
    match t.values().iter().position(|&v| v.is_nan() || v < 0.0) {
        None => Ok(()),
        Some(z) => Err(NegativeEntry {
            coords: t.coords_of(z),
            value: t.values()[z],
        }),
    }
}

/// The `--expect-fit` gate: a `NaN` fit fails it, like any fit below
/// `min`.
fn fit_meets(fit: f64, min: f64) -> bool {
    fit >= min
}

fn cmd_cpd(a: &Args) -> Result<()> {
    let path = a.pos(0);
    let t = load(path)?;
    let rank = a.get("--rank").unwrap_or(8);
    let iters = a.get("--iters").unwrap_or(15);
    let nonneg = a.has("--nonneg");
    let profile_dir = a.get::<PathBuf>("--profile");
    let flags = DeviceFlags::new(a)?;
    let expect_tiled = a.has("--expect-tiled");
    let checkpoint_dir = a.get::<PathBuf>("--checkpoint-dir");
    let resume = a.has("--resume");
    let halt_on_crash = a.has("--halt-on-crash");
    if checkpoint_dir.is_none() && (resume || halt_on_crash) {
        return Err("--resume/--halt-on-crash need --checkpoint-dir".into());
    }
    let adaptive = flags.adaptive();
    let devices = flags.devices;
    let standard_only = first_set(&[
        (flags.faults.is_some(), "--faults"),
        (adaptive, "--mem-capacity/--mem-faults"),
        (devices.is_some(), "--devices"),
        (checkpoint_dir.is_some(), "--checkpoint-dir"),
    ]);
    if let (Some(f), true) = (standard_only, nonneg) {
        return Err(format!(
            "{f} drives the standard ALS; combine it without --nonneg"
        ));
    }
    if expect_tiled && !adaptive {
        return Err("--expect-tiled needs --mem-capacity or --mem-faults".into());
    }
    if expect_tiled && devices.is_some() {
        return Err("--expect-tiled reads the single-device ladder; \
             with --devices check the per-device grid lines instead"
            .into());
    }
    if checkpoint_dir.is_some() && (adaptive || devices.is_some()) {
        return Err(
            "--checkpoint-dir drives the durable resilient standard ALS; combine it \
             without --devices, --mem-capacity, or --mem-faults"
                .into(),
        );
    }
    if nonneg {
        check_nonneg(&t).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut ctx = GpuContext::default();
    if profile_dir.is_some() {
        ctx = ctx.with_profiling();
    }
    if let Some(path) = a.get::<PathBuf>("--events") {
        let tel =
            simprof::Telemetry::to_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        ctx = ctx.with_events(Arc::new(tel));
    }
    let opts = CpdOptions {
        rank,
        max_iters: iters,
        tol: 1e-6,
        seed: 42,
    };
    let mut manifest = simprof::RunManifest::new(
        if nonneg { "hbcsf-nonneg" } else { "hbcsf" },
        path,
        opts.rank,
        opts.max_iters,
        opts.tol,
        opts.seed,
    );
    // Capture the per-mode HB-CSF launches once (format build + plan
    // emission, fanned across modes); every ALS iteration replays them.
    let plans = gpu::ModePlans::build_hbcsf(&ctx, &t, rank, BcsfOptions::default());
    for (m, secs) in plans.build_seconds.iter().enumerate() {
        manifest.push_phase(&format!("build hbcsf mode {}", m + 1), *secs);
    }
    // Cap the simulated device *after* capture: footprints live in the
    // plans, and `0.7x`-style capacities resolve against the worst mode.
    let worst_footprint = (0..t.order())
        .map(|m| plans.plan(m).footprint().total_bytes())
        .max()
        .unwrap_or(0);
    let (exec, attach) = flags.executor(ctx, worst_footprint);
    let ctx = exec.ctx();
    // One backend for every driver: each (iteration, mode) MTTKRP replays
    // its captured plan down the executor's ladder. Launch records
    // (memory ladder, grid, ABFT) are absorbed into `launches`; the last
    // profiled run of each mode is kept so the profile artifacts show a
    // representative launch per mode.
    let mut launches = simprof::RunManifest::new("launches", path, rank, iters, 0.0, 0);
    let mut last_runs: Vec<Option<gpu::GpuRun>> = vec![None; t.order()];
    let backend = |factors: &[dense::Matrix], mode: usize| {
        let largs = gpu::LaunchArgs::new(factors);
        let largs = if attach { largs.with_tensor(&t) } else { largs };
        match exec.execute(plans.plan(mode), &largs) {
            Ok(e) => {
                e.absorb_into(&mut launches);
                let run = e.run;
                if run.profile.is_none() {
                    return run.y;
                }
                let y = run.y.clone();
                last_runs[mode] = Some(run);
                y
            }
            // A launch refusal (factor shapes against the captured plan)
            // degrades to the CPU reference instead of panicking.
            Err(_) => mttkrp::reference::mttkrp(&t, factors, mode),
        }
    };
    let start = Instant::now();
    let res = if let Some(dir) = &checkpoint_dir {
        // Durable driver: a versioned, checksummed checkpoint per
        // iteration, written atomically (temp + rename); --resume scans
        // back past torn files to the last valid one and warm-restarts.
        let dopts = DurableOptions {
            dir: dir.clone(),
            label: "cpd".to_string(),
            resume,
            halt_on_crash,
        };
        let (res, _stats, rec) = cpd_als_resilient_durable(
            &t,
            &opts,
            &ResilienceOptions::default(),
            &dopts,
            backend,
            Some(&mut manifest),
            Some(ctx),
        )
        .map_err(|e| format!("checkpoint store: {e}"))?;
        println!(
            "checkpoints: {} writes ({} B), {} crashes, {} resumes, {} torn skipped{}",
            rec.writes,
            rec.bytes_written,
            rec.crashes,
            rec.resumes,
            rec.torn_skipped,
            if rec.resumes > 0 {
                format!(", resumed at iteration {}", rec.resumed_iteration)
            } else {
                String::new()
            }
        );
        if rec.halted {
            return Err(format!(
                "injected crash halted the run after {} durable writes; \
                 rerun with --resume to warm-restart from the last valid checkpoint",
                rec.writes
            ));
        }
        res
    } else if attach {
        // A ladder that can degrade (faults, limited memory, sharding)
        // runs under the self-healing driver.
        let (res, _stats) = cpd_als_resilient(
            &t,
            &opts,
            &ResilienceOptions::default(),
            backend,
            Some(&mut manifest),
            Some(ctx),
        );
        res
    } else {
        // With an event stream the profiled path still runs so iteration
        // events carry the simulated clock; the manifest is simply not
        // written unless --profile asked for it.
        match (nonneg, profile_dir.is_some() || ctx.telemetry.enabled()) {
            (false, false) => cpd_als(&t, &opts, backend),
            (true, false) => cpd_als_nonneg(&t, &opts, backend),
            (false, true) => cpd_als_profiled(&t, &opts, backend, &mut manifest, Some(ctx)),
            (true, true) => cpd_als_nonneg_profiled(&t, &opts, backend, &mut manifest, Some(ctx)),
        }
    };
    manifest.resilience.merge(&launches.resilience);
    manifest.memory.merge(&launches.memory);
    manifest.grid.merge(&launches.grid);
    println!(
        "{} CPD rank {rank}: fit {:.4} after {} iterations ({:.2}s host)",
        if nonneg { "non-negative" } else { "standard" },
        res.final_fit(),
        res.iterations,
        start.elapsed().as_secs_f64()
    );
    for (i, fit) in res.fits.iter().enumerate() {
        println!("  iter {:>2}: fit {fit:.5}", i + 1);
    }
    if flags.faults.is_some() {
        let r = &manifest.resilience;
        println!(
            "resilience: {} faults injected, {} rows detected, {} kernel retries, \
             {} rows degraded to CPU, {} rollbacks, {} nan resets, {} tikhonov fallbacks, \
             {} checkpoints",
            r.faults_injected,
            r.rows_detected,
            r.kernel_retries,
            r.degraded_rows,
            r.rollbacks,
            r.nan_resets,
            r.tikhonov_fallbacks,
            r.checkpoints
        );
    }
    if adaptive && devices.is_none() {
        let mem = &launches.memory;
        println!(
            "memory: capacity {}, worst footprint {} B, high water {} B",
            if ctx.memory.is_unlimited() {
                "unlimited".to_string()
            } else {
                format!("{} B", ctx.memory.capacity())
            },
            mem.footprint_bytes,
            mem.high_water_bytes
        );
        println!(
            "  launches: {} in-core, {} tiled ({} tiles), {} ladder shrinks, \
             {} cpu fallbacks, {} oom events",
            mem.in_core_launches,
            mem.tiled_launches,
            mem.tiles_run,
            mem.ladder_shrinks,
            mem.cpu_fallbacks,
            mem.oom_events
        );
        if expect_tiled && mem.tiled_launches == 0 {
            return Err(format!(
                "--expect-tiled: no launch took the tiled path \
                 ({} in-core, {} cpu fallbacks)",
                mem.in_core_launches, mem.cpu_fallbacks
            ));
        }
    }
    if devices.is_some() {
        let g = &launches.grid;
        println!(
            "grid: {} devices over {}, {} sharded launches, compute {:.3} ms + \
             allreduce {:.3} ms ({} B on the wire)",
            g.devices,
            g.interconnect,
            g.launches,
            g.compute_seconds * 1e3,
            g.allreduce_seconds * 1e3,
            g.allreduce_bytes
        );
        for d in &g.per_device {
            println!(
                "  device {}: {} launches, {} tiles, {} oom events, high water {} B",
                d.device, d.launches, d.tiles, d.oom_events, d.high_water_bytes
            );
        }
    }
    // Full precision for bit-exactness comparisons across runs (CI diffs
    // the constrained run against the unconstrained one).
    println!("final_fit_exact {:.15e}", res.final_fit());
    if let Some(min) = a.get("--expect-fit") {
        if !fit_meets(res.final_fit(), min) {
            return Err(format!(
                "final fit {:.4} below --expect-fit {min}",
                res.final_fit()
            ));
        }
        println!("fit check: {:.4} >= {min} ok", res.final_fit());
    }
    manifest.events_path = ctx.telemetry.events_path().map(String::from);
    manifest.histograms = ctx.registry.histograms();
    if let Some(dir) = &profile_dir {
        let io_err = |e: std::io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io_err)?;
        manifest
            .write_to(&dir.join("manifest.json"))
            .map_err(io_err)?;
        // One Chrome-trace process and one table row per mode's final MTTKRP.
        let mut trace = simprof::ChromeTrace::new();
        let mut rows = Vec::new();
        for (mode, run) in last_runs.iter().enumerate() {
            let Some(run) = run else { continue };
            let profile = run
                .profile
                .as_ref()
                .ok_or_else(|| format!("mode {} run lost its per-block profile", mode + 1))?;
            gpu_sim::append_chrome_trace(&mut trace, mode as u64, &run.sim, profile);
            let mut row = run.sim.metric_row();
            row.kernel = format!("{} mode {}", row.kernel, mode + 1);
            rows.push(row);
        }
        let title = "nvprof metrics per mode (simulated, final iteration)";
        write_profile(dir, ctx, trace, title, &rows, ctx.registry.snapshot_json())?;
        println!(
            "profile: {} (manifest.json, trace.json, nvprof_table.txt, counters.json, \
             histograms.txt)",
            dir.display()
        );
    }
    if let Some(path) = ctx.telemetry.events_path() {
        ctx.telemetry.flush();
        println!("events: {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::CliError;
    use proptest::prelude::*;

    /// A scratch directory unique to this test process and `tag`.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sptk_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(list: &[&str]) -> std::result::Result<Args, CliError> {
        Args::parse(COMMANDS, &args(list))
    }

    fn parsed(list: &[&str]) -> Args {
        parse(list).unwrap_or_else(|e| panic!("sptk {list:?}: {e}"))
    }

    /// `--mem-capacity` as `sptk cpd` reads it from `flags`.
    fn parse_mem_capacity(flags: &[String]) -> Result<Option<MemCapacity>> {
        let argv = [args(&["cpd", "t.spt"]), flags.to_vec()].concat();
        Args::parse(COMMANDS, &argv)
            .map(|a| a.get("--mem-capacity"))
            .map_err(|e| e.to_string())
    }

    #[test]
    fn expect_fit_rejects_a_nan_fit() {
        assert!(fit_meets(0.5, 0.2));
        assert!(fit_meets(0.2, 0.2));
        assert!(!fit_meets(0.1, 0.2));
        assert!(!fit_meets(f64::NAN, 0.2));
    }

    #[test]
    fn mem_capacity_takes_bytes_or_a_fraction_with_one_error_text() {
        let parse = |v: &str| parse_mem_capacity(&args(&["--mem-capacity", v]));
        assert!(matches!(parse("64m"), Ok(Some(MemCapacity::Bytes(b))) if b == 64 << 20));
        assert!(matches!(parse(" 2G "), Ok(Some(MemCapacity::Bytes(b))) if b == 2 << 30));
        assert!(matches!(
            parse("0.7X"),
            Ok(Some(MemCapacity::FootprintFraction(f))) if f == 0.7
        ));
        for bad in ["-3x", "x", "abc", "0", "12q", "-1m"] {
            assert_eq!(
                parse(bad).err(),
                Some(format!(
                    "--mem-capacity wants bytes (with k/m/g) or a fraction like 0.7x, got '{bad}'"
                ))
            );
        }
        assert!(matches!(parse_mem_capacity(&args(&[])), Ok(None)));
    }

    #[test]
    fn device_flags_pick_the_rung_and_whether_to_attach_the_tensor() {
        let build = |list: &[&str]| {
            let flags = DeviceFlags::new(&parsed(&[&["cpd", "t.spt"], list].concat())).unwrap();
            flags.executor(GpuContext::default(), 1000)
        };
        let (plain, attach) = build(&[]);
        assert!(!attach, "the plain rung keeps its profile");
        assert!(plain.grid().is_none() && plain.ctx().memory.is_unlimited());

        let (capped, attach) = build(&["--mem-capacity", "0.7x"]);
        assert!(attach && capped.grid().is_none());
        assert_eq!(capped.ctx().memory.capacity(), 700);

        let (grid, attach) = build(&["--devices", "4", "--mem-capacity", "0.7x"]);
        let spec = grid.grid().unwrap();
        assert!(attach && grid.ctx().memory.is_unlimited());
        assert_eq!((spec.devices, spec.capacity_per_device), (4, 700));

        let (faulted, attach) = build(&["--faults", "bitflip:1e-3"]);
        assert!(attach && faulted.ctx().fault_plan().is_some());
    }

    #[test]
    fn check_nonneg_names_the_first_negative_entry() {
        let mut t = sptensor::synth::uniform_random(&[5, 6, 7], 40, 3);
        assert_eq!(check_nonneg(&t), Ok(()));
        t.values_mut()[7] = -0.5;
        t.values_mut()[9] = -2.0;
        let err = check_nonneg(&t).unwrap_err();
        assert_eq!(err.coords, t.coords_of(7));
        assert_eq!(err.value, -0.5);
        t.values_mut()[2] = f32::NAN;
        assert_eq!(check_nonneg(&t).unwrap_err().coords, t.coords_of(2));
    }

    #[test]
    fn nonneg_cpd_rejects_a_negative_tensor_with_an_error() {
        let dir = scratch("neg");
        let path = dir.join("neg.tns");
        let mut t = sptensor::synth::uniform_random(&[5, 6, 7], 40, 3);
        t.values_mut()[0] = -1.0;
        save(&t, path.to_str().unwrap()).unwrap();
        let err = cmd_cpd(&parsed(&[
            "cpd",
            path.to_str().unwrap(),
            "--nonneg",
            "--iters",
            "2",
        ]))
        .expect_err("a negative tensor must be refused, not decomposed");
        assert!(err.contains("non-negative tensor"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nonneg_cpd_emits_one_iteration_event_per_iteration() {
        let dir = scratch("nonneg_events");
        let path = dir.join("pos.tns");
        let events = dir.join("ev.jsonl");
        let t = sptensor::synth::uniform_random(&[20, 24, 28], 600, 5);
        save(&t, path.to_str().unwrap()).unwrap();
        cmd_cpd(&parsed(&[
            "cpd",
            path.to_str().unwrap(),
            "--nonneg",
            "--rank",
            "4",
            "--iters",
            "3",
            "--events",
            events.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&events).unwrap();
        let iterations: Vec<u64> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|e| e["kind"] == "iteration")
            .map(|e| e["iteration"].as_u64().unwrap())
            .collect();
        assert_eq!(iterations, vec![0, 1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mttkrp_mode_0_is_a_usage_error_not_an_underflow() {
        let dir = scratch("mode0");
        let path = dir.join("t.spt");
        save(
            &sptensor::synth::uniform_random(&[5, 6, 7], 40, 3),
            path.to_str().unwrap(),
        )
        .unwrap();
        let path = path.to_str().unwrap();
        assert_eq!(
            parse(&["mttkrp", path, "--mode", "0"]).err(),
            Some(CliError::BadValue("--mode wants at least 1".into()))
        );
        cmd_mttkrp(&parsed(&["mttkrp", path, "--mode", "3", "--rank", "4"])).unwrap();
        let err = cmd_mttkrp(&parsed(&["mttkrp", path, "--mode", "4"])).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_0_is_a_usage_error() {
        for argv in [
            &["cpd", "t.spt"][..],
            &["ingest", "t.tns"],
            &["mttkrp", "t.spt"],
            &["serve-sim"],
        ] {
            assert_eq!(
                parse(&[argv, &["--rank", "0"]].concat()).err(),
                Some(CliError::BadValue("--rank wants at least 1".into())),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn malformed_command_lines_are_typed_usage_errors() {
        use CliError::*;
        let cases: &[(&[&str], CliError)] = &[
            (
                &["cpd", "t.spt", "--rnak", "4"],
                UnknownFlag("--rnak".into()),
            ),
            (
                &["mttkrp", "t.spt", "--kernal", "bcsf"],
                UnknownFlag("--kernal".into()),
            ),
            (&["cpd", "t.spt", "--rank"], MissingValue("--rank")),
            (
                &["cpd", "t.spt", "--profile", "--iters", "2"],
                MissingValue("--profile"),
            ),
            (
                &["cpd", "t.spt", "--rank", "4", "--rank", "16"],
                Repeated("--rank"),
            ),
            (
                &["cpd", "t.spt", "--nonneg", "--nonneg"],
                Repeated("--nonneg"),
            ),
            (
                &["cpd", "t.spt", "--rank", "four"],
                BadValue("--rank wants a count, got 'four'".into()),
            ),
            (
                &["cpd", "t.spt", "--expect-fit", "nan"],
                BadValue("--expect-fit wants a number, got 'nan'".into()),
            ),
            (
                &["ingest", "t.tns", "--policy", "max"],
                BadValue("--policy wants sum|keep|reject, got 'max'".into()),
            ),
            (
                &["mttkrp", "t.spt", "--trace-sample", "0"],
                BadValue("--trace-sample wants at least 1".into()),
            ),
            (
                &["cpd", "t.spt", "--devices", "0"],
                BadValue("--devices wants at least 1".into()),
            ),
            (&["cpd"], MissingPositional("<file>")),
            (&["gen", "darpa"], MissingPositional("<out>")),
            (&["cpd", "a.spt", "b.spt"], ExtraPositional("b.spt".into())),
            (
                &["info", "a.spt", "--rank", "4"],
                UnknownFlag("--rank".into()),
            ),
            (&["cdp", "t.spt"], UnknownCommand("cdp".into())),
            (&["bench"], UnknownCommand("bench".into())),
            (&[], UnknownCommand("".into())),
        ];
        for (argv, want) in cases {
            assert_eq!(parse(argv).err().as_ref(), Some(want), "{argv:?}");
        }
        for spec in ["garbage:0.1", "device-loss:1.5", "crash:nan"] {
            let err = parse(&["serve-sim", "--faults", spec]).err();
            assert!(
                matches!(&err, Some(BadValue(why)) if why.starts_with("--faults: ")),
                "{err:?}"
            );
        }
        let err = parse(&["cpd", "t.spt", "--interconnect", "bogus::x"]).err();
        assert!(
            matches!(&err, Some(BadValue(why)) if why.starts_with("--interconnect: ")),
            "{err:?}"
        );
        // Positionals and flags mix in any order; `--mem-faults none` adds no plan.
        let a = parsed(&[
            "cpd",
            "--rank",
            "4",
            "t.spt",
            "--faults",
            "bitflip:1e-3",
            "--mem-faults",
            "none",
        ]);
        assert_eq!((a.pos(0), a.get::<usize>("--rank")), ("t.spt", Some(4)));
        assert!(DeviceFlags::new(&a)
            .unwrap()
            .faults
            .is_some_and(|p| !p.has_mem_faults()));
    }

    #[test]
    fn tables_declare_each_flag_once_and_usage_lists_every_flag() {
        let usage = args::usage(COMMANDS);
        for c in COMMANDS {
            let names: Vec<&str> = c.flags().map(|f| f.name).collect();
            for (i, name) in names.iter().enumerate() {
                assert!(
                    !names[..i].contains(name),
                    "sptk {} declares {name} twice",
                    c.name
                );
                assert!(name.starts_with("--"), "sptk {}: {name}", c.name);
            }
            let mut section = usage
                .split(&format!("  sptk {} ", c.name))
                .nth(1)
                .unwrap_or("");
            section = section.split("  sptk ").next().unwrap_or("");
            for word in c.positionals.iter().copied().chain(names) {
                assert!(
                    section.contains(word),
                    "usage of sptk {} lacks {word}",
                    c.name
                );
            }
            assert!(args::usage(std::slice::from_ref(c)).contains(&format!("sptk {}", c.name)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn arbitrary_argv_never_panics(
            command in 0..=COMMANDS.len(),
            picks in proptest::collection::vec(0usize..1000, 0..10),
        ) {
            let edges = ["", "0", "-1", "1e400", "nan", "0.7x", "--", "x"];
            let mut pool: Vec<&str> = edges.to_vec();
            for c in COMMANDS {
                pool.extend(c.name.split(' '));
                pool.extend(c.flags().map(|f| f.name));
            }
            // Most draws start with a command's words, so flags get parsed.
            let mut argv: Vec<&str> = COMMANDS
                .get(command)
                .map_or(Vec::new(), |c| c.name.split(' ').collect());
            argv.extend(picks.iter().map(|&i| pool[i % pool.len()]));
            let argv = args(&argv);
            let named = Command::find(COMMANDS, &argv).map(|(c, _)| c.name);
            match Args::parse(COMMANDS, &argv) {
                Ok(a) => prop_assert_eq!(Some(a.command.name), named),
                // What `main` prints for a usage error must render too.
                Err(e) => {
                    prop_assert!(!e.to_string().is_empty());
                    prop_assert!(usage_for(&argv).contains("usage:"));
                }
            }
        }
    }

    /// Every `sptk <command> ...` line in `text`: `\` continuations and
    /// YAML `>-` folds joined, cut at the first shell operator, lines that
    /// substitute `$args` skipped.
    fn sptk_invocations(text: &str) -> Vec<Vec<String>> {
        let mut logical: Vec<String> = Vec::new();
        let mut fold_indent: Option<usize> = None;
        let mut continued = false;
        for line in text.lines() {
            let indent = line.len() - line.trim_start().len();
            let folded = fold_indent.is_some_and(|i| indent > i && !line.trim().is_empty());
            if !folded {
                fold_indent = None;
            }
            let body = line.trim().trim_end_matches('\\');
            match logical.last_mut() {
                Some(last) if folded || continued => *last = format!("{last} {body}"),
                _ => logical.push(body.to_string()),
            }
            continued = line.trim_end().ends_with('\\');
            if line.trim_end().ends_with(">-") {
                fold_indent = Some(indent);
            }
        }
        let commands: Vec<&str> = COMMANDS
            .iter()
            .filter_map(|c| c.name.split(' ').next())
            .collect();
        let mut found = Vec::new();
        for line in logical
            .iter()
            .filter(|l| !l.contains("$args") && !l.starts_with('#'))
        {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let Some(at) = tokens
                .iter()
                .position(|t| t.ends_with("/sptk") || *t == "sptk")
            else {
                continue;
            };
            let rest = &tokens[at + 1..];
            let rest = rest.strip_prefix(&["--"][..]).unwrap_or(rest);
            if !rest.first().is_some_and(|w| commands.contains(w)) {
                continue;
            }
            let end = rest
                .iter()
                .position(|t| {
                    ["|", ">", "2>", ";", "&", "#", ")"]
                        .iter()
                        .any(|op| t.starts_with(op))
                })
                .unwrap_or(rest.len());
            found.push(rest[..end].iter().map(|t| t.to_string()).collect());
        }
        found
    }

    #[test]
    fn ci_and_readme_command_lines_parse() {
        let readme = include_str!("../../../README.md");
        // README prose mentions commands in passing; only its code blocks run.
        let code: String = readme
            .split("```")
            .skip(1)
            .step_by(2)
            .collect::<Vec<_>>()
            .join("\n");
        let ci = include_str!("../../../.github/workflows/ci.yml");
        for (source, text, at_least) in [("README.md", code.as_str(), 20), ("ci.yml", ci, 30)] {
            let lines = sptk_invocations(text);
            assert!(
                lines.len() >= at_least,
                "{source}: only {} sptk lines found",
                lines.len()
            );
            for argv in lines {
                if let Err(e) = Args::parse(COMMANDS, &argv) {
                    panic!("{source}: sptk {} -> {e}", argv.join(" "));
                }
            }
        }
    }
}
