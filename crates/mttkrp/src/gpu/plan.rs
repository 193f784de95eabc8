//! Launch capture & replay: the plan/execute split for the simulated GPU
//! kernels (CUDA-graph style).
//!
//! A kernel's instruction stream, address layout, and traversal order
//! depend only on *structure* — the tensor's format, the rank, and the
//! [`GpuContext`]'s block geometry — never on factor values. A [`Plan`]
//! captures all of that once: the emitted [`KernelLaunch`] plus a
//! [`ReplaySchedule`], a flat record of every semantic output contribution
//! (which output row, which leaf reductions, which factor-row scalings, in
//! emission order). [`Plan::execute`] then replays the schedule against
//! fresh factor matrices, computing only the value-dependent output `y`,
//! and reuses a memoized [`SimResult`] instead of re-simulating.
//!
//! Replay is bit-for-bit identical to emit-and-run by construction: the
//! per-contribution accumulators are computed by the same `fill` /
//! [`axpy_into`] / [`scale_by`] sequences the emitting kernels perform,
//! and the fold into `y` happens one contribution at a time in exact
//! emission order. The accumulator computation itself never reads `y`, so
//! it fans out over rayon in per-block batches; only the (cheap) ordered
//! fold stays sequential.
//!
//! Under an active [`FaultPlan`] the replay routes through an [`AbftSink`]
//! exactly as the emitting kernels do (checksums, latched bit flips), and
//! the faulted simulation is cached keyed on the plan — `run_verified`'s
//! retries carry a different `attempt`, which re-keys the cache. A plan
//! launched on a multi-device grid likewise caches its last shard model,
//! so every replay on the same grid skips the model phase.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use dense::Matrix;
use gpu_sim::{
    simulate_instrumented, AddressSpace, FaultPlan, KernelLaunch, MemLease, SimProfile, SimResult,
};
use rayon::prelude::*;
use simprof::FieldValue;
use sptensor::CooTensor;
use tensor_formats::{BcsfOptions, Hbcsf};

use super::common::{
    axpy_into, axpy_into_fixed, scale_by, scale_by_fixed, AbftSink, FactorAddrs, GpuContext, GpuRun,
};
use super::exec::LaunchError;
use super::ooc::OocOptions;
use super::sharded::{GridSpec, ShardModel};

/// Accumulator elements per parallel replay batch (≈4 MB of partials):
/// bounds scratch memory while giving rayon enough blocks per batch.
const BATCH_ELEMS: usize = 1 << 20;

/// Which value-phase implementation a plan replays through, keyed off the
/// captured rank. The specialized variants run the *same* per-element f32
/// operation sequence as the generic path but with `[f32; R]` accumulators
/// and compile-time trip counts, so the inner loops fully unroll and
/// vectorize while every fold stays bit-identical (see DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDispatch {
    /// Const-generic path, `R = 8`.
    R8,
    /// Const-generic path, `R = 16`.
    R16,
    /// Const-generic path, `R = 32`.
    R32,
    /// Dynamically-sized fallback for every other rank.
    Generic,
}

impl RankDispatch {
    /// The dispatch a freshly captured plan of `rank` gets.
    pub fn for_rank(rank: usize) -> RankDispatch {
        match rank {
            8 => RankDispatch::R8,
            16 => RankDispatch::R16,
            32 => RankDispatch::R32,
            _ => RankDispatch::Generic,
        }
    }

    /// Stable label for benches/telemetry.
    pub fn label(self) -> &'static str {
        match self {
            RankDispatch::R8 => "specialized-r8",
            RankDispatch::R16 => "specialized-r16",
            RankDispatch::R32 => "specialized-r32",
            RankDispatch::Generic => "generic",
        }
    }

    /// Whether this is one of the const-generic fast paths.
    pub fn is_specialized(self) -> bool {
        self != RankDispatch::Generic
    }
}

/// A plan's device-memory requirements, sized at capture time from the
/// kernel's own [`AddressSpace`] layout. All sums saturate: a footprint
/// that overflows u64 reads as `u64::MAX` bytes — never satisfiable, so
/// overflow degrades into a typed OOM instead of wrapping silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct MemoryFootprint {
    /// Factor matrices (segment-padded), all modes.
    pub factor_bytes: u64,
    /// The output matrix `Y` (segment-padded).
    pub output_bytes: u64,
    /// Everything else the kernel laid out: format pointer/index/value
    /// arrays, flags, scratch. This is the streamable part — tiles carry
    /// only their share of it.
    pub format_bytes: u64,
}

impl MemoryFootprint {
    /// Splits a finished layout into the resident arrays (factors,
    /// output) and the streamable format remainder.
    pub fn from_layout(space: &AddressSpace, fa: &FactorAddrs) -> MemoryFootprint {
        let factor_bytes = fa
            .factors
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.padded_bytes()));
        let output_bytes = fa.y.padded_bytes();
        let format_bytes = space
            .total_bytes()
            .saturating_sub(factor_bytes)
            .saturating_sub(output_bytes);
        MemoryFootprint {
            factor_bytes,
            output_bytes,
            format_bytes,
        }
    }

    /// Bytes that must stay resident for the whole launch (factors + Y).
    pub fn resident_bytes(&self) -> u64 {
        self.factor_bytes.saturating_add(self.output_bytes)
    }

    /// The full-device footprint: everything at once.
    pub fn total_bytes(&self) -> u64 {
        self.resident_bytes().saturating_add(self.format_bytes)
    }

    /// Whether the whole plan fits in `capacity` bytes at once.
    pub fn fits_within(&self, capacity: u64) -> bool {
        self.total_bytes() <= capacity
    }
}

/// The value-dependent half of a captured kernel, stored structure-of-
/// arrays: every semantic output contribution in emission order, grouped
/// by thread block (CSR-style `block_ptr`).
///
/// One contribution `c` replays as:
/// 1. leaf range empty → `acc.fill(init_vals[c])` (flat kernels seed the
///    accumulator with the nonzero value); otherwise `acc.fill(0.0)` then
///    `axpy_into(acc, leaf_vals[k], factors[leaf_mode].row(leaf_rows[k]))`
///    per leaf (the fiber kernels' leaf reduction);
/// 2. `scale_by(acc, factors[chain_modes[j]].row(chain_rows[j]))` per
///    chain entry (the Hadamard fold through the remaining modes);
/// 3. `y[rows[c]] += acc` — folded sequentially in emission order.
#[derive(Debug, Clone)]
pub struct ReplaySchedule {
    /// Factor mode the leaf reduction reads (fiber kernels only).
    leaf_mode: usize,
    /// Contribution range starts per block; `block_ptr[b]..block_ptr[b+1]`.
    block_ptr: Vec<u32>,
    /// Output row per contribution.
    rows: Vec<u32>,
    /// Accumulator seed per contribution (used when its leaf range is empty).
    init_vals: Vec<f32>,
    /// Leaf range starts per contribution (into `leaf_vals`/`leaf_rows`).
    leaf_ptr: Vec<u32>,
    leaf_vals: Vec<f32>,
    leaf_rows: Vec<u32>,
    /// Chain range starts per contribution (into `chain_modes`/`chain_rows`).
    chain_ptr: Vec<u32>,
    chain_modes: Vec<u32>,
    chain_rows: Vec<u32>,
}

impl ReplaySchedule {
    /// Number of captured thread blocks (== `begin_block` calls, which can
    /// exceed the launch's block count when a kernel probes past its last
    /// block — fault draws key on this same ordinal either way).
    pub fn num_blocks(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// Total semantic contributions.
    pub fn num_contributions(&self) -> usize {
        self.rows.len()
    }

    /// Recomputes contribution `c`'s accumulator into `acc` (length R),
    /// performing exactly the emitting kernel's value arithmetic.
    #[inline]
    fn replay_into(&self, c: usize, factors: &[Matrix], acc: &mut [f32]) {
        let (lo, hi) = (self.leaf_ptr[c] as usize, self.leaf_ptr[c + 1] as usize);
        if lo == hi {
            acc.fill(self.init_vals[c]);
        } else {
            acc.fill(0.0);
            for z in lo..hi {
                let row = self.leaf_rows[z] as usize;
                axpy_into(acc, self.leaf_vals[z], factors[self.leaf_mode].row(row));
            }
        }
        for j in self.chain_ptr[c] as usize..self.chain_ptr[c + 1] as usize {
            let (m, row) = (self.chain_modes[j] as usize, self.chain_rows[j] as usize);
            scale_by(acc, factors[m].row(row));
        }
    }

    /// [`ReplaySchedule::replay_into`] with a compile-time rank: the same
    /// seed/leaf/chain sequence over a `[f32; R]` accumulator. Each step
    /// performs per lane exactly the f32 ops of the generic helpers, so
    /// the accumulator bits match [`ReplaySchedule::replay_into`] exactly.
    #[inline]
    fn replay_into_fixed<const R: usize>(&self, c: usize, factors: &[Matrix], acc: &mut [f32; R]) {
        let (lo, hi) = (self.leaf_ptr[c] as usize, self.leaf_ptr[c + 1] as usize);
        if lo == hi {
            *acc = [self.init_vals[c]; R];
        } else {
            *acc = [0.0; R];
            for z in lo..hi {
                let row = self.leaf_rows[z] as usize;
                axpy_into_fixed(acc, self.leaf_vals[z], factors[self.leaf_mode].row(row));
            }
        }
        for j in self.chain_ptr[c] as usize..self.chain_ptr[c + 1] as usize {
            let (m, row) = (self.chain_modes[j] as usize, self.chain_rows[j] as usize);
            scale_by_fixed(acc, factors[m].row(row));
        }
    }
}

/// What a [`PlanBuilder`] retains of the capture. The kernels' emit code
/// is mode-blind — it calls the same `begin_block`/`contrib`/`leaf`/
/// `chain` sequence either way — so the block ordinals, weights, and kept
/// schedules are identical across modes by construction. This is what lets
/// the streaming capture (`super::stream`) run the emit body a few times
/// with small builders instead of once with a whole-schedule builder.
pub(crate) enum CaptureMode {
    /// Retain everything (the classic capture).
    Full,
    /// Retain only a per-block weight (`1 + contribs + leaves + chains`,
    /// the [`Plan::block_weight_prefix`] formula); schedule arrays and
    /// launch blocks are discarded block by block, so the builder's
    /// footprint is one block, not one schedule.
    WeightsOnly {
        weights: Vec<u64>,
        started: bool,
        contribs: u64,
        leaves: u64,
        chains: u64,
    },
    /// Retain only blocks with global ordinal in `keep_begin..keep_end`
    /// (block ordinal = `begin_block` call count, exactly the ordinals
    /// [`Plan::block_weight_prefix`] weights). Out-of-range contributions
    /// are dropped as they arrive, and launch blocks are dropped for
    /// *every* block — shard plans are values-only replay artifacts
    /// (only the schedule is serialized), so keeping the simulation
    /// instruction stream would only inflate capture-time peak memory.
    ShardFilter {
        keep_begin: usize,
        keep_end: usize,
        seen: usize,
        active: bool,
    },
}

/// Capture-time recorder the kernels emit into: collects the
/// [`KernelLaunch`] (blocks/warps/ops) and the [`ReplaySchedule`]
/// side by side, replacing the historical `(launch, y, sink)` triple.
pub(crate) struct PlanBuilder {
    name: String,
    mode: usize,
    rank: usize,
    out_rows: usize,
    /// The simulated instruction stream; kernels push blocks directly.
    pub launch: KernelLaunch,
    sched: ReplaySchedule,
    footprint: MemoryFootprint,
    capture: CaptureMode,
}

impl PlanBuilder {
    pub fn new(name: &str, mode: usize, rank: usize, out_rows: usize) -> PlanBuilder {
        Self::with_capture(name, mode, rank, out_rows, CaptureMode::Full)
    }

    /// A builder that records only per-block weights (streaming pass 1).
    pub fn new_weights_only(name: &str, mode: usize, rank: usize, out_rows: usize) -> PlanBuilder {
        Self::with_capture(
            name,
            mode,
            rank,
            out_rows,
            CaptureMode::WeightsOnly {
                weights: Vec::new(),
                started: false,
                contribs: 0,
                leaves: 0,
                chains: 0,
            },
        )
    }

    /// A builder that keeps only blocks `range.0..range.1` (streaming
    /// pass 2, one shard).
    pub fn new_shard_filter(
        name: &str,
        mode: usize,
        rank: usize,
        out_rows: usize,
        range: (usize, usize),
    ) -> PlanBuilder {
        Self::with_capture(
            name,
            mode,
            rank,
            out_rows,
            CaptureMode::ShardFilter {
                keep_begin: range.0,
                keep_end: range.1,
                seen: 0,
                active: true,
            },
        )
    }

    fn with_capture(
        name: &str,
        mode: usize,
        rank: usize,
        out_rows: usize,
        capture: CaptureMode,
    ) -> PlanBuilder {
        PlanBuilder {
            name: name.to_string(),
            mode,
            rank,
            out_rows,
            launch: KernelLaunch::new(name),
            sched: ReplaySchedule {
                leaf_mode: 0,
                block_ptr: Vec::new(),
                rows: Vec::new(),
                init_vals: Vec::new(),
                leaf_ptr: Vec::new(),
                leaf_vals: Vec::new(),
                leaf_rows: Vec::new(),
                chain_ptr: Vec::new(),
                chain_modes: Vec::new(),
                chain_rows: Vec::new(),
            },
            footprint: MemoryFootprint::default(),
            capture,
        }
    }

    /// Declares the factor mode leaf reductions read (fiber kernels).
    pub fn set_leaf_mode(&mut self, mode: usize) {
        self.sched.leaf_mode = mode;
    }

    /// Records the capture's device-memory footprint (kernels call this
    /// right after finishing their [`AddressSpace`] layout).
    pub fn set_footprint(&mut self, footprint: MemoryFootprint) {
        self.footprint = footprint;
    }

    /// Marks the start of the next thread block — called exactly where the
    /// kernels called `sink.begin_block` (once per block ordinal, in
    /// emission order), so fault draws key identically at replay.
    pub fn begin_block(&mut self) {
        match &mut self.capture {
            CaptureMode::Full => self.sched.block_ptr.push(self.sched.rows.len() as u32),
            CaptureMode::WeightsOnly {
                weights,
                started,
                contribs,
                leaves,
                chains,
            } => {
                if *started {
                    weights.push(1 + *contribs + *leaves + *chains);
                }
                *started = true;
                *contribs = 0;
                *leaves = 0;
                *chains = 0;
                // Launch blocks are pushed by the kernels between our
                // calls; a weights pass has no use for them.
                self.launch.blocks.clear();
            }
            CaptureMode::ShardFilter {
                keep_begin,
                keep_end,
                seen,
                active,
            } => {
                self.launch.blocks.clear();
                *active = (*keep_begin..*keep_end).contains(seen);
                *seen += 1;
                if *active {
                    self.sched.block_ptr.push(self.sched.rows.len() as u32);
                }
            }
        }
    }

    /// Starts a contribution to output row `row` with accumulator seed
    /// `init` (used only if no leaves follow).
    pub fn contrib(&mut self, row: usize, init: f32) {
        match &mut self.capture {
            CaptureMode::WeightsOnly { contribs, .. } => {
                *contribs += 1;
                return;
            }
            CaptureMode::ShardFilter { active: false, .. } => return,
            _ => {}
        }
        self.sched.rows.push(row as u32);
        self.sched.init_vals.push(init);
        self.sched.leaf_ptr.push(self.sched.leaf_vals.len() as u32);
        self.sched
            .chain_ptr
            .push(self.sched.chain_modes.len() as u32);
    }

    /// Appends a leaf term `val × factors[leaf_mode].row(row)` to the
    /// current contribution.
    pub fn leaf(&mut self, val: f32, row: usize) {
        match &mut self.capture {
            CaptureMode::WeightsOnly { leaves, .. } => {
                *leaves += 1;
                return;
            }
            CaptureMode::ShardFilter { active: false, .. } => return,
            _ => {}
        }
        self.sched.leaf_vals.push(val);
        self.sched.leaf_rows.push(row as u32);
    }

    /// Appends a Hadamard scaling by `factors[mode].row(row)` to the
    /// current contribution.
    pub fn chain(&mut self, mode: usize, row: usize) {
        match &mut self.capture {
            CaptureMode::WeightsOnly { chains, .. } => {
                *chains += 1;
                return;
            }
            CaptureMode::ShardFilter { active: false, .. } => return,
            _ => {}
        }
        self.sched.chain_modes.push(mode as u32);
        self.sched.chain_rows.push(row as u32);
    }

    /// Seals the capture into an executable [`Plan`].
    ///
    /// For a [`CaptureMode::ShardFilter`] builder the plan covers only the
    /// kept block range, with *local* block ordinals — correct for clean
    /// replay (the ordered fold is position-independent) but not for
    /// fault draws, which key on global ordinals.
    pub fn finish(mut self) -> Plan {
        if let CaptureMode::ShardFilter { .. } = self.capture {
            self.launch.blocks.clear();
        }
        self.sched.block_ptr.push(self.sched.rows.len() as u32);
        self.sched.leaf_ptr.push(self.sched.leaf_vals.len() as u32);
        self.sched
            .chain_ptr
            .push(self.sched.chain_modes.len() as u32);
        Plan {
            name: self.name,
            mode: self.mode,
            rank: self.rank,
            out_rows: self.out_rows,
            dispatch: RankDispatch::for_rank(self.rank),
            launch: self.launch,
            sched: self.sched,
            footprint: self.footprint,
            sim_clean: OnceLock::new(),
            sim_faulted: Mutex::new(None),
            sim_tiled: Mutex::new(None),
            shard_model: Mutex::new(None),
        }
    }

    /// Seals a [`CaptureMode::WeightsOnly`] capture into the block-weight
    /// prefix sums — `len == begin_block calls + 1`, entry for entry what
    /// [`Plan::block_weight_prefix`] computes from a full capture.
    ///
    /// # Panics
    /// If the builder was not created with [`PlanBuilder::new_weights_only`].
    pub fn finish_weight_prefix(self) -> Vec<u64> {
        let CaptureMode::WeightsOnly {
            mut weights,
            started,
            contribs,
            leaves,
            chains,
        } = self.capture
        else {
            panic!("finish_weight_prefix on a non-weights capture");
        };
        if started {
            weights.push(1 + contribs + leaves + chains);
        }
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        prefix.push(0u64);
        for (b, w) in weights.into_iter().enumerate() {
            prefix.push(prefix[b] + w);
        }
        prefix
    }
}

/// A captured kernel launch: replayable against any factor values of the
/// captured rank, with the structure-dependent simulation memoized.
///
/// A plan is specific to the `(format, rank, ctx)` it was captured under:
/// replaying it through a context with a different device, cost model, or
/// `warps_per_block` would pair the wrong simulation with the output.
/// Fault plans are the exception — they vary per execute (see
/// [`Plan::execute`]).
#[derive(Debug)]
pub struct Plan {
    name: String,
    mode: usize,
    rank: usize,
    out_rows: usize,
    /// Which value-phase implementation replays run through; defaults to
    /// the rank-keyed specialization and can be forced generic (benches,
    /// bit-identity tests).
    dispatch: RankDispatch,
    launch: KernelLaunch,
    sched: ReplaySchedule,
    /// Device-memory requirements, sized at capture time.
    footprint: MemoryFootprint,
    /// Fault-free simulation, computed once on first execute.
    sim_clean: OnceLock<(SimResult, SimProfile)>,
    /// Last faulted simulation keyed by its [`FaultPlan`] — `run_verified`
    /// retries re-execute under `plan.with_attempt(n)`, a different key.
    sim_faulted: Mutex<Option<(FaultPlan, SimResult, SimProfile)>>,
    /// Last aggregated tiled simulation, keyed by the tile byte budget
    /// (tile ranges are a pure function of the budget).
    sim_tiled: Mutex<Option<(u64, SimResult)>>,
    /// Last multi-device shard model, keyed by everything its build
    /// reads besides the plan: the grid, the ladder knobs, and the
    /// building context's fault plan (memory, device and link draws).
    shard_model: Mutex<Option<(ShardKey, Arc<ShardModel>)>>,
}

/// What a [`ShardModel`] build depends on besides the plan itself.
type ShardKey = (GridSpec, OocOptions, Option<FaultPlan>);

impl Plan {
    /// Kernel (launch) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output mode the capture computes.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Factor rank the capture is valid for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Output rows (`dims[mode]`) the capture produces.
    pub fn out_rows(&self) -> usize {
        self.out_rows
    }

    /// The value-phase implementation replays run through.
    pub fn dispatch(&self) -> RankDispatch {
        self.dispatch
    }

    /// Toggles the const-generic value phase: `true` restores the
    /// rank-keyed default, `false` forces the generic fallback (the two
    /// produce bit-identical output — this exists so benches and tests can
    /// time/compare the arms).
    pub fn set_rank_specialization(&mut self, on: bool) {
        self.dispatch = if on {
            RankDispatch::for_rank(self.rank)
        } else {
            RankDispatch::Generic
        };
    }

    /// Device-memory requirements, sized at capture time.
    pub fn footprint(&self) -> &MemoryFootprint {
        &self.footprint
    }

    /// The captured instruction stream.
    pub fn launch(&self) -> &KernelLaunch {
        &self.launch
    }

    /// Consumes the plan, yielding the captured launch (for tools that
    /// drive the simulator themselves, e.g. `balance_viz`).
    pub fn into_launch(self) -> KernelLaunch {
        self.launch
    }

    /// The captured replay schedule.
    pub fn schedule(&self) -> &ReplaySchedule {
        &self.sched
    }

    /// Replays the capture against `factors`, producing the same [`GpuRun`]
    /// the emitting kernel would: identical `y` bits, identical (memoized)
    /// `SimResult`, and — under `ctx`'s fault plan — identical ABFT data.
    ///
    /// Factors whose rank disagrees with the captured rank are rejected
    /// with [`LaunchError::RankMismatch`] (service-facing paths must not
    /// panic on tenant input).
    pub fn execute(&self, ctx: &GpuContext, factors: &[Matrix]) -> Result<GpuRun, LaunchError> {
        self.validate_factors(factors)?;
        let _lease = self.lease_full(ctx);
        Ok(self.execute_inner(ctx, factors))
    }

    /// Checks every factor's column count against the captured rank.
    pub fn validate_factors(&self, factors: &[Matrix]) -> Result<(), LaunchError> {
        if factors.is_empty() && self.rank != 0 {
            return Err(LaunchError::RankMismatch {
                expected: self.rank,
                got: 0,
            });
        }
        for f in factors {
            if f.cols() != self.rank {
                return Err(LaunchError::RankMismatch {
                    expected: self.rank,
                    got: f.cols(),
                });
            }
        }
        Ok(())
    }

    /// Leases the plan's full footprint from `ctx`'s device memory
    /// (unchecked observation — the checked path lives in
    /// [`super::ooc::execute_adaptive`]).
    pub(crate) fn lease_full(&self, ctx: &GpuContext) -> MemLease {
        ctx.memory.lease(&self.footprint_parts())
    }

    /// `(label, bytes)` triplet describing the full footprint.
    pub(crate) fn footprint_parts(&self) -> Vec<(String, u64)> {
        vec![
            (
                format!("{}.factors", self.name),
                self.footprint.factor_bytes,
            ),
            (format!("{}.output", self.name), self.footprint.output_bytes),
            (format!("{}.format", self.name), self.footprint.format_bytes),
        ]
    }

    /// [`Plan::execute`] without the memory lease or factor validation —
    /// for callers that have already leased (full-device or per-tile) and
    /// validated through the checked path.
    pub(crate) fn execute_inner(&self, ctx: &GpuContext, factors: &[Matrix]) -> GpuRun {
        debug_assert!(
            self.validate_factors(factors).is_ok(),
            "plan '{}' captured for rank {}, factors disagree",
            self.name,
            self.rank
        );
        let mut y = Matrix::zeros(self.out_rows, self.rank);
        let abft = if ctx.fault_plan().is_some() {
            // Faulted path: sequential, routing every contribution through
            // the sink so checksums and latched flips match emission.
            let mut sink = ctx.abft_sink(&self.name, self.out_rows);
            self.replay_sequential(&mut y, factors, &mut sink);
            sink.flush(&mut y);
            sink.into_data()
        } else {
            self.replay_parallel(&mut y, factors);
            None
        };
        let (sim, profile) = self.sim_for(ctx);
        if ctx.profiling() {
            ctx.registry.add("plan.replays", 1);
            if self.dispatch.is_specialized() {
                ctx.registry.add("plan.replays_specialized", 1);
            }
        }
        let tel = &ctx.telemetry;
        if tel.enabled() {
            tel.emit(
                "kernel-replay",
                None,
                tel.new_span(),
                &[
                    ("kernel", FieldValue::from(self.name.as_str())),
                    ("mode", FieldValue::from(self.mode)),
                    ("sim_kernel_us", FieldValue::from(sim.time_s * 1e6)),
                    ("faulted", FieldValue::from(ctx.fault_plan().is_some())),
                    ("dispatch", FieldValue::from(self.dispatch.label())),
                ],
            );
        }
        // The simulated clock advances by the replayed kernel's sim time
        // whether or not events are being rendered — iteration timings in
        // cpd.rs are derived from it.
        tel.advance_us(sim.time_s * 1e6);
        GpuRun {
            y,
            sim,
            profile,
            abft,
        }
    }

    /// The memoized simulation for `ctx`'s fault state. Faulted runs always
    /// keep the profile (the injected-fault ledger lives there); clean runs
    /// keep it only when profiling, matching `finish_abft`.
    fn sim_for(&self, ctx: &GpuContext) -> (SimResult, Option<SimProfile>) {
        match ctx.fault_plan() {
            Some(plan) => {
                // Poisoning only means a panic elsewhere mid-fill; refill
                // rather than cascading the panic out of a cache lookup.
                let mut cached = self
                    .sim_faulted
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                match cached.as_ref() {
                    Some((key, sim, profile)) if key == plan => {
                        let out = (sim.clone(), Some(profile.clone()));
                        drop(cached);
                        self.note_cache_hit(ctx, "faulted");
                        out
                    }
                    _ => {
                        let (sim, profile) = simulate_instrumented(
                            &ctx.device,
                            &ctx.cost,
                            &self.launch,
                            &ctx.registry,
                            Some(plan),
                            ctx.instruments(),
                        );
                        *cached = Some((plan.clone(), sim.clone(), profile.clone()));
                        (sim, Some(profile))
                    }
                }
            }
            None => {
                let (sim, profile) = self.clean_sim_cached(ctx);
                (sim.clone(), ctx.profiling().then(|| profile.clone()))
            }
        }
    }

    /// The memoized fault-free simulation, computing (and instrumenting)
    /// it on first use. This is the *canonical* per-replay timing: it
    /// depends only on the captured launch and the device model — never on
    /// device count or fault state — so the telemetry clock advanced from
    /// it is identical across `--devices 1` and `--devices N` runs.
    pub(crate) fn clean_sim_cached(&self, ctx: &GpuContext) -> &(SimResult, SimProfile) {
        let hit = self.sim_clean.get().is_some();
        let pair = self.sim_clean.get_or_init(|| {
            simulate_instrumented(
                &ctx.device,
                &ctx.cost,
                &self.launch,
                &ctx.registry,
                None,
                ctx.instruments(),
            )
        });
        if hit {
            self.note_cache_hit(ctx, "clean");
        }
        pair
    }

    /// Emits a `plan-cache-hit` event: a replay was served from the
    /// memoized simulation instead of re-running the machine model.
    fn note_cache_hit(&self, ctx: &GpuContext, cache: &str) {
        let tel = &ctx.telemetry;
        if tel.enabled() {
            tel.emit(
                "plan-cache-hit",
                None,
                tel.new_span(),
                &[
                    ("kernel", FieldValue::from(self.name.as_str())),
                    ("mode", FieldValue::from(self.mode)),
                    ("cache", FieldValue::from(cache)),
                ],
            );
        }
    }

    /// Fault-free replay: per-contribution accumulators computed in
    /// parallel (they never read `y`), then folded into `y` one at a time
    /// in emission order — the exact f32 summation order of the inactive
    /// sink's `axpy_into` path.
    fn replay_parallel(&self, y: &mut Matrix, factors: &[Matrix]) {
        self.replay_range_parallel(y, factors, 0, self.sched.num_blocks());
    }

    /// [`Plan::replay_parallel`] restricted to blocks `range_b0..range_b1`
    /// of the schedule. Tiling only moves batch boundaries: the ordered
    /// per-contribution fold is unchanged, so any tiling of `0..nblocks`
    /// into consecutive ranges accumulates `y` bit-for-bit identically to
    /// the untiled replay.
    ///
    /// Dispatch shim: routes to the const-generic value phase when the
    /// captured rank has one (8/16/32), else the dynamically-sized
    /// fallback. Both arms run the identical batching loop and fold order,
    /// so the choice never changes output bits — OOC tiles and shard
    /// ranges (which call this per range) inherit the fast path for free.
    pub(crate) fn replay_range_parallel(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        range_b0: usize,
        range_b1: usize,
    ) {
        match self.dispatch {
            RankDispatch::R8 => {
                self.replay_range_parallel_spec::<8>(y, factors, range_b0, range_b1)
            }
            RankDispatch::R16 => {
                self.replay_range_parallel_spec::<16>(y, factors, range_b0, range_b1)
            }
            RankDispatch::R32 => {
                self.replay_range_parallel_spec::<32>(y, factors, range_b0, range_b1)
            }
            RankDispatch::Generic => {
                self.replay_range_parallel_generic(y, factors, range_b0, range_b1)
            }
        }
    }

    /// The dynamically-sized parallel value phase (any rank).
    fn replay_range_parallel_generic(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        range_b0: usize,
        range_b1: usize,
    ) {
        let r = self.rank;
        if r == 0 {
            return;
        }
        let nblocks = range_b1.min(self.sched.num_blocks());
        let mut buf: Vec<f32> = Vec::new();
        let mut b0 = range_b0;
        while b0 < nblocks {
            // Grow the batch until it covers ~BATCH_ELEMS accumulator
            // elements (always at least one block).
            let mut b1 = b0 + 1;
            while b1 < nblocks
                && (self.sched.block_ptr[b1] - self.sched.block_ptr[b0]) as usize * r < BATCH_ELEMS
            {
                b1 += 1;
            }
            let base = self.sched.block_ptr[b0] as usize;
            let count = self.sched.block_ptr[b1] as usize - base;
            buf.clear();
            buf.resize(count * r, 0.0);

            // Disjoint per-block scratch slices: blocks replay in parallel.
            let mut chunks: Vec<(usize, &mut [f32])> = Vec::with_capacity(b1 - b0);
            let mut rest = buf.as_mut_slice();
            for b in b0..b1 {
                let n = (self.sched.block_ptr[b + 1] - self.sched.block_ptr[b]) as usize * r;
                let (head, tail) = rest.split_at_mut(n);
                chunks.push((b, head));
                rest = tail;
            }
            chunks.into_par_iter().for_each(|(b, chunk)| {
                let lo = self.sched.block_ptr[b] as usize;
                for (k, acc) in chunk.chunks_mut(r).enumerate() {
                    self.sched.replay_into(lo + k, factors, acc);
                }
            });

            // Ordered sequential fold — bit-for-bit the emission order.
            for c in 0..count {
                let i = self.sched.rows[base + c] as usize;
                axpy_into(y.row_mut(i), 1.0, &buf[c * r..(c + 1) * r]);
            }
            b0 = b1;
        }
    }

    /// [`Plan::replay_range_parallel_generic`] with a compile-time rank:
    /// same batching, same disjoint scratch, same emission-order fold —
    /// only the accumulator type changes to `[f32; R]`, which hands the
    /// compiler fixed trip counts for the leaf/chain inner loops.
    fn replay_range_parallel_spec<const R: usize>(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        range_b0: usize,
        range_b1: usize,
    ) {
        debug_assert_eq!(self.rank, R);
        let nblocks = range_b1.min(self.sched.num_blocks());
        let mut buf: Vec<[f32; R]> = Vec::new();
        let mut b0 = range_b0;
        while b0 < nblocks {
            let mut b1 = b0 + 1;
            while b1 < nblocks
                && (self.sched.block_ptr[b1] - self.sched.block_ptr[b0]) as usize * R < BATCH_ELEMS
            {
                b1 += 1;
            }
            let base = self.sched.block_ptr[b0] as usize;
            let count = self.sched.block_ptr[b1] as usize - base;
            buf.clear();
            buf.resize(count, [0.0; R]);

            let mut chunks: Vec<(usize, &mut [[f32; R]])> = Vec::with_capacity(b1 - b0);
            let mut rest = buf.as_mut_slice();
            for b in b0..b1 {
                let n = (self.sched.block_ptr[b + 1] - self.sched.block_ptr[b]) as usize;
                let (head, tail) = rest.split_at_mut(n);
                chunks.push((b, head));
                rest = tail;
            }
            chunks.into_par_iter().for_each(|(b, chunk)| {
                let lo = self.sched.block_ptr[b] as usize;
                for (k, acc) in chunk.iter_mut().enumerate() {
                    self.sched.replay_into_fixed(lo + k, factors, acc);
                }
            });

            // Ordered sequential fold — bit-for-bit the emission order
            // (`y[i][c] += 1.0 * acc[c]`, same per-lane op as the generic
            // fold's `axpy_into`).
            for (c, acc) in buf.iter().enumerate() {
                let i = self.sched.rows[base + c] as usize;
                axpy_into(y.row_mut(i), 1.0, acc);
            }
            b0 = b1;
        }
    }

    /// Faulted replay: fully sequential, calling `begin_block`/`contribute`
    /// with the same ordinals and accumulators as emission.
    fn replay_sequential(&self, y: &mut Matrix, factors: &[Matrix], sink: &mut AbftSink) {
        self.replay_range_sequential(y, factors, sink, 0, self.sched.num_blocks());
    }

    /// [`Plan::replay_sequential`] restricted to blocks `b0..b1`. Block
    /// ordinals passed to the sink are the *global* schedule ordinals, so
    /// fault draws — which key on `(kernel, block)` — are identical
    /// whether the schedule runs whole or tiled.
    ///
    /// Same dispatch shim as [`Plan::replay_range_parallel`]: the faulted
    /// path stays fully sequential through the sink either way; only the
    /// accumulator computation specializes.
    pub(crate) fn replay_range_sequential(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        sink: &mut AbftSink,
        b0: usize,
        b1: usize,
    ) {
        match self.dispatch {
            RankDispatch::R8 => self.replay_range_sequential_spec::<8>(y, factors, sink, b0, b1),
            RankDispatch::R16 => self.replay_range_sequential_spec::<16>(y, factors, sink, b0, b1),
            RankDispatch::R32 => self.replay_range_sequential_spec::<32>(y, factors, sink, b0, b1),
            RankDispatch::Generic => self.replay_range_sequential_generic(y, factors, sink, b0, b1),
        }
    }

    /// The dynamically-sized sequential (faulted) value phase.
    fn replay_range_sequential_generic(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        sink: &mut AbftSink,
        b0: usize,
        b1: usize,
    ) {
        let mut acc = vec![0.0f32; self.rank];
        for b in b0..b1.min(self.sched.num_blocks()) {
            sink.begin_block(y, b);
            let (lo, hi) = (
                self.sched.block_ptr[b] as usize,
                self.sched.block_ptr[b + 1] as usize,
            );
            for c in lo..hi {
                self.sched.replay_into(c, factors, &mut acc);
                sink.contribute(y, self.sched.rows[c] as usize, &acc);
            }
        }
    }

    /// [`Plan::replay_range_sequential_generic`] with a compile-time rank;
    /// the sink sees the same block ordinals, rows, and accumulator bits.
    fn replay_range_sequential_spec<const R: usize>(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        sink: &mut AbftSink,
        b0: usize,
        b1: usize,
    ) {
        debug_assert_eq!(self.rank, R);
        let mut acc = [0.0f32; R];
        for b in b0..b1.min(self.sched.num_blocks()) {
            sink.begin_block(y, b);
            let (lo, hi) = (
                self.sched.block_ptr[b] as usize,
                self.sched.block_ptr[b + 1] as usize,
            );
            for c in lo..hi {
                self.sched.replay_into_fixed(c, factors, &mut acc);
                sink.contribute(y, self.sched.rows[c] as usize, &acc);
            }
        }
    }

    /// Prefix sums of per-block tiling weights (`len == num_blocks + 1`).
    /// A block's weight approximates its share of the format arrays: its
    /// contribution, leaf, and chain entry counts, plus one so empty
    /// blocks still make progress when packed.
    pub(crate) fn block_weight_prefix(&self) -> Vec<u64> {
        let s = &self.sched;
        let nblocks = s.num_blocks();
        let mut prefix = Vec::with_capacity(nblocks + 1);
        prefix.push(0u64);
        for b in 0..nblocks {
            let (lo, hi) = (s.block_ptr[b] as usize, s.block_ptr[b + 1] as usize);
            let mut w = 1 + (hi - lo) as u64;
            if hi > lo {
                w += u64::from(s.leaf_ptr[hi] - s.leaf_ptr[lo]);
                w += u64::from(s.chain_ptr[hi] - s.chain_ptr[lo]);
            }
            prefix.push(prefix[b] + w);
        }
        prefix
    }

    /// The sub-launch covering schedule blocks `b0..b1` (clamped to the
    /// launch's block count — the schedule can record a trailing probe
    /// block past the last launched one).
    pub(crate) fn sub_launch(&self, b0: usize, b1: usize) -> KernelLaunch {
        let lo = b0.min(self.launch.blocks.len());
        let hi = b1.min(self.launch.blocks.len());
        KernelLaunch {
            name: self.launch.name.clone(),
            blocks: self.launch.blocks[lo..hi].to_vec(),
        }
    }

    /// The memoized aggregated tiled simulation for `budget`, filling via
    /// `compute` on miss (see `sim_tiled`).
    pub(crate) fn tiled_sim_cached(
        &self,
        budget: u64,
        compute: impl FnOnce() -> SimResult,
    ) -> SimResult {
        let mut cached = self
            .sim_tiled
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match cached.as_ref() {
            Some((key, sim)) if *key == budget => sim.clone(),
            _ => {
                let sim = compute();
                *cached = Some((budget, sim.clone()));
                sim
            }
        }
    }

    /// The shard model of this plan on `spec`, reused while the grid, the
    /// ladder knobs and `ctx`'s fault plan match the last build (see
    /// `shard_model`) and rebuilt from `ctx` otherwise. Builds are counted
    /// in `ctx`'s registry as `sharded.model_builds`.
    pub(crate) fn shard_model(
        &self,
        ctx: &GpuContext,
        spec: &GridSpec,
        opts: &OocOptions,
    ) -> Arc<ShardModel> {
        let key = (spec.clone(), *opts, ctx.faults.clone());
        let mut cached = self
            .shard_model
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match cached.as_ref() {
            Some((k, model)) if *k == key => Arc::clone(model),
            _ => {
                ctx.registry.add("sharded.model_builds", 1);
                let model = Arc::new(ShardModel::build(ctx, self, spec, opts));
                *cached = Some((key, Arc::clone(&model)));
                model
            }
        }
    }

    /// Serializes the *replayable* core of the plan (identity + schedule
    /// SoA arrays, little-endian) for the streaming shard store. The
    /// captured instruction stream and footprint are deliberately not
    /// persisted: a deserialized plan replays values bit-identically but
    /// carries an empty launch (no machine-model simulation) — the
    /// streaming CPD driver computes values only.
    pub(crate) fn write_schedule(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        w.write_all(SCHED_MAGIC)?;
        let name = self.name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(self.mode as u32).to_le_bytes())?;
        w.write_all(&(self.rank as u32).to_le_bytes())?;
        w.write_all(&(self.out_rows as u64).to_le_bytes())?;
        w.write_all(&(self.sched.leaf_mode as u32).to_le_bytes())?;
        write_u32s(w, &self.sched.block_ptr)?;
        write_u32s(w, &self.sched.rows)?;
        write_f32s(w, &self.sched.init_vals)?;
        write_u32s(w, &self.sched.leaf_ptr)?;
        write_f32s(w, &self.sched.leaf_vals)?;
        write_u32s(w, &self.sched.leaf_rows)?;
        write_u32s(w, &self.sched.chain_ptr)?;
        write_u32s(w, &self.sched.chain_modes)?;
        write_u32s(w, &self.sched.chain_rows)?;
        Ok(())
    }

    /// Reconstructs a value-replayable plan written by
    /// [`Plan::write_schedule`].
    pub(crate) fn read_schedule(r: &mut impl std::io::Read) -> std::io::Result<Plan> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != SCHED_MAGIC {
            return Err(bad("not a serialized replay schedule"));
        }
        let name_len = read_u32(r)? as usize;
        if name_len > 1 << 16 {
            return Err(bad("implausible kernel name length"));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| bad("kernel name not utf-8"))?;
        let mode = read_u32(r)? as usize;
        let rank = read_u32(r)? as usize;
        let out_rows = read_u64(r)? as usize;
        let leaf_mode = read_u32(r)? as usize;
        let sched = ReplaySchedule {
            leaf_mode,
            block_ptr: read_u32s(r)?,
            rows: read_u32s(r)?,
            init_vals: read_f32s(r)?,
            leaf_ptr: read_u32s(r)?,
            leaf_vals: read_f32s(r)?,
            leaf_rows: read_u32s(r)?,
            chain_ptr: read_u32s(r)?,
            chain_modes: read_u32s(r)?,
            chain_rows: read_u32s(r)?,
        };
        if sched.block_ptr.is_empty() || sched.leaf_ptr.len() != sched.rows.len() + 1 {
            return Err(bad("truncated replay schedule"));
        }
        Ok(Plan {
            name: name.clone(),
            mode,
            rank,
            out_rows,
            dispatch: RankDispatch::for_rank(rank),
            launch: KernelLaunch::new(&name),
            sched,
            footprint: MemoryFootprint::default(),
            sim_clean: OnceLock::new(),
            sim_faulted: Mutex::new(None),
            sim_tiled: Mutex::new(None),
            shard_model: Mutex::new(None),
        })
    }
}

/// Magic prefix of a serialized [`ReplaySchedule`] ("sptk plan, v1").
const SCHED_MAGIC: &[u8; 4] = b"SPL1";

fn write_u32s(w: &mut impl std::io::Write, v: &[u32]) -> std::io::Result<()> {
    w.write_all(&(v.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(4 * v.len().min(1 << 18));
    for chunk in v.chunks(1 << 18) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn write_f32s(w: &mut impl std::io::Write, v: &[f32]) -> std::io::Result<()> {
    w.write_all(&(v.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(4 * v.len().min(1 << 18));
    for chunk in v.chunks(1 << 18) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn read_u32(r: &mut impl std::io::Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl std::io::Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32s(r: &mut impl std::io::Read) -> std::io::Result<Vec<u32>> {
    let n = read_u64(r)? as usize;
    let mut out = Vec::new();
    let mut buf = vec![0u8; 4 * n.min(1 << 18)];
    let mut left = n;
    while left > 0 {
        let take = left.min(1 << 18);
        r.read_exact(&mut buf[..4 * take])?;
        out.extend(
            buf[..4 * take]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        left -= take;
    }
    Ok(out)
}

fn read_f32s(r: &mut impl std::io::Read) -> std::io::Result<Vec<f32>> {
    Ok(read_u32s(r)?.into_iter().map(f32::from_bits).collect())
}

/// Per-mode HB-CSF plans for a CPD hot loop: build all formats and capture
/// all plans once (fanned over rayon — mode builds are independent), then
/// replay one plan per MTTKRP call.
pub struct ModePlans {
    plans: Vec<Plan>,
    /// Wall-clock seconds each mode's build+capture took (for manifests).
    pub build_seconds: Vec<f64>,
}

impl ModePlans {
    /// Builds the mode-`m` HB-CSF format and captures its plan, for every
    /// mode of `t`, in parallel.
    pub fn build_hbcsf(
        ctx: &GpuContext,
        t: &CooTensor,
        rank: usize,
        opts: BcsfOptions,
    ) -> ModePlans {
        let built: Vec<(Plan, f64)> = (0..t.order())
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|m| {
                let start = Instant::now();
                let perm = sptensor::mode_orientation(t.order(), m);
                let h = Hbcsf::build(t, &perm, opts);
                let plan = super::hbcsf::plan_impl(ctx, &h, rank);
                (plan, start.elapsed().as_secs_f64())
            })
            .collect();
        let (plans, build_seconds) = built.into_iter().unzip();
        ModePlans {
            plans,
            build_seconds,
        }
    }

    /// Captures plans for pre-built per-mode HB-CSF formats
    /// (`formats[m].perm[0] == m` expected).
    pub fn from_formats(ctx: &GpuContext, formats: &[Hbcsf], rank: usize) -> ModePlans {
        let built: Vec<(Plan, f64)> = formats
            .par_iter()
            .map(|h| {
                let start = Instant::now();
                let plan = super::hbcsf::plan_impl(ctx, h, rank);
                (plan, start.elapsed().as_secs_f64())
            })
            .collect();
        let (plans, build_seconds) = built.into_iter().unzip();
        ModePlans {
            plans,
            build_seconds,
        }
    }

    /// Number of captured modes.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The mode-`mode` plan.
    pub fn plan(&self, mode: usize) -> &Plan {
        &self.plans[mode]
    }

    /// Toggles the const-generic value phase on every captured plan (see
    /// [`Plan::set_rank_specialization`]).
    pub fn set_rank_specialization(&mut self, on: bool) {
        for p in &mut self.plans {
            p.set_rank_specialization(on);
        }
    }

    /// Replays the mode-`mode` plan against `factors`.
    pub fn execute(
        &self,
        ctx: &GpuContext,
        factors: &[Matrix],
        mode: usize,
    ) -> Result<GpuRun, LaunchError> {
        self.plans[mode].execute(ctx, factors)
    }
}
