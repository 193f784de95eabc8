//! Typed tensor ingestion: the [`TensorSource`] API.
//!
//! Every reader is a pull-based chunk protocol: a [`TensorSource`]
//! yields fixed-size batches of raw nonzeros ([`CooChunk`]) instead of
//! one resident `CooTensor`, so the same
//! parsers drive both the in-core assembly path ([`ingest`]) and the
//! bounded-memory spill path ([`crate::spill`]). Ingestion behavior —
//! duplicate policy, chunk size, host-memory budget, progress events —
//! is configured through [`IngestOptions`].
//!
//! Contract: for any chunk size, [`ingest`] produces exactly the same
//! tensor (and exactly the same errors, down to line numbers). Chunk
//! boundaries are invisible.

use std::io::{BufRead, Read, Seek, SeekFrom};
use std::sync::Arc;

use crate::io::DuplicatePolicy;
use crate::{CooTensor, Index, TensorError, TensorResult, Value};

/// One batch of raw nonzeros, structure-of-arrays: `coords[mode][i]` is
/// the mode-`mode` coordinate of the chunk's `i`-th entry. `lines[i]` is
/// the entry's 1-based source line (text) or ordinal (binary/synthetic),
/// carried so duplicate errors and merge tie-breaks can name the exact
/// source position regardless of how entries were batched or re-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooChunk {
    pub coords: Vec<Vec<Index>>,
    pub vals: Vec<Value>,
    pub lines: Vec<u64>,
}

impl CooChunk {
    /// An empty chunk shaped for `order` modes.
    pub fn with_order(order: usize) -> Self {
        CooChunk {
            coords: vec![Vec::new(); order],
            vals: Vec::new(),
            lines: Vec::new(),
        }
    }

    pub fn order(&self) -> usize {
        self.coords.len()
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Drops all entries, keeping the mode arity and capacity.
    pub fn clear(&mut self) {
        for arr in &mut self.coords {
            arr.clear();
        }
        self.vals.clear();
        self.lines.clear();
    }

    /// Re-shapes to `order` modes and clears.
    pub fn reset(&mut self, order: usize) {
        self.coords.resize(order, Vec::new());
        self.coords.truncate(order);
        self.clear();
    }

    /// Appends one entry.
    ///
    /// # Panics
    /// If `coords.len()` mismatches the chunk's arity.
    pub fn push(&mut self, coords: &[Index], val: Value, line: u64) {
        assert_eq!(coords.len(), self.order(), "chunk arity mismatch");
        for (arr, &c) in self.coords.iter_mut().zip(coords) {
            arr.push(c);
        }
        self.vals.push(val);
        self.lines.push(line);
    }

    /// The coordinate tuple of entry `i` (allocates; use the raw arrays
    /// in hot code).
    pub fn coords_of(&self, i: usize) -> Vec<Index> {
        self.coords.iter().map(|arr| arr[i]).collect()
    }

    /// Approximate resident bytes of one entry at this arity.
    pub fn entry_bytes(order: usize) -> usize {
        order * std::mem::size_of::<Index>()
            + std::mem::size_of::<Value>()
            + std::mem::size_of::<u64>()
    }
}

/// Progress events emitted through [`IngestOptions::with_progress`].
#[derive(Debug, Clone, PartialEq)]
pub enum IngestEvent {
    /// A chunk of raw entries was parsed from the source.
    ChunkRead { entries: usize, total_entries: u64 },
    /// A sorted run was spilled to disk (bounded-memory path only).
    RunSpilled { run: usize, entries: usize },
    /// The k-way merge over spilled runs began.
    MergeStarted { runs: usize },
    /// Ingestion finished with this many surviving entries.
    Done { entries: u64 },
}

/// Callback type for ingestion progress events.
pub type ProgressSink = Arc<dyn Fn(&IngestEvent) + Send + Sync>;

/// Ingestion configuration: duplicate policy, chunk size, host-memory
/// budget, and an optional progress-event sink. Built fluently:
///
/// ```
/// use sptensor::{IngestOptions, io::DuplicatePolicy};
/// let opts = IngestOptions::new()
///     .with_policy(DuplicatePolicy::Sum)
///     .with_chunk_nnz(1 << 16)
///     .with_host_budget(256 << 20);
/// assert_eq!(opts.policy(), DuplicatePolicy::Sum);
/// ```
#[derive(Clone, Default)]
pub struct IngestOptions {
    policy: DuplicatePolicy,
    chunk_nnz: Option<usize>,
    host_budget: Option<u64>,
    progress: Option<ProgressSink>,
}

impl std::fmt::Debug for IngestOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestOptions")
            .field("policy", &self.policy)
            .field("chunk_nnz", &self.chunk_nnz)
            .field("host_budget", &self.host_budget)
            .field("progress", &self.progress.as_ref().map(|_| "sink"))
            .finish()
    }
}

/// Default entries per chunk when neither a chunk size nor a budget is
/// configured (1M entries ≈ 16-28 MB of working set at orders 3-4).
pub const DEFAULT_CHUNK_NNZ: usize = 1 << 20;

impl IngestOptions {
    pub fn new() -> Self {
        IngestOptions::default()
    }

    pub fn with_policy(mut self, policy: DuplicatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Entries per parsed chunk. Clamped to at least 1.
    pub fn with_chunk_nnz(mut self, chunk_nnz: usize) -> Self {
        self.chunk_nnz = Some(chunk_nnz.max(1));
        self
    }

    /// Peak-host-memory budget in bytes for the ingestion working set.
    /// Chunk sizes are derated so chunk buffers plus sort scratch stay
    /// within a fraction of this budget; the enforcement check (peak RSS
    /// below budget) is done by the caller against `/proc` ground truth.
    pub fn with_host_budget(mut self, bytes: u64) -> Self {
        self.host_budget = Some(bytes);
        self
    }

    /// Installs a progress-event callback.
    pub fn with_progress(mut self, sink: ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    pub fn policy(&self) -> DuplicatePolicy {
        self.policy
    }

    pub fn host_budget(&self) -> Option<u64> {
        self.host_budget
    }

    /// The chunk size actually used for an order-`order` source: the
    /// configured size, derated so one chunk's parse + sort working set
    /// (entry payload, sort permutation, spill buffer — roughly 4x the
    /// raw entry bytes) consumes at most a quarter of the host budget.
    pub fn effective_chunk_nnz(&self, order: usize) -> usize {
        let mut chunk = self.chunk_nnz.unwrap_or(DEFAULT_CHUNK_NNZ);
        if let Some(budget) = self.host_budget {
            let per_entry = 4 * CooChunk::entry_bytes(order.max(1)) as u64;
            let cap = (budget / 4) / per_entry.max(1);
            chunk = chunk.min(cap.max(1024) as usize);
        }
        chunk.max(1)
    }

    pub(crate) fn emit(&self, event: IngestEvent) {
        if let Some(sink) = &self.progress {
            sink(&event);
        }
    }
}

/// A pull-based producer of raw tensor nonzeros.
///
/// Sources yield entries in their native order, duplicates and all;
/// policy application, extent inference, and assembly are the ingestion
/// layer's job ([`ingest`] for in-core, [`crate::spill`] for
/// bounded-memory). Implementations validate what only they can see —
/// token syntax, header integrity, index ranges against declared
/// extents — and surface everything else untouched.
pub trait TensorSource {
    /// Short format tag used in error contexts (`"tns"`, `"spt1"`, ...).
    fn format_name(&self) -> &'static str;

    /// Mode extents declared by the source itself (binary header,
    /// synthetic spec). `None` when extents must be inferred from the
    /// data as per-mode maxima (`.tns`).
    fn declared_dims(&self) -> Option<Vec<Index>>;

    /// Total entries the source expects to yield, when known upfront.
    fn nnz_hint(&self) -> Option<u64>;

    /// Clears `out` and fills it with up to `max_entries` entries.
    /// Returns the number appended; `0` means the source is exhausted.
    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize>;
}

// ---------------------------------------------------------------------
// .tns text source
// ---------------------------------------------------------------------

/// Streaming FROSTT `.tns` parser: one nonzero per line, 1-based
/// whitespace-separated indices then the value, `#` comments. Order is
/// inferred from the first data line; extents are left to the consumer
/// (per-mode maxima, as FROSTT itself defines them).
pub struct TnsSource<R: BufRead> {
    reader: R,
    /// 0-based count of physical lines consumed so far.
    lineno: usize,
    order: Option<usize>,
    line_buf: String,
    coords: Vec<Index>,
    done: bool,
}

impl<R: BufRead> TnsSource<R> {
    pub fn new(reader: R) -> Self {
        TnsSource {
            reader,
            lineno: 0,
            order: None,
            line_buf: String::new(),
            coords: Vec::new(),
            done: false,
        }
    }

    /// Parses one data line into `self.coords` + value. `Ok(None)` on EOF.
    fn next_entry(&mut self) -> TensorResult<Option<Value>> {
        loop {
            self.line_buf.clear();
            let n = self.reader.read_line(&mut self.line_buf)?;
            if n == 0 {
                self.done = true;
                return Ok(None);
            }
            let lineno = self.lineno;
            self.lineno += 1;
            let trimmed = self.line_buf.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut toks = trimmed.split_whitespace();
            // Count columns without collecting: indices are every token
            // but the last.
            let ntoks = trimmed.split_whitespace().count();
            if ntoks < 2 {
                return Err(bad_line(lineno, "need at least one index and a value"));
            }
            let n = ntoks - 1;
            match self.order {
                None => self.order = Some(n),
                Some(o) if o != n => {
                    return Err(bad_line(lineno, "inconsistent number of columns"));
                }
                _ => {}
            }
            self.coords.clear();
            for _ in 0..n {
                let tok = toks.next().expect("counted");
                let idx: u64 = tok.parse().map_err(|_| bad_line(lineno, "invalid index"))?;
                if idx == 0 {
                    return Err(bad_line(lineno, "indices are 1-based; got 0"));
                }
                // Two guards: the Index (u32) range, and — on 32-bit
                // hosts — the usize range row counts flow through.
                if idx > u64::from(Index::MAX) || usize::try_from(idx).is_err() {
                    return Err(bad_line(lineno, "index exceeds representable range"));
                }
                self.coords.push((idx - 1) as Index);
            }
            let v: Value = toks
                .next()
                .expect("counted")
                .parse()
                .map_err(|_| bad_line(lineno, "invalid value"))?;
            if !v.is_finite() {
                return Err(bad_line(lineno, "non-finite value (NaN/inf) rejected"));
            }
            return Ok(Some(v));
        }
    }
}

fn bad_line(lineno: usize, msg: &str) -> TensorError {
    TensorError::parse_at(lineno, msg)
}

impl<R: BufRead> TensorSource for TnsSource<R> {
    fn format_name(&self) -> &'static str {
        "tns"
    }

    fn declared_dims(&self) -> Option<Vec<Index>> {
        None
    }

    fn nnz_hint(&self) -> Option<u64> {
        None
    }

    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        out.reset(self.order.unwrap_or(0));
        if self.done {
            return Ok(0);
        }
        let mut appended = 0usize;
        while appended < max_entries {
            match self.next_entry()? {
                None => break,
                Some(v) => {
                    if out.order() != self.coords.len() {
                        // First data line of the stream fixed the order
                        // just now; shape the chunk to match.
                        out.reset(self.coords.len());
                    }
                    out.push(&self.coords, v, self.lineno as u64);
                    appended += 1;
                }
            }
        }
        Ok(appended)
    }
}

// ---------------------------------------------------------------------
// SPT1 binary source
// ---------------------------------------------------------------------

/// Reads and validates an SPT1 header; returns `(dims, nnz)` and leaves
/// the reader at the first index byte.
fn read_bin_header<R: Read>(r: &mut R) -> TensorResult<(Vec<Index>, u64)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != crate::io::BIN_MAGIC {
        return Err(TensorError::invalid("spt1", "not an SPT1 binary tensor"));
    }
    let mut b1 = [0u8; 1];
    r.read_exact(&mut b1)?;
    let order = b1[0] as usize;
    if order == 0 {
        return Err(TensorError::invalid("spt1", "zero order"));
    }
    let mut u32buf = [0u8; 4];
    let mut dims = Vec::with_capacity(order);
    for m in 0..order {
        r.read_exact(&mut u32buf)?;
        let d = u32::from_le_bytes(u32buf);
        if d == 0 {
            return Err(TensorError::invalid(
                "spt1",
                format!("mode {m} extent is zero"),
            ));
        }
        dims.push(d);
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let nnz = u64::from_le_bytes(u64buf);
    if usize::try_from(nnz).is_err() {
        return Err(TensorError::invalid("spt1", "nonzero count exceeds usize"));
    }
    // (order + 1) arrays of 4-byte entries must be addressable.
    if nnz
        .checked_mul(order as u64 + 1)
        .and_then(|n| n.checked_mul(4))
        .is_none()
    {
        return Err(TensorError::invalid("spt1", "total byte size overflows"));
    }
    Ok((dims, nnz))
}

/// Chunked reader for the crate's SPT1 binary format. The on-disk layout
/// is *columnar* (each mode's whole index array, then all values), so
/// batching entries requires one seek per mode per chunk — cheap against
/// a file, and the price of never holding more than one chunk of any
/// array in memory.
pub struct BinSource<R: Read + Seek> {
    reader: R,
    dims: Vec<Index>,
    nnz: u64,
    /// Next entry ordinal to yield.
    cursor: u64,
    /// Byte offset of the first index byte (end of header).
    data_start: u64,
}

impl<R: Read + Seek> BinSource<R> {
    /// Reads and validates the header, leaving the source positioned at
    /// the first entry.
    pub fn new(mut reader: R) -> TensorResult<Self> {
        let (dims, nnz) = read_bin_header(&mut reader)?;
        let data_start = reader.stream_position().map_err(TensorError::from)?;
        Ok(BinSource {
            reader,
            dims,
            nnz,
            cursor: 0,
            data_start,
        })
    }

    pub fn dims(&self) -> &[Index] {
        &self.dims
    }

    pub fn nnz(&self) -> u64 {
        self.nnz
    }
}

impl BinSource<std::io::BufReader<std::fs::File>> {
    /// Opens an SPT1 file for chunked reading.
    pub fn open(path: &std::path::Path) -> TensorResult<Self> {
        let f = std::fs::File::open(path)?;
        BinSource::new(std::io::BufReader::new(f))
    }
}

impl<R: Read + Seek> TensorSource for BinSource<R> {
    fn format_name(&self) -> &'static str {
        "spt1"
    }

    fn declared_dims(&self) -> Option<Vec<Index>> {
        Some(self.dims.clone())
    }

    fn nnz_hint(&self) -> Option<u64> {
        Some(self.nnz)
    }

    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        let order = self.dims.len();
        out.reset(order);
        let remaining = self.nnz - self.cursor;
        let take = (max_entries as u64).min(remaining) as usize;
        if take == 0 {
            return Ok(0);
        }
        let mut bytes = vec![0u8; take * 4];
        for (m, arr) in out.coords.iter_mut().enumerate() {
            let off = self.data_start + (m as u64 * self.nnz + self.cursor) * 4;
            self.reader.seek(SeekFrom::Start(off))?;
            self.reader.read_exact(&mut bytes)?;
            arr.reserve(take);
            for w in bytes.chunks_exact(4) {
                let idx = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
                if idx >= self.dims[m] {
                    return Err(TensorError::invalid(
                        "spt1",
                        format!("mode {m} index {idx} out of range"),
                    ));
                }
                arr.push(idx);
            }
        }
        let voff = self.data_start + (order as u64 * self.nnz + self.cursor) * 4;
        self.reader.seek(SeekFrom::Start(voff))?;
        self.reader.read_exact(&mut bytes)?;
        for w in bytes.chunks_exact(4) {
            out.vals.push(f32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
        for i in 0..take {
            out.lines.push(self.cursor + i as u64 + 1);
        }
        self.cursor += take as u64;
        Ok(take)
    }
}

// ---------------------------------------------------------------------
// In-memory source
// ---------------------------------------------------------------------

/// Adapts a resident [`CooTensor`] to the source protocol: entries in
/// stored order, ordinals as line numbers. The bridge that lets the
/// streaming pipeline and its tests run over in-memory data.
pub struct CooSource {
    t: CooTensor,
    cursor: usize,
}

impl CooSource {
    pub fn new(t: CooTensor) -> Self {
        CooSource { t, cursor: 0 }
    }
}

impl TensorSource for CooSource {
    fn format_name(&self) -> &'static str {
        "coo"
    }

    fn declared_dims(&self) -> Option<Vec<Index>> {
        Some(self.t.dims().to_vec())
    }

    fn nnz_hint(&self) -> Option<u64> {
        Some(self.t.nnz() as u64)
    }

    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        out.reset(self.t.order());
        let take = max_entries.min(self.t.nnz() - self.cursor);
        let (lo, hi) = (self.cursor, self.cursor + take);
        for (m, arr) in out.coords.iter_mut().enumerate() {
            arr.extend_from_slice(&self.t.mode_indices(m)[lo..hi]);
        }
        out.vals.extend_from_slice(&self.t.values()[lo..hi]);
        out.lines.extend((lo..hi).map(|i| i as u64 + 1));
        self.cursor = hi;
        Ok(take)
    }
}

// ---------------------------------------------------------------------
// In-core assembly
// ---------------------------------------------------------------------

/// Assembles a resident [`CooTensor`] from any source, applying the
/// configured [`DuplicatePolicy`] with whole-stream semantics: the
/// dedup state persists across chunks, so the result (tensor or typed
/// error, including the reported line) is identical for every chunk
/// size.
pub fn ingest<S: TensorSource>(mut source: S, opts: &IngestOptions) -> TensorResult<CooTensor> {
    use std::collections::HashMap;

    let declared = source.declared_dims();
    let policy = opts.policy();
    let mut inds: Vec<Vec<Index>> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    let mut order: Option<usize> = None;
    // First-occurrence index of each coordinate tuple (Reject/Sum only).
    let mut seen: HashMap<Vec<Index>, usize> = HashMap::new();
    let mut chunk = CooChunk::default();
    let mut total: u64 = 0;

    loop {
        let chunk_nnz = opts.effective_chunk_nnz(order.unwrap_or(3));
        let n = source.fill_chunk(chunk_nnz, &mut chunk)?;
        if n == 0 {
            break;
        }
        total += n as u64;
        match order {
            None => {
                order = Some(chunk.order());
                inds = vec![Vec::new(); chunk.order()];
            }
            Some(o) if o != chunk.order() => {
                return Err(TensorError::invalid(
                    source.format_name(),
                    "source changed arity mid-stream",
                ));
            }
            _ => {}
        }
        for i in 0..n {
            let coords = chunk.coords_of(i);
            let v = chunk.vals[i];
            match policy {
                DuplicatePolicy::Keep => {}
                _ => {
                    if let Some(&first) = seen.get(&coords) {
                        match policy {
                            DuplicatePolicy::Reject => {
                                return Err(TensorError::duplicate(
                                    chunk.lines[i] as usize,
                                    coords,
                                ));
                            }
                            DuplicatePolicy::Sum => {
                                vals[first] += v;
                                continue;
                            }
                            DuplicatePolicy::Keep => unreachable!(),
                        }
                    }
                    seen.insert(coords.clone(), vals.len());
                }
            }
            for (arr, &c) in inds.iter_mut().zip(&coords) {
                arr.push(c);
            }
            vals.push(v);
        }
        opts.emit(IngestEvent::ChunkRead {
            entries: n,
            total_entries: total,
        });
    }

    let t = match declared {
        Some(dims) => {
            if vals.is_empty() {
                CooTensor::new(dims)
            } else {
                CooTensor::from_parts(dims, inds, vals)
            }
        }
        None => {
            let order = order.ok_or_else(|| {
                TensorError::invalid(source.format_name(), "no data lines in input")
            })?;
            let mut dims = Vec::with_capacity(order);
            for arr in &inds {
                let max = arr.iter().copied().max().unwrap_or(0);
                let extent = max.checked_add(1).ok_or_else(|| {
                    TensorError::invalid(source.format_name(), "mode extent overflows u32")
                })?;
                dims.push(extent);
            }
            CooTensor::from_parts(dims, inds, vals)
        }
    };
    opts.emit(IngestEvent::Done {
        entries: t.nnz() as u64,
    });
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn tns(text: &str) -> TnsSource<BufReader<&[u8]>> {
        TnsSource::new(BufReader::new(text.as_bytes()))
    }

    #[test]
    fn ingest_matches_simple_document() {
        let t = ingest(tns("1 2 3 1.5\n3 2 1 2.5\n"), &IngestOptions::new()).unwrap();
        assert_eq!(t.dims(), &[3, 2, 3]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.values(), &[1.5, 2.5]);
    }

    #[test]
    fn ingest_is_chunk_size_invariant() {
        let text = "1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n1 2 3 4.0\n2 3 1 5.0\n";
        let base = ingest(tns(text), &IngestOptions::new()).unwrap();
        for chunk in [1usize, 2, 3, 7, 64] {
            let t = ingest(tns(text), &IngestOptions::new().with_chunk_nnz(chunk)).unwrap();
            assert_eq!(t, base, "chunk size {chunk} changed the result");
        }
    }

    #[test]
    fn duplicate_across_chunk_boundary_still_rejected_with_line() {
        // Entries 1 and 3 collide; chunk size 1 puts them in different
        // chunks, but the error must still name line 3.
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n";
        let err = ingest(tns(text), &IngestOptions::new().with_chunk_nnz(1))
            .expect_err("duplicate must reject");
        match err {
            TensorError::Duplicate { line, ref coords } => {
                assert_eq!(line, 3);
                assert_eq!(coords, &[0, 1, 2]);
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
    }

    #[test]
    fn sum_folds_across_chunk_boundaries() {
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n";
        for chunk in [1usize, 2, 16] {
            let t = ingest(
                tns(text),
                &IngestOptions::new()
                    .with_policy(DuplicatePolicy::Sum)
                    .with_chunk_nnz(chunk),
            )
            .unwrap();
            assert_eq!(t.nnz(), 2);
            assert_eq!(t.values(), &[5.0, 5.0], "chunk size {chunk}");
        }
    }

    #[test]
    fn bin_source_round_trips_chunked() {
        let t = crate::synth::uniform_random(&[20, 30, 40], 500, 9);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        for chunk in [1usize, 7, 100, 1 << 20] {
            let src = BinSource::new(std::io::Cursor::new(&buf)).unwrap();
            assert_eq!(src.nnz(), t.nnz() as u64);
            let back = ingest(
                src,
                &IngestOptions::new()
                    .with_policy(DuplicatePolicy::Keep)
                    .with_chunk_nnz(chunk),
            )
            .unwrap();
            assert_eq!(back, t, "chunk size {chunk}");
        }
    }

    #[test]
    fn coo_source_is_identity() {
        let t = crate::synth::uniform_random(&[9, 9, 9], 200, 3);
        let back = ingest(
            CooSource::new(t.clone()),
            &IngestOptions::new().with_policy(DuplicatePolicy::Keep),
        )
        .unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn budget_derates_chunk_size() {
        let opts = IngestOptions::new()
            .with_chunk_nnz(1 << 24)
            .with_host_budget(64 << 20);
        assert!(opts.effective_chunk_nnz(3) < 1 << 24);
        let unbounded = IngestOptions::new().with_chunk_nnz(1 << 24);
        assert_eq!(unbounded.effective_chunk_nnz(3), 1 << 24);
    }

    #[test]
    fn progress_events_fire() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let chunks = Arc::new(AtomicUsize::new(0));
        let c2 = chunks.clone();
        let opts = IngestOptions::new()
            .with_chunk_nnz(2)
            .with_progress(Arc::new(move |e: &IngestEvent| {
                if matches!(e, IngestEvent::ChunkRead { .. }) {
                    c2.fetch_add(1, Ordering::Relaxed);
                }
            }));
        let text = "1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n";
        ingest(tns(text), &opts).unwrap();
        assert_eq!(chunks.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_tns_is_typed_error() {
        let err = ingest(tns("# only comments\n"), &IngestOptions::new());
        assert!(matches!(err, Err(TensorError::Invalid { .. })));
    }
}
