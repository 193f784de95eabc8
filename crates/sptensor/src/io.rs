//! FROSTT `.tns` text and `SPT1` binary writers, plus the duplicate
//! policy readers honor. Reading goes through [`crate::ingest`] with a
//! [`TnsSource`](crate::TnsSource) or [`BinSource`](crate::BinSource).
//!
//! The paper's datasets come from FROSTT and HaTen2 in the `.tns` format:
//! one nonzero per line, whitespace-separated **1-based** indices followed
//! by the value. Lines starting with `#` are comments. There is no header;
//! the mode extents are the per-mode maxima. This reproduction runs on
//! synthetic stand-ins by default, but real data can be dropped in through
//! this module.

use std::io::{self, Write};

use crate::CooTensor;

/// What to do when two input nonzeros carry identical coordinates.
///
/// FROSTT files are supposed to be duplicate-free, but real exports are
/// not always clean, and which entry "wins" changes the tensor — so the
/// choice is surfaced as an explicit policy instead of a silent default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Fail with [`TensorError::Duplicate`] naming the line of the second
    /// occurrence. The default: ambiguous input is an error.
    #[default]
    Reject,
    /// Sum the values of coinciding nonzeros (the MTTKRP-consistent
    /// interpretation: COO contributions add).
    Sum,
    /// Keep every entry as stored. Downstream kernels treat duplicates as
    /// additive COO entries; formats may fold them.
    Keep,
}

/// Writes a tensor in `.tns` text (1-based indices). Values use Rust's
/// shortest round-trip `f32` formatting, so a re-read reproduces every
/// bit; non-finite values (which the reader rejects) are refused here
/// rather than silently producing an unreadable file.
pub fn write_tns<W: Write>(t: &CooTensor, mut writer: W) -> io::Result<()> {
    let order = t.order();
    let mut buf = String::new();
    for z in 0..t.nnz() {
        buf.clear();
        for m in 0..order {
            buf.push_str(&(t.mode_indices(m)[z] + 1).to_string());
            buf.push(' ');
        }
        let v = t.values()[z];
        if !v.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-finite value at nonzero {z} cannot be written as .tns"),
            ));
        }
        buf.push_str(&format!("{v}"));
        buf.push('\n');
        writer.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// Writes one ingestion chunk's first `n` entries in `.tns` text, with
/// the exact formatting of [`write_tns`] (1-based indices, shortest
/// round-trip `f32`). Chunked generators stream arbitrarily large files
/// through this without a resident tensor; concatenating the chunks of a
/// tensor reproduces `write_tns` of that tensor byte for byte.
pub fn write_tns_chunk<W: Write>(
    chunk: &crate::source::CooChunk,
    n: usize,
    writer: &mut W,
) -> io::Result<()> {
    let order = chunk.order();
    let mut buf = String::new();
    for z in 0..n {
        buf.clear();
        for m in 0..order {
            buf.push_str(&(chunk.coords[m][z] + 1).to_string());
            buf.push(' ');
        }
        let v = chunk.vals[z];
        if !v.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-finite value at chunk entry {z} cannot be written as .tns"),
            ));
        }
        buf.push_str(&format!("{v}"));
        buf.push('\n');
        writer.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// Magic prefix of the binary tensor format.
pub const BIN_MAGIC: &[u8; 4] = b"SPT1";

/// Writes a tensor in the crate's little-endian binary format:
/// `"SPT1"`, `u8` order, `order × u32` extents, `u64` nonzero count, the
/// mode index arrays (`u32` each), then the values (`f32`). Roughly 10×
/// faster to load than `.tns` text — useful for caching generated
/// stand-ins between experiment runs. Read it back with
/// [`BinSource`](crate::BinSource).
pub fn write_bin<W: Write>(t: &CooTensor, mut w: W) -> io::Result<()> {
    w.write_all(BIN_MAGIC)?;
    w.write_all(&[t.order() as u8])?;
    for &d in t.dims() {
        w.write_all(&d.to_le_bytes())?;
    }
    w.write_all(&(t.nnz() as u64).to_le_bytes())?;
    for m in 0..t.order() {
        for &i in t.mode_indices(m) {
            w.write_all(&i.to_le_bytes())?;
        }
    }
    for &v in t.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ingest, BinSource, IngestOptions, TnsSource};
    use crate::{TensorError, TensorResult};
    use std::io::Cursor;

    /// `.tns` text through the ingestion API under `policy`.
    fn tns_with(text: &[u8], policy: DuplicatePolicy) -> TensorResult<CooTensor> {
        ingest(
            TnsSource::new(text),
            &IngestOptions::new().with_policy(policy),
        )
    }

    /// `.tns` text under the default policy (duplicates rejected).
    fn tns(text: &[u8]) -> TensorResult<CooTensor> {
        tns_with(text, DuplicatePolicy::Reject)
    }

    /// `SPT1` bytes through [`BinSource`], entries kept as stored.
    fn bin(bytes: &[u8]) -> TensorResult<CooTensor> {
        let opts = IngestOptions::new().with_policy(DuplicatePolicy::Keep);
        ingest(BinSource::new(Cursor::new(bytes))?, &opts)
    }

    #[test]
    fn round_trip() {
        let mut t = CooTensor::new(vec![3, 4, 5]);
        t.push(&[0, 1, 2], 1.5);
        t.push(&[2, 3, 4], -2.0);
        let mut out = Vec::new();
        write_tns(&t, &mut out).unwrap();
        let back = tns(&out[..]).unwrap();
        assert_eq!(back.nnz(), 2);
        assert_eq!(back.dims(), &[3, 4, 5]);
        assert_eq!(back.coords_of(1), vec![2, 3, 4]);
        assert_eq!(back.values(), &[1.5, -2.0]);
    }

    #[test]
    fn chunked_write_reproduces_write_tns_bytes() {
        let t = crate::synth::uniform_random(&[6, 7, 8], 300, 3);
        let mut whole = Vec::new();
        write_tns(&t, &mut whole).unwrap();
        // Stream the same tensor through uneven chunk boundaries.
        let mut chunked = Vec::new();
        let mut src = crate::source::CooSource::new(t);
        let mut chunk = crate::source::CooChunk::default();
        loop {
            let n = crate::source::TensorSource::fill_chunk(&mut src, 17, &mut chunk).unwrap();
            if n == 0 {
                break;
            }
            write_tns_chunk(&chunk, n, &mut chunked).unwrap();
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn chunked_write_rejects_non_finite() {
        let mut chunk = crate::source::CooChunk::with_order(3);
        chunk.push(&[0, 0, 0], f32::NAN, 1);
        let mut out = Vec::new();
        assert!(write_tns_chunk(&chunk, 1, &mut out).is_err());
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# a comment\n\n1 1 1 3.0\n2 2 2 4.0\n";
        let t = tns(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.dims(), &[2, 2, 2]);
    }

    #[test]
    fn rejects_zero_index() {
        let text = "0 1 1 3.0\n";
        assert!(tns(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "1 1 1 3.0\n1 1 4.0\n";
        assert!(tns(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_empty_input() {
        let text = "# only comments\n";
        assert!(tns(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_non_finite_values_with_line_number() {
        for bad in ["NaN", "inf", "-inf", "Infinity"] {
            let text = format!("# header\n1 1 1 3.0\n2 2 2 {bad}\n");
            let err = tns(text.as_bytes()).expect_err("non-finite must be rejected");
            match err {
                TensorError::Parse { line, ref msg } => {
                    assert_eq!(line, 3, "{bad}: wrong line in {err}");
                    assert!(msg.contains("non-finite"), "{bad}: {msg}");
                }
                other => panic!("{bad}: expected Parse error, got {other}"),
            }
        }
    }

    #[test]
    fn errors_carry_one_based_line_numbers() {
        let text = "1 1 1 3.0\n0 1 1 2.0\n";
        match tns(text.as_bytes()) {
            Err(TensorError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn parses_scientific_values() {
        let text = "1 2 3 1e-3\n";
        let t = tns(text.as_bytes()).unwrap();
        assert!((t.values()[0] - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn binary_round_trip() {
        let t = crate::synth::uniform_random(&[20, 30, 40, 7], 500, 9);
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let back = bin(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOPE\x03".to_vec();
        assert!(bin(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let t = crate::synth::uniform_random(&[5, 5, 5], 50, 10);
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(bin(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_index() {
        let t = crate::synth::uniform_random(&[4, 4], 10, 11);
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        // Corrupt a mode-0 index to 255 (> extent 4). Header is
        // 4 (magic) + 1 (order) + 8 (dims) + 8 (nnz) = 21 bytes.
        buf[21] = 255;
        assert!(bin(&buf[..]).is_err());
    }

    #[test]
    fn binary_empty_tensor() {
        let t = CooTensor::new(vec![3, 3]);
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let back = bin(&buf[..]).unwrap();
        assert_eq!(back.nnz(), 0);
        assert_eq!(back.dims(), &[3, 3]);
    }

    #[test]
    fn duplicates_are_typed_errors_by_default() {
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n";
        match tns(text.as_bytes()) {
            Err(TensorError::Duplicate { line, ref coords }) => {
                assert_eq!(line, 3, "must name the second occurrence");
                assert_eq!(coords, &[0, 1, 2], "0-based stored coordinates");
            }
            other => panic!("expected Duplicate error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_policy_sum_folds_in_place() {
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n";
        let t = tns_with(text.as_bytes(), DuplicatePolicy::Sum).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.coords_of(0), vec![0, 1, 2]);
        assert_eq!(t.values(), &[5.0, 5.0], "sum lands at first occurrence");
    }

    #[test]
    fn duplicate_policy_keep_preserves_entries() {
        let text = "1 2 3 1.0\n1 2 3 4.0\n";
        let t = tns_with(text.as_bytes(), DuplicatePolicy::Keep).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.values(), &[1.0, 4.0]);
    }

    #[test]
    fn binary_rejects_zero_extent_and_huge_nnz() {
        // Header claiming order 2, dims [3, 0]: invalid structure.
        let mut buf = BIN_MAGIC.to_vec();
        buf.push(2);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(bin(&buf[..]), Err(TensorError::Invalid { .. })));

        // Header claiming 2^60 nonzeros over an empty body: must die on a
        // short read (capped preallocation), not an allocation abort.
        let mut buf = BIN_MAGIC.to_vec();
        buf.push(2);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(bin(&buf[..]), Err(TensorError::Io(_))));

        // A count whose total byte size overflows u64 is a typed error.
        let mut buf = BIN_MAGIC.to_vec();
        buf.push(255);
        for _ in 0..255 {
            buf.extend_from_slice(&1u32.to_le_bytes());
        }
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = bin(&buf[..]);
        assert!(err.is_err(), "overflowing size must be rejected");
    }

    mod prop {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        /// A syntactically valid `.tns` document with unique coordinates,
        /// as (text, sorted coordinate tuples, values).
        fn arb_valid_tns() -> impl Strategy<Value = (String, usize, usize)> {
            ((1usize..=4), (1usize..=30)).prop_flat_map(|(order, nnz)| {
                pvec(pvec(1u32..=50, order), nnz)
                    .prop_map(move |coords| {
                        let mut uniq: Vec<Vec<u32>> = coords;
                        uniq.sort();
                        uniq.dedup();
                        let mut text = String::from("# generated\n");
                        for (z, c) in uniq.iter().enumerate() {
                            for i in c {
                                text.push_str(&format!("{i} "));
                            }
                            text.push_str(&format!("{}.5\n", z + 1));
                        }
                        (text, order, uniq.len())
                    })
                    .boxed()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn parser_never_panics_on_arbitrary_bytes(bytes in pvec(any::<u8>(), 0..200)) {
                // Any outcome is fine; reaching it without a panic is the
                // property (lines() surfaces invalid UTF-8 as io errors).
                let _ = tns(&bytes[..]);
                let _ = bin(&bytes[..]);
            }

            #[test]
            fn parser_never_panics_on_arbitrary_lines(
                lines in pvec(pvec(prop_oneof![
                    Just("1".to_string()),
                    Just("0".to_string()),
                    Just("4294967295".to_string()),
                    Just("4294967296".to_string()),
                    Just("-3".to_string()),
                    Just("1.5".to_string()),
                    Just("NaN".to_string()),
                    Just("#".to_string()),
                    Just("x".to_string()),
                ], 0..6), 0..8),
            ) {
                let text = lines
                    .iter()
                    .map(|toks| toks.join(" "))
                    .collect::<Vec<_>>()
                    .join("\n");
                for policy in [DuplicatePolicy::Reject, DuplicatePolicy::Sum, DuplicatePolicy::Keep] {
                    if let Ok(t) = tns_with(text.as_bytes(), policy) {
                        prop_assert!(t.validate().is_ok(), "parser accepted an invalid tensor");
                    }
                }
            }

            #[test]
            fn valid_documents_round_trip(doc in arb_valid_tns()) {
                let (text, order, nnz) = doc;
                let t = tns(text.as_bytes())
                    .expect("valid unique-coordinate document");
                prop_assert_eq!(t.order(), order);
                prop_assert_eq!(t.nnz(), nnz);
                prop_assert!(t.validate().is_ok());
                let mut out = Vec::new();
                write_tns(&t, &mut out).expect("write to vec");
                let back = tns(&out[..]).expect("round trip");
                prop_assert_eq!(back, t);
            }

            #[test]
            fn values_survive_tns_bin_tns_bit_exact(
                bits in pvec(any::<u32>(), 1..40),
            ) {
                // Shortest round-trip text formatting must reproduce every
                // finite f32 bit pattern through tns -> bin -> tns.
                let vals: Vec<f32> = bits
                    .iter()
                    .map(|&b| f32::from_bits(b))
                    .filter(|v| v.is_finite())
                    .collect();
                prop_assume!(!vals.is_empty());
                let mut t = CooTensor::new(vec![vals.len() as u32, 2]);
                for (z, &v) in vals.iter().enumerate() {
                    t.push(&[z as u32, 1], v);
                }
                let mut text = Vec::new();
                write_tns(&t, &mut text).expect("write tns");
                let from_text = tns(&text[..]).expect("re-read tns");
                let mut spt1 = Vec::new();
                write_bin(&from_text, &mut spt1).expect("write bin");
                let from_bin = bin(&spt1[..]).expect("re-read bin");
                let mut text2 = Vec::new();
                write_tns(&from_bin, &mut text2).expect("write tns again");
                prop_assert_eq!(&text2, &text, "tns -> bin -> tns drifted");
                for (a, b) in from_bin.values().iter().zip(&vals) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "value bits drifted");
                }
            }

            #[test]
            fn corrupted_byte_never_panics_binary(
                seed in 0u64..1000,
                pos in 0usize..200,
                byte in any::<u8>(),
            ) {
                let t = crate::synth::uniform_random(&[6, 7, 8], 40, seed);
                let mut buf = Vec::new();
                write_bin(&t, &mut buf).expect("write");
                let pos = pos % buf.len();
                buf[pos] = byte;
                // Either a typed error or a structurally valid tensor.
                if let Ok(back) = bin(&buf[..]) {
                    prop_assert!(back.validate().is_ok());
                }
            }
        }
    }
}
