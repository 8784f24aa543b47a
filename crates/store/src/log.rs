//! The on-disk record-log format and its recovery-oriented replay.
//!
//! ```text
//! file   := header record*
//! header := magic("HGSTORE\0", 8 bytes) version(u32 LE)
//! record := len(u32 LE) checksum(u64 LE, FNV-1a over payload) payload(len bytes)
//! ```
//!
//! Payloads are UTF-8 JSON, one object per record, each carrying its own
//! `"v"` schema field on top of the file-level version (belt and braces:
//! the file version gates wholesale format changes, the record version lets
//! individual record kinds evolve).
//!
//! The crash model is append-only: the only writes during operation are
//! appends, so any corruption is either a *torn tail* (a crash mid-append)
//! or *bit rot* inside an already-written record. [`replay`] therefore
//! verifies every record's length and checksum in order and reports the
//! offset of the first bad byte — everything before it is intact by
//! construction, everything from it on is evidence to quarantine.

/// File magic: seven ASCII bytes plus a NUL so the file is never valid
/// UTF-8 text by accident.
pub const MAGIC: [u8; 8] = *b"HGSTORE\0";

/// File-format version. Bump on any layout change; [`replay`] refuses
/// mismatches with a typed error rather than guessing. Version 2 dropped
/// the execution engine from verdict keys.
pub const SCHEMA_VERSION: u32 = 2;

/// Bytes of file header (magic + version).
pub const FILE_HEADER_LEN: usize = MAGIC.len() + 4;

/// Bytes of per-record header (length + checksum).
pub const RECORD_HEADER_LEN: usize = 4 + 8;

/// Upper bound on a single record's payload. Lengths above this are
/// treated as corruption (a flipped length byte must not make replay try
/// to allocate gigabytes).
pub const MAX_RECORD_LEN: usize = 1 << 26;

/// FNV-1a over `bytes` — the checksum guarding each record's payload.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The file header for a fresh log.
pub fn file_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(FILE_HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out
}

/// Frames one payload as a record (length + checksum + payload).
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_RECORD_LEN);
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why [`replay`] stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Fewer bytes than a record header remain — a crash mid-append of the
    /// header itself.
    TornHeader,
    /// The header promises more payload bytes than the file holds — a
    /// crash mid-append of the payload.
    TornPayload {
        /// Bytes the record claimed.
        expected: usize,
        /// Bytes actually present.
        present: usize,
    },
    /// The length field exceeds [`MAX_RECORD_LEN`] — bit rot in the header.
    OversizedLength {
        /// The (bogus) claimed length.
        claimed: usize,
    },
    /// The payload's FNV-1a does not match the stored checksum — bit rot.
    ChecksumMismatch {
        /// Checksum stored in the record header.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
    /// The payload is not valid UTF-8 JSON framing (caught before the
    /// typed decoder ever runs).
    MalformedPayload,
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corruption::TornHeader => write!(f, "torn record header"),
            Corruption::TornPayload { expected, present } => {
                write!(f, "torn payload: {present} of {expected} bytes present")
            }
            Corruption::OversizedLength { claimed } => {
                write!(f, "implausible record length {claimed}")
            }
            Corruption::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
                )
            }
            Corruption::MalformedPayload => write!(f, "payload is not valid UTF-8"),
        }
    }
}

/// One intact record recovered by [`replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Byte offset of the record (its length field) in the file.
    pub offset: u64,
    /// The verified payload text.
    pub payload: String,
}

/// Outcome of replaying a log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replayed {
    /// Every record whose length and checksum verified, in append order.
    pub records: Vec<RawRecord>,
    /// Length of the intact prefix; bytes past this are corrupt or torn.
    pub good_len: u64,
    /// Why the scan stopped early, when it did.
    pub corruption: Option<Corruption>,
}

/// Errors that make a file unusable as a store log *as a whole* — as
/// opposed to per-record corruption, which is recovered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// The file does not begin with the store magic: refuse to touch it
    /// (it is probably not ours to truncate).
    NotAStoreLog,
    /// The file is a store log from a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
}

/// Verifies the file header and replays every record.
///
/// A file shorter than the header that is a strict prefix of a valid
/// header is treated as a torn creation: zero records, `good_len` 0, the
/// whole file quarantinable. Anything else that fails the magic check is
/// [`HeaderError::NotAStoreLog`] — evidence preservation beats eagerness.
///
/// # Errors
///
/// Returns a [`HeaderError`] for whole-file refusals; per-record problems
/// are reported in [`Replayed::corruption`] instead.
pub fn replay(bytes: &[u8]) -> Result<Replayed, HeaderError> {
    let header = file_header();
    if bytes.len() < FILE_HEADER_LEN {
        return if header.starts_with(bytes) {
            Ok(Replayed {
                records: Vec::new(),
                good_len: 0,
                corruption: Some(Corruption::TornHeader),
            })
        } else {
            Err(HeaderError::NotAStoreLog)
        };
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(HeaderError::NotAStoreLog);
    }
    let found = u32::from_le_bytes(
        bytes[MAGIC.len()..FILE_HEADER_LEN]
            .try_into()
            .expect("slice is 4 bytes"),
    );
    if found != SCHEMA_VERSION {
        return Err(HeaderError::VersionMismatch {
            found,
            expected: SCHEMA_VERSION,
        });
    }

    let mut records = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    let corruption = loop {
        if pos == bytes.len() {
            break None;
        }
        if bytes.len() - pos < RECORD_HEADER_LEN {
            break Some(Corruption::TornHeader);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        if len > MAX_RECORD_LEN {
            break Some(Corruption::OversizedLength { claimed: len });
        }
        let body_start = pos + RECORD_HEADER_LEN;
        if bytes.len() - body_start < len {
            break Some(Corruption::TornPayload {
                expected: len,
                present: bytes.len() - body_start,
            });
        }
        let payload = &bytes[body_start..body_start + len];
        let computed = fnv1a(payload);
        if computed != stored {
            break Some(Corruption::ChecksumMismatch { stored, computed });
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break Some(Corruption::MalformedPayload);
        };
        records.push(RawRecord {
            offset: pos as u64,
            payload: text.to_string(),
        });
        pos = body_start + len;
    };
    Ok(Replayed {
        records,
        good_len: pos as u64,
        corruption,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(payloads: &[&str]) -> Vec<u8> {
        let mut out = file_header();
        for p in payloads {
            out.extend_from_slice(&encode_record(p.as_bytes()));
        }
        out
    }

    #[test]
    fn replays_clean_logs_byte_exactly() {
        let img = image(&["{\"a\":1}", "{\"b\":2}"]);
        let r = replay(&img).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].payload, "{\"a\":1}");
        assert_eq!(r.records[1].payload, "{\"b\":2}");
        assert_eq!(r.good_len, img.len() as u64);
        assert_eq!(r.corruption, None);
        // Offsets point at each record's length field.
        assert_eq!(r.records[0].offset, FILE_HEADER_LEN as u64);
    }

    #[test]
    fn truncation_at_every_byte_offset_recovers_the_intact_prefix() {
        let payloads = ["{\"a\":1}", "{\"b\":22}", "{\"c\":333}"];
        let img = image(&payloads);
        let mut boundaries = vec![FILE_HEADER_LEN as u64];
        {
            let full = replay(&img).unwrap();
            for w in full.records.windows(2) {
                boundaries.push(w[1].offset);
            }
            boundaries.push(img.len() as u64);
        }
        for cut in FILE_HEADER_LEN..img.len() {
            let r = replay(&img[..cut]).unwrap();
            // Every record before the last boundary ≤ cut is recovered.
            let intact = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(r.records.len(), intact, "cut at {cut}");
            for (rec, want) in r.records.iter().zip(payloads) {
                assert_eq!(rec.payload, *want, "cut at {cut}");
            }
            if boundaries.contains(&(cut as u64)) {
                // A cut exactly on a record boundary leaves a clean,
                // shorter log — nothing torn.
                assert_eq!(r.corruption, None, "cut at {cut}");
                assert_eq!(r.good_len, cut as u64);
            } else {
                assert!(r.corruption.is_some(), "cut at {cut} must report torn data");
                assert!(r.good_len <= cut as u64);
            }
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let img = image(&["{\"a\":1}", "{\"b\":2}"]);
        for bit in (FILE_HEADER_LEN * 8)..(img.len() * 8) {
            let mut flipped = img.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let r = replay(&flipped).unwrap();
            assert!(
                r.corruption.is_some() || r.records.len() == 2,
                "flip at bit {bit} silently altered the log"
            );
            // A flip in record 2 never disturbs record 1.
            let second_start = replay(&img).unwrap().records[1].offset as usize * 8;
            if bit >= second_start {
                assert_eq!(r.records[0].payload, "{\"a\":1}", "flip at bit {bit}");
            }
        }
    }

    #[test]
    fn header_problems_are_typed() {
        assert_eq!(replay(b"not a log at all"), Err(HeaderError::NotAStoreLog));
        let mut wrong_version = file_header();
        wrong_version[MAGIC.len()..].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            replay(&wrong_version),
            Err(HeaderError::VersionMismatch {
                found: 99,
                expected: SCHEMA_VERSION
            })
        );
        // A torn header (strict prefix) is recoverable, not a refusal.
        let r = replay(&file_header()[..5]).unwrap();
        assert_eq!(r.good_len, 0);
        assert_eq!(r.corruption, Some(Corruption::TornHeader));
        // An empty file is a torn creation too.
        let r = replay(b"").unwrap();
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.corruption, Some(Corruption::TornHeader));
    }

    #[test]
    fn oversized_length_is_corruption_not_allocation() {
        let mut img = file_header();
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        img.extend_from_slice(&0u64.to_le_bytes());
        img.extend_from_slice(b"garbage");
        let r = replay(&img).unwrap();
        assert_eq!(r.records.len(), 0);
        assert!(matches!(
            r.corruption,
            Some(Corruption::OversizedLength { .. })
        ));
        assert_eq!(r.good_len, FILE_HEADER_LEN as u64);
    }
}
