//! Binary record codec for persisted chain solves.
//!
//! A record is self-validating: a fixed header carries a magic, the format
//! version, the lengths of the key and payload regions, and an FNV-1a 64
//! checksum over both regions. Decoding re-derives the checksum and rejects
//! any record whose header, lengths, or checksum disagree with the bytes on
//! disk — a truncated file, a bit flip anywhere in key or payload, or
//! trailing garbage all surface as [`DecodeError::Corrupt`], never as a
//! silently wrong solution.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"NVPSOLV1"
//!      8     4  format version (u32) — bump on any layout change
//!     12     4  key length (u32)
//!     16     8  payload length (u64)
//!     24     8  FNV-1a 64 checksum over key bytes ++ payload bytes
//!     32     K  key bytes (caller-defined stable serialization)
//!   32+K     P  payload bytes (the SolveRecord encoding below)
//! ```
//!
//! The full key bytes are stored — not just their hash — so a filename
//! hash collision is detected by comparing keys and degrades to a miss.
//!
//! Floats are stored as their exact IEEE-754 bit patterns (`f64::to_bits`),
//! so a warm load reproduces the cold solve bit for bit.

/// Magic prefix of every store record.
pub const MAGIC: [u8; 8] = *b"NVPSOLV1";

/// On-disk format version. Bump whenever the header, key, or payload
/// layout changes; readers treat any other version as a miss-equivalent
/// mismatch (the record is simply not for them), not corruption.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — the workspace-wide fingerprint function. Used for
/// the record checksum, for deriving content-addressed filenames, for the
/// sweep journal's grid fingerprint and for `nvp serve`'s retry jitter.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How a stored solve was produced when the exact solver gave up — enough
/// to replay the degraded classification (and exit code) on a warm load.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRecord {
    /// Degraded-method discriminant (owned by the engine; opaque here).
    pub method: u8,
    /// Human-readable reason recorded at solve time.
    pub reason: String,
    /// Monte-Carlo half-widths (empty for non-sampling fallbacks), exact
    /// bit patterns.
    pub half_widths: Vec<f64>,
}

/// The persisted portion of a chain solve: the steady-state vector with
/// exact bit patterns, the graph dimensions it was solved over, the
/// deterministic solver counters, and the degraded flag.
///
/// Run-dependent solver counters (worker/parallelism accounting) are *not*
/// stored — they describe the machine the solve ran on, not the solution —
/// and are zeroed on a warm load.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveRecord {
    /// Steady-state probability per tangible marking, exact bit patterns.
    pub probabilities: Vec<f64>,
    /// Tangible markings in the reachability graph (must match a fresh
    /// exploration for the record to be trusted).
    pub tangible_markings: u64,
    /// Vanishing markings visited during exploration.
    pub vanishing_visits: u64,
    /// Timed arcs in the graph.
    pub timed_arcs: u64,
    /// Arcs dropped for having zero rate.
    pub zero_rate_arcs: u64,
    /// Solve-method discriminant (owned by the engine; opaque here).
    pub method: u8,
    /// Stationary-backend discriminant (owned by the engine; opaque here).
    pub backend: u8,
    /// Markings as counted by the solver.
    pub solver_markings: u64,
    /// Subordinated chains solved.
    pub subordinated_chains: u64,
    /// Largest subordinated chain.
    pub max_subordinated_states: u64,
    /// Sum of subordinated chain sizes.
    pub total_subordinated_states: u64,
    /// Deepest uniformization truncation.
    pub max_truncation_steps: u64,
    /// Probability-guard interventions.
    pub guard_trips: u64,
    /// Subordinated chains solved; written equal to `subordinated_chains`
    /// (older records counted structural equivalence classes here).
    pub dedup_classes: u64,
    /// Written as 0 (older records counted chain solves shared with an
    /// equivalent chain); kept so the record format does not change.
    pub dedup_hits: u64,
    /// Written as 0 (older records counted uniformization series cut short
    /// by a since-removed steady-state check); kept so the record format
    /// does not change.
    pub steady_state_detections: u64,
    /// Present when the exact solve fell back to a degraded method.
    pub degraded: Option<DegradedRecord>,
}

/// Why a record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes are damaged: bad magic, impossible lengths, checksum
    /// mismatch, or a malformed payload behind a (collision-level
    /// improbable) valid checksum. The entry must be quarantined.
    Corrupt(&'static str),
    /// The record is intact but written by a different format version —
    /// treat as a miss and overwrite.
    VersionMismatch {
        /// Version found in the record header.
        found: u32,
    },
    /// The record is intact but stores a different key (filename hash
    /// collision) — treat as a miss, do not quarantine.
    KeyMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Corrupt(reason) => write!(f, "corrupt record: {reason}"),
            Self::VersionMismatch { found } => {
                write!(f, "record format v{found}, expected v{FORMAT_VERSION}")
            }
            Self::KeyMismatch => f.write_str("record stores a different key (hash collision)"),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_f64_slice(out: &mut Vec<u8>, values: &[f64]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u64(out, v.to_bits());
    }
}

/// Sequential little-endian reader over the payload region.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(DecodeError::Corrupt("payload shorter than its fields"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn len_prefixed(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        // A length can never exceed the bytes that remain; this bounds
        // allocations on corrupt-but-checksum-colliding inputs.
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.bytes.len().saturating_sub(self.pos) / 8 + 1)
            .ok_or(DecodeError::Corrupt(what))
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.len_prefixed("float vector length exceeds payload")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f64::from_bits(self.u64()?));
        }
        Ok(out)
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_payload(record: &SolveRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + record.probabilities.len() * 8 + 128);
    put_f64_slice(&mut out, &record.probabilities);
    put_u64(&mut out, record.tangible_markings);
    put_u64(&mut out, record.vanishing_visits);
    put_u64(&mut out, record.timed_arcs);
    put_u64(&mut out, record.zero_rate_arcs);
    out.push(record.method);
    out.push(record.backend);
    put_u64(&mut out, record.solver_markings);
    put_u64(&mut out, record.subordinated_chains);
    put_u64(&mut out, record.max_subordinated_states);
    put_u64(&mut out, record.total_subordinated_states);
    put_u64(&mut out, record.max_truncation_steps);
    put_u64(&mut out, record.guard_trips);
    put_u64(&mut out, record.dedup_classes);
    put_u64(&mut out, record.dedup_hits);
    put_u64(&mut out, record.steady_state_detections);
    match &record.degraded {
        None => out.push(0),
        Some(d) => {
            out.push(1);
            out.push(d.method);
            put_u32(&mut out, u32::try_from(d.reason.len()).unwrap_or(u32::MAX));
            out.extend_from_slice(d.reason.as_bytes());
            put_f64_slice(&mut out, &d.half_widths);
        }
    }
    out
}

fn decode_payload(bytes: &[u8]) -> Result<SolveRecord, DecodeError> {
    let mut c = Cursor::new(bytes);
    let probabilities = c.f64_vec()?;
    let mut record = SolveRecord {
        probabilities,
        tangible_markings: c.u64()?,
        vanishing_visits: c.u64()?,
        timed_arcs: c.u64()?,
        zero_rate_arcs: c.u64()?,
        method: c.u8()?,
        backend: c.u8()?,
        solver_markings: c.u64()?,
        subordinated_chains: c.u64()?,
        max_subordinated_states: c.u64()?,
        total_subordinated_states: c.u64()?,
        max_truncation_steps: c.u64()?,
        guard_trips: c.u64()?,
        dedup_classes: c.u64()?,
        dedup_hits: c.u64()?,
        steady_state_detections: c.u64()?,
        degraded: None,
    };
    match c.u8()? {
        0 => {}
        1 => {
            let method = c.u8()?;
            let reason_len = u32::from_le_bytes(c.take(4)?.try_into().unwrap()) as usize;
            let reason = std::str::from_utf8(c.take(reason_len)?)
                .map_err(|_| DecodeError::Corrupt("degraded reason is not UTF-8"))?
                .to_owned();
            let half_widths = c.f64_vec()?;
            record.degraded = Some(DegradedRecord {
                method,
                reason,
                half_widths,
            });
        }
        _ => return Err(DecodeError::Corrupt("bad degraded flag")),
    }
    if !c.finished() {
        return Err(DecodeError::Corrupt("payload has trailing bytes"));
    }
    Ok(record)
}

/// Encodes `record` under `key` as a complete on-disk record:
/// header ++ key ++ payload, checksummed.
#[must_use]
pub fn encode(key: &[u8], record: &SolveRecord) -> Vec<u8> {
    let payload = encode_payload(record);
    let mut checksummed = Vec::with_capacity(key.len() + payload.len());
    checksummed.extend_from_slice(key);
    checksummed.extend_from_slice(&payload);
    let checksum = fnv1a64(&checksummed);

    let mut out = Vec::with_capacity(HEADER_LEN + checksummed.len());
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, u32::try_from(key.len()).expect("key fits in u32"));
    put_u64(&mut out, payload.len() as u64);
    put_u64(&mut out, checksum);
    out.extend_from_slice(&checksummed);
    out
}

/// Validates and decodes an on-disk record, checking magic, version,
/// lengths, checksum, and — when `expected_key` is `Some` — that the
/// stored key matches byte for byte.
///
/// # Errors
///
/// [`DecodeError::Corrupt`] for damaged bytes (quarantine the file),
/// [`DecodeError::VersionMismatch`] / [`DecodeError::KeyMismatch`] for
/// intact records that simply are not the one asked for (treat as a miss).
pub fn decode(bytes: &[u8], expected_key: Option<&[u8]>) -> Result<SolveRecord, DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Corrupt("shorter than the fixed header"));
    }
    if bytes[0..8] != MAGIC {
        return Err(DecodeError::Corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let key_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());

    let body = &bytes[HEADER_LEN..];
    let expected_body = (key_len as u64)
        .checked_add(payload_len)
        .ok_or(DecodeError::Corrupt("impossible region lengths"))?;
    if expected_body != body.len() as u64 {
        return Err(DecodeError::Corrupt("file size disagrees with header"));
    }
    if fnv1a64(body) != checksum {
        return Err(DecodeError::Corrupt("checksum mismatch"));
    }
    // Only now — once the bytes are known intact — distinguish "not the
    // record we wanted" from corruption.
    if version != FORMAT_VERSION {
        return Err(DecodeError::VersionMismatch { found: version });
    }
    let (key, payload) = body.split_at(key_len);
    if let Some(expected) = expected_key {
        if key != expected {
            return Err(DecodeError::KeyMismatch);
        }
    }
    decode_payload(payload)
}

/// Returns the key bytes stored in an intact record, without decoding the
/// payload. Used by `verify`-style tooling that has no expected key.
///
/// # Errors
///
/// Same corruption/version classification as [`decode`].
pub fn stored_key(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    decode(bytes, None)?;
    let key_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    Ok(&bytes[HEADER_LEN..HEADER_LEN + key_len])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolveRecord {
        SolveRecord {
            probabilities: vec![0.125, 0.375, 0.5, 1e-300, f64::MIN_POSITIVE],
            tangible_markings: 5,
            vanishing_visits: 3,
            timed_arcs: 9,
            zero_rate_arcs: 1,
            method: 2,
            backend: 0,
            solver_markings: 5,
            subordinated_chains: 4,
            max_subordinated_states: 3,
            total_subordinated_states: 10,
            max_truncation_steps: 41,
            guard_trips: 0,
            dedup_classes: 2,
            dedup_hits: 2,
            steady_state_detections: 1,
            degraded: None,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let record = sample();
        let bytes = encode(b"key-bytes", &record);
        let decoded = decode(&bytes, Some(b"key-bytes")).unwrap();
        assert_eq!(decoded, record);
        // Bit-exactness, not just value equality.
        for (a, b) in decoded
            .probabilities
            .iter()
            .zip(record.probabilities.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn roundtrip_preserves_degraded_info() {
        let mut record = sample();
        record.degraded = Some(DegradedRecord {
            method: 1,
            reason: "solver panicked: näN".to_owned(),
            half_widths: vec![0.01, 0.002],
        });
        let bytes = encode(b"k", &record);
        assert_eq!(decode(&bytes, Some(b"k")).unwrap(), record);
    }

    #[test]
    fn negative_zero_and_nan_bit_patterns_survive() {
        let mut record = sample();
        record.probabilities = vec![-0.0, f64::from_bits(0x7ff8_0000_0000_1234)];
        let bytes = encode(b"k", &record);
        let decoded = decode(&bytes, Some(b"k")).unwrap();
        assert_eq!(decoded.probabilities[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(decoded.probabilities[1].to_bits(), 0x7ff8_0000_0000_1234);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let record = sample();
        let good = encode(b"some key", &record);
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                let result = decode(&bad, Some(b"some key"));
                assert!(
                    result != Ok(record.clone()),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let good = encode(b"some key", &sample());
        for len in 0..good.len() {
            assert!(
                matches!(
                    decode(&good[..len], Some(b"some key")),
                    Err(DecodeError::Corrupt(_))
                ),
                "truncation to {len} bytes went unnoticed"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = encode(b"k", &sample());
        bytes.push(0);
        assert!(matches!(
            decode(&bytes, Some(b"k")),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn key_mismatch_is_a_miss_not_corruption() {
        let bytes = encode(b"key-a", &sample());
        assert_eq!(
            decode(&bytes, Some(b"key-b")),
            Err(DecodeError::KeyMismatch)
        );
        assert_eq!(stored_key(&bytes).unwrap(), b"key-a");
    }

    #[test]
    fn future_format_version_is_a_version_mismatch() {
        let mut bytes = encode(b"k", &sample());
        // Rewrite the version field and fix nothing else: the checksum
        // does not cover the header, so the record is still "intact".
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode(&bytes, Some(b"k")),
            Err(DecodeError::VersionMismatch { found: 2 })
        );
    }

    #[test]
    fn empty_record_roundtrips() {
        let record = SolveRecord::default();
        let bytes = encode(b"", &record);
        assert_eq!(decode(&bytes, Some(b"")).unwrap(), record);
    }
}
