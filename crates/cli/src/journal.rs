//! Crash-safe sweep checkpoint journal.
//!
//! `nvp sweep --out FILE` records every completed grid point in a sidecar
//! journal (`FILE.journal`) so a killed run can be resumed with `--resume`
//! without recomputing finished work. The format is deliberately simple —
//! versioned, line-oriented, append-only text, no dependencies:
//!
//! ```text
//! nvp-sweep-journal v1 fp=<16-hex fingerprint> steps=<grid size>
//! p <index> <x as f64 bits, 16 hex> <value as f64 bits, 16 hex> <ok|degraded>
//! ```
//!
//! Crash-consistency rules:
//!
//! * The header is written to a temporary sibling file and renamed into
//!   place, so a journal either exists with a valid header or not at all.
//! * Each point line is flushed and fsync'd before the sweep moves on; a
//!   point is journaled only *after* its value exists.
//! * On resume, a torn tail (a partial final line from a crash mid-append)
//!   is truncated away, not treated as corruption of the whole journal.
//! * Grid values are stored as exact `f64` bit patterns, so a resumed run
//!   reproduces the uninterrupted run's CSV byte for byte.
//!
//! The fingerprint in the header hashes every input that determines the
//! sweep's output (parameters, policy, axis, bounds, step count, state-space
//! cap); `--resume` against a journal from a different invocation is a hard
//! error rather than a silently mixed result.

use nvp_store::atomic::write_atomic;
use nvp_store::record::fnv1a64;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic token opening every journal header.
const MAGIC: &str = "nvp-sweep-journal";

/// Journal format version; bumped on any incompatible layout change.
const VERSION: u32 = 1;

/// FNV-1a 64-bit hash of a run description — the journal's fingerprint.
/// Stable across runs and platforms; collisions are irrelevant at the "did
/// you point `--resume` at the wrong journal" scale this guards against.
pub fn fingerprint(description: &str) -> u64 {
    fnv1a64(description.as_bytes())
}

/// One completed grid point as recorded in (or replayed from) a journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalPoint {
    /// Position in the sweep grid.
    pub index: usize,
    /// Grid value (the swept parameter).
    pub x: f64,
    /// Computed expected reliability at `x`.
    pub value: f64,
    /// Whether the value came from a fallback (degraded) solve.
    pub degraded: bool,
}

impl JournalPoint {
    fn to_line(self) -> String {
        format!(
            "p {} {:016x} {:016x} {}\n",
            self.index,
            self.x.to_bits(),
            self.value.to_bits(),
            if self.degraded { "degraded" } else { "ok" }
        )
    }

    fn parse(line: &str) -> Option<JournalPoint> {
        let mut fields = line.split(' ');
        if fields.next()? != "p" {
            return None;
        }
        let index: usize = fields.next()?.parse().ok()?;
        let x = f64::from_bits(u64::from_str_radix(fields.next()?, 16).ok()?);
        let value = f64::from_bits(u64::from_str_radix(fields.next()?, 16).ok()?);
        let degraded = match fields.next()? {
            "ok" => false,
            "degraded" => true,
            _ => return None,
        };
        if fields.next().is_some() {
            return None;
        }
        Some(JournalPoint {
            index,
            x,
            value,
            degraded,
        })
    }
}

fn header_line(fingerprint: u64, steps: usize) -> String {
    format!("{MAGIC} v{VERSION} fp={fingerprint:016x} steps={steps}\n")
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// An open, append-mode sweep journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any previous one)
    /// whose header is written atomically: a temporary sibling file is
    /// populated, synced, and renamed into place.
    ///
    /// # Errors
    ///
    /// I/O errors creating, writing or renaming the file.
    pub fn create(path: &Path, fingerprint: u64, steps: usize) -> io::Result<Journal> {
        write_atomic(path, header_line(fingerprint, steps).as_bytes())?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Opens an existing journal for resumption: validates the header
    /// against this run's `fingerprint` and `steps`, replays every complete
    /// point line, truncates a torn tail (a partial or unparsable final
    /// line left by a crash mid-append), and reopens the file for
    /// appending.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] when the header is
    /// missing, from an incompatible version, or fingerprinted for a
    /// different sweep.
    pub fn resume(
        path: &Path,
        fingerprint: u64,
        steps: usize,
    ) -> io::Result<(Journal, Vec<JournalPoint>)> {
        // Read raw bytes, not a String: a bit-flipped journal may hold
        // invalid UTF-8, and that is line-level damage to truncate like any
        // torn tail — not a reason to refuse the whole journal with a bare
        // decode error.
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let expected_header = header_line(fingerprint, steps);
        let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
            return Err(invalid(format!(
                "journal `{}` has no complete header line; delete it to start over",
                path.display()
            )));
        };
        let header = &bytes[..=header_end];
        if header != expected_header.as_bytes() {
            return Err(invalid(format!(
                "journal `{}` does not match this sweep (its header is `{}`, this run \
                 expects `{}`); it records a different invocation — delete it or change \
                 --out to start over",
                path.display(),
                String::from_utf8_lossy(header).trim_end(),
                expected_header.trim_end(),
            )));
        }
        let mut points = Vec::new();
        // Byte offset of the end of the last intact line; everything after
        // it is a torn tail to truncate away.
        let mut keep = header_end + 1;
        while keep < bytes.len() {
            let rest = &bytes[keep..];
            let Some(newline) = rest.iter().position(|&b| b == b'\n') else {
                break; // partial final line: the append was interrupted
            };
            let line = &rest[..newline];
            let Some(point) = std::str::from_utf8(line)
                .ok() // non-UTF-8 bytes: corruption, distrust from here on
                .and_then(JournalPoint::parse)
            else {
                break; // unparsable line: treat it and the rest as torn
            };
            points.push(point);
            keep += newline + 1;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        if keep < bytes.len() {
            file.set_len(keep as u64)?;
            file.sync_data()?;
        }
        Ok((Journal { file }, points))
    }

    /// Appends one completed point and forces it to stable storage before
    /// returning — after `append` succeeds, a crash cannot lose the point.
    ///
    /// # Errors
    ///
    /// I/O errors writing or syncing.
    pub fn append(&mut self, point: &JournalPoint) -> io::Result<()> {
        self.file.write_all(point.to_line().as_bytes())?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nvp-journal-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(index: usize, x: f64, value: f64, degraded: bool) -> JournalPoint {
        JournalPoint {
            index,
            x,
            value,
            degraded,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("a|b|c"), fingerprint("a|b|c"));
        assert_ne!(fingerprint("a|b|c"), fingerprint("a|b|d"));
    }

    #[test]
    fn points_round_trip_exactly_including_awkward_floats() {
        for p in [
            point(0, 0.1 + 0.2, 0.938_174_255, false),
            point(17, -0.0, f64::MIN_POSITIVE, true),
            point(usize::MAX, 1e300, 5e-324, false),
        ] {
            let line = p.to_line();
            let parsed = JournalPoint::parse(line.trim_end()).unwrap();
            assert_eq!(parsed.index, p.index);
            assert_eq!(parsed.x.to_bits(), p.x.to_bits());
            assert_eq!(parsed.value.to_bits(), p.value.to_bits());
            assert_eq!(parsed.degraded, p.degraded);
        }
        for bad in [
            "q 0 0 0 ok",
            "p x 0 0 ok",
            "p 0 0 0 maybe",
            "p 0 0 0 ok extra",
            "p 0 0",
            "",
        ] {
            assert!(JournalPoint::parse(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn create_append_resume_round_trips() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("sweep.csv.journal");
        let fp = fingerprint("demo");
        let mut journal = Journal::create(&path, fp, 3).unwrap();
        journal.append(&point(0, 300.0, 0.9, false)).unwrap();
        journal.append(&point(2, 900.0, 0.8, true)).unwrap();
        drop(journal);
        let (_journal, points) = Journal::resume(&path, fp, 3).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0], point(0, 300.0, 0.9, false));
        assert_eq!(points[1], point(2, 900.0, 0.8, true));
    }

    #[test]
    fn a_torn_tail_is_truncated_and_appending_continues_cleanly() {
        let dir = temp_dir("torn");
        let path = dir.join("sweep.csv.journal");
        let fp = fingerprint("demo");
        let mut journal = Journal::create(&path, fp, 4).unwrap();
        journal.append(&point(0, 1.0, 0.5, false)).unwrap();
        drop(journal);
        // Simulate a crash mid-append: half a point line, no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"p 1 3ff0000").unwrap();
        drop(file);
        let (mut journal, points) = Journal::resume(&path, fp, 4).unwrap();
        assert_eq!(points, vec![point(0, 1.0, 0.5, false)]);
        journal.append(&point(1, 2.0, 0.25, false)).unwrap();
        drop(journal);
        // The torn bytes are gone; both points replay.
        let (_journal, points) = Journal::resume(&path, fp, 4).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1], point(1, 2.0, 0.25, false));
    }

    #[test]
    fn garbage_after_valid_points_is_dropped_like_a_torn_tail() {
        let dir = temp_dir("garbage");
        let path = dir.join("sweep.csv.journal");
        let fp = fingerprint("demo");
        let mut journal = Journal::create(&path, fp, 2).unwrap();
        journal.append(&point(0, 1.0, 0.5, false)).unwrap();
        drop(journal);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"not a point line\np 1 0 0 ok\n").unwrap();
        drop(file);
        // Everything from the first bad line on is distrusted.
        let (_journal, points) = Journal::resume(&path, fp, 2).unwrap();
        assert_eq!(points, vec![point(0, 1.0, 0.5, false)]);
    }

    #[test]
    fn non_utf8_corruption_is_a_torn_tail_not_a_decode_error() {
        let dir = temp_dir("non-utf8");
        let path = dir.join("sweep.csv.journal");
        let fp = fingerprint("demo");
        let mut journal = Journal::create(&path, fp, 3).unwrap();
        journal.append(&point(0, 1.0, 0.5, false)).unwrap();
        drop(journal);
        // A bit-flipped line holding invalid UTF-8, followed by a line that
        // would otherwise parse: everything from the damage on is torn.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"p 1 \xff\xfe\x80 0 ok\np 2 0 0 ok\n")
            .unwrap();
        drop(file);
        let (mut journal, points) = Journal::resume(&path, fp, 3).unwrap();
        assert_eq!(points, vec![point(0, 1.0, 0.5, false)]);
        // The truncated journal accepts appends and replays cleanly.
        journal.append(&point(1, 2.0, 0.25, true)).unwrap();
        drop(journal);
        let (_journal, points) = Journal::resume(&path, fp, 3).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1], point(1, 2.0, 0.25, true));
    }

    #[test]
    fn concurrent_atomic_writers_cannot_clobber_each_others_temps() {
        // Regression guard for the fixed-name `.tmp` sibling: two writers
        // publishing the same path concurrently must each keep their own
        // temp file, so the published file is always one writer's complete
        // bytes.
        let dir = temp_dir("concurrent-atomic");
        let path = dir.join("contested.csv");
        std::thread::scope(|scope| {
            for id in 0..4u8 {
                let path = &path;
                scope.spawn(move || {
                    let payload = vec![b'a' + id; 256];
                    for _ in 0..25 {
                        write_atomic(path, &payload).unwrap();
                    }
                });
            }
        });
        let published = std::fs::read(&path).unwrap();
        assert_eq!(published.len(), 256);
        assert!(published.iter().all(|&b| b == published[0]));
    }

    #[test]
    fn mismatched_runs_are_rejected_with_a_clear_error() {
        let dir = temp_dir("mismatch");
        let path = dir.join("sweep.csv.journal");
        let fp = fingerprint("run A");
        drop(Journal::create(&path, fp, 3).unwrap());
        for (other_fp, steps) in [(fingerprint("run B"), 3), (fp, 4)] {
            let err = Journal::resume(&path, other_fp, steps).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("does not match"), "{err}");
        }
        // An empty file (crash before the rename? someone touched it) is
        // rejected, not silently treated as complete.
        std::fs::write(&path, "").unwrap();
        let err = Journal::resume(&path, fp, 3).unwrap_err();
        assert!(err.to_string().contains("no complete header"), "{err}");
    }
}
