//! Crash-safe, concurrency-safe atomic file publication.
//!
//! [`write_atomic`] is the single primitive every durable artifact in the
//! workspace goes through (store records, sweep CSVs, journal headers): the
//! contents are written to a **uniquely named** temporary sibling file,
//! fsync'd, and renamed over the destination. A reader therefore observes
//! either the old file or the complete new one — never a torn write — and a
//! process killed mid-write leaves only a temp file behind, never a
//! half-published destination.
//!
//! The temp name replaces the destination's extension with the process id
//! and a process-local sequence number (`target.csv` is written as
//! `target.<pid>.<seq>.tmp`), so two processes — or two threads — writing
//! the same destination concurrently each write their own temp file instead
//! of clobbering one another mid-write (the failure mode of a fixed
//! `target.tmp` sibling: writer B truncates the temp file while writer A is
//! between its write and its rename, publishing A's name with B's torn
//! bytes). The renames still race, but a rename is atomic: the destination
//! holds one complete version or the other. Because the temp name does not
//! contain the destination's full name, a reader that polls a directory for
//! names containing `-drain.jsonl` (say) never opens an in-flight temp.
//!
//! A SIGKILL between create and rename strands the temp file.
//! [`clean_stale_temps`] sweeps such orphans; it only removes temps older
//! than a generous age threshold so it can never delete a live writer's
//! in-flight temp.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Suffix marking a temporary sibling created by [`write_atomic`].
pub const TEMP_SUFFIX: &str = ".tmp";

/// Age past which an orphaned temp file is considered abandoned by a dead
/// writer (no write in this workspace legitimately stays in flight for an
/// hour).
pub const STALE_TEMP_AGE: Duration = Duration::from_secs(3600);

/// Process-local sequence disambiguating concurrent writers within one
/// process; the pid disambiguates across processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Writes `contents` to `path` atomically: a uniquely named temporary
/// sibling file (`path` with its extension replaced by `<pid>.<seq>.tmp`)
/// is written, synced, and renamed
/// over `path`. Readers observe either the old file or the complete new
/// one; concurrent writers (threads or processes) cannot corrupt each
/// other's in-flight temp files. The parent directory is fsync'd
/// best-effort so the rename itself survives a crash.
///
/// # Errors
///
/// I/O errors creating, writing, syncing or renaming the temporary file
/// (the temp file is removed best-effort on failure).
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    if path.file_name().is_none() {
        return Err(invalid(format!(
            "`{}` has no file name to write to",
            path.display()
        )));
    }
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}.{seq}{TEMP_SUFFIX}", std::process::id()));
    let publish = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if publish.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return publish;
    }
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        // Durability of the rename, not correctness, depends on this; some
        // filesystems refuse directory fsync, so failures are ignored.
        if let Ok(dir) = File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Whether `name` looks like a [`write_atomic`] temporary (or the legacy
/// fixed `.tmp` sibling format).
pub fn is_temp_name(name: &std::ffi::OsStr) -> bool {
    name.to_string_lossy().ends_with(TEMP_SUFFIX)
}

/// Removes orphaned [`write_atomic`] temp files in `dir` older than
/// `max_age` — the leftovers of writers killed between create and rename.
/// Returns the number of temps removed. Young temps are left alone: they
/// may belong to a live concurrent writer.
///
/// # Errors
///
/// I/O errors reading the directory; per-file stat/remove failures are
/// skipped (another cleaner may have raced us to them).
pub fn clean_stale_temps(dir: &Path, max_age: Duration) -> io::Result<usize> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        if !is_temp_name(&entry.file_name()) {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        let age = meta
            .modified()
            .ok()
            .and_then(|m| m.elapsed().ok())
            .unwrap_or(Duration::ZERO);
        if age >= max_age && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Counts temp files in `dir` (any age), for test assertions.
#[cfg(test)]
fn count_temps(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| is_temp_name(&e.file_name()))
            .count()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nvp-store-atomic-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_contents_and_leaves_no_temp_file() {
        let dir = temp_dir("replace");
        let path = dir.join("out.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert_eq!(count_temps(&dir), 0);
    }

    #[test]
    fn concurrent_writers_to_one_path_never_tear() {
        let dir = temp_dir("concurrent");
        let path = dir.join("contested.bin");
        // Each writer publishes a self-consistent payload (one repeated
        // byte); with the old fixed-name temp, two writers truncating the
        // same temp file mid-write could publish a mixed payload.
        std::thread::scope(|scope| {
            for byte in 0u8..8 {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..50 {
                        write_atomic(path, &[byte; 512]).unwrap();
                    }
                });
            }
        });
        let published = std::fs::read(&path).unwrap();
        assert_eq!(published.len(), 512);
        assert!(
            published.iter().all(|&b| b == published[0]),
            "torn write published: saw mixed bytes"
        );
        assert_eq!(count_temps(&dir), 0, "every temp was renamed or removed");
    }

    #[test]
    fn stale_temps_are_swept_but_young_ones_survive() {
        let dir = temp_dir("sweep");
        std::fs::write(dir.join("a.bin.1234.0.tmp"), b"orphan").unwrap();
        std::fs::write(dir.join("b.bin.tmp"), b"legacy orphan").unwrap();
        std::fs::write(dir.join("keep.bin"), b"real").unwrap();
        // Everything is younger than an hour: nothing is removed.
        assert_eq!(clean_stale_temps(&dir, STALE_TEMP_AGE).unwrap(), 0);
        // With a zero threshold both temps are stale; the real file stays.
        assert_eq!(clean_stale_temps(&dir, Duration::ZERO).unwrap(), 2);
        assert!(dir.join("keep.bin").exists());
        assert_eq!(count_temps(&dir), 0);
    }

    #[test]
    fn pathless_destination_is_rejected() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
