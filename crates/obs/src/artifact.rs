//! Crash-safe artifact writes.
//!
//! Every JSON/JSONL artifact the toolchain produces (`--trace=FILE`,
//! `anc profile --out`, `anc sweep --json`) goes
//! through [`write_atomic`]: the contents land in a same-directory
//! temporary file first and are renamed into place only once fully
//! written. A crash, full disk, or failed rename can leave a stray
//! `.tmp` sibling, but never a torn half-artifact under the final name
//! — consumers either see the old complete file or the new complete
//! file.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp names across threads within one process; the
/// process id in the name distinguishes concurrent processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: write to a unique temporary
/// sibling, flush, then rename over the destination. On any failure the
/// temporary file is removed and the destination is left untouched.
///
/// # Errors
///
/// Any I/O error from creating, writing, flushing or renaming the
/// temporary file — with the temp file already cleaned up.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        seq
    );
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };

    let result = (|| {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp_path, path)
    })();

    if result.is_err() {
        // Best effort: the temp file may not exist if create failed.
        let _ = fs::remove_file(&tmp_path);
    }
    result
}

/// [`write_atomic`] plus a parent-directory sync, for writers that must
/// survive `kill -9` immediately after returning: the rename itself is
/// atomic, but without an fsync of the containing directory a crash can
/// still lose the *name* of a fully-written file. The serve daemon's
/// persistent artifact cache uses this; throwaway bench reports do not
/// need it.
///
/// # Errors
///
/// Any error from [`write_atomic`]. Directory-sync failures are ignored
/// (some filesystems reject fsync on directories); the entry is then
/// merely as durable as a plain [`write_atomic`].
pub fn write_atomic_durable(path: &Path, contents: &str) -> io::Result<()> {
    write_atomic(path, contents)?;
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "an-obs-artifact-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch_dir("ok");
        let path = dir.join("out.json");
        write_atomic(&path, "{\"v\": 1}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\": 1}\n");
        write_atomic(&path, "{\"v\": 2}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\": 2}\n");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_leaves_destination_intact_and_no_temp() {
        let dir = scratch_dir("fail");
        // A directory occupying the destination name makes the final
        // rename fail on every platform — simulating a failed commit
        // step after a successful write.
        let path = dir.join("blocked");
        fs::create_dir(&path).unwrap();
        let sentinel = path.join("keep");
        fs::write(&sentinel, "original").unwrap();

        let err = write_atomic(&path, "new contents");
        assert!(err.is_err(), "rename onto a non-empty dir must fail");

        // Destination untouched, no temp debris.
        assert_eq!(fs::read_to_string(&sentinel).unwrap(), "original");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_path_without_file_name() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }
}
