//! Helpers shared by the kvstore integration tests.

use std::io::ErrorKind;
use std::path::Path;

/// Whole-copy attempts before [`copy_live_dir`] gives up.
const COPY_ATTEMPTS: usize = 100;

/// Copies the directory of a store that is still running — the
/// `kill -9` snapshot the crash tests reopen.
///
/// Background flushes retire WAL segments and compactions delete their
/// inputs while the copy runs, so a listed file can be gone by the time
/// it is read. The store deletes a file only after something durable
/// covers its records, but that cover may sit in a directory this copy
/// already listed; so a vanished file restarts the whole copy, up to
/// [`COPY_ATTEMPTS`] times.
///
/// Each attempt makes two passes, the second copying only files the
/// first did not see. A record acknowledged before the copy began is in
/// a WAL segment the first pass lists, or in an SSTable (or a rewrite
/// of it) that already exists when the second pass starts; either way
/// an attempt in which no file vanished holds it.
pub(crate) fn copy_live_dir(src: &Path, dst: &Path) {
    for _ in 0..COPY_ATTEMPTS {
        std::fs::remove_dir_all(dst).ok();
        match copy_new_files(src, dst).and_then(|()| copy_new_files(src, dst)) {
            Ok(()) => return,
            Err(e) if e.kind() == ErrorKind::NotFound => continue,
            Err(e) => panic!("copying {}: {e}", src.display()),
        }
    }
    panic!(
        "files under {} vanished during each of {COPY_ATTEMPTS} copies",
        src.display()
    );
}

/// Copies every file under `src` that `dst` does not hold yet.
fn copy_new_files(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_new_files(&entry.path(), &to)?;
        } else if !to.exists() {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}
