//! The persisted corpus: `seeds/` (hand-picked or generator-exported
//! starting points) and `discovered/` (minimized divergence reproducers,
//! written by the fuzz loop and replayed as regression tests by
//! `tests/fuzz_replay.rs`).
//!
//! Cases load in sorted filename order so a corpus directory always
//! produces the same starting pool, and discovered entries are named
//! `<sanitized-signature>-<hash8>.case` so one file exists per unique
//! divergence signature across runs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::input::FuzzInput;
use crate::Fnv;

/// Subdirectory of checked-in starting points.
pub const SEEDS_DIR: &str = "seeds";
/// Subdirectory of minimized divergence reproducers.
pub const DISCOVERED_DIR: &str = "discovered";

/// Loads every `.case` under `dir` (non-recursive), sorted by filename.
/// A missing directory is an empty corpus, not an error.
///
/// # Errors
///
/// I/O failures other than `NotFound`, and decode failures (a corrupt
/// checked-in case should fail loudly, not silently shrink the corpus).
pub fn load_dir(dir: &Path) -> io::Result<Vec<(String, FuzzInput)>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".case") {
            names.push(name);
        }
    }
    names.sort();
    let mut cases = Vec::with_capacity(names.len());
    for name in names {
        let text = fs::read_to_string(dir.join(&name))?;
        let input = FuzzInput::decode(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")))?;
        cases.push((name, input));
    }
    Ok(cases)
}

/// Loads the full corpus pool under `root`: `seeds/` first, then
/// `discovered/`, each in sorted filename order.
///
/// # Errors
///
/// As [`load_dir`].
pub fn load_corpus(root: &Path) -> io::Result<Vec<(String, FuzzInput)>> {
    let mut pool = load_dir(&root.join(SEEDS_DIR))?;
    pool.extend(load_dir(&root.join(DISCOVERED_DIR))?);
    Ok(pool)
}

/// The deterministic filename for a divergence signature.
pub fn case_filename(signature: &str) -> String {
    let sanitized: String = signature
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let mut h = Fnv::new();
    h.str(signature);
    format!("{}-{:08x}.case", sanitized, h.finish() as u32)
}

/// Persists a minimized reproducer under `root/discovered/`. Returns the
/// path written, or `None` if a case for this signature already exists
/// (the corpus keeps the first minimized form, so replays stay stable).
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn save_discovered(
    root: &Path,
    signature: &str,
    input: &FuzzInput,
) -> io::Result<Option<PathBuf>> {
    let dir = root.join(DISCOVERED_DIR);
    fs::create_dir_all(&dir)?;
    let path = dir.join(case_filename(signature));
    if path.exists() {
        return Ok(None);
    }
    fs::write(&path, input.encode())?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ir-fuzz-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip_in_sorted_order() {
        let root = tmp_root("roundtrip");
        let mut rng = StdRng::seed_from_u64(2);
        let a = generate(&mut rng);
        let b = generate(&mut rng);
        save_discovered(&root, "zz/last", &a).unwrap().unwrap();
        save_discovered(&root, "aa/first", &b).unwrap().unwrap();
        let pool = load_corpus(&root).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(pool[0].0 < pool[1].0, "sorted by filename");
        assert_eq!(pool[0].1.encode(), b.encode());
        assert_eq!(pool[1].1.encode(), a.encode());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_signatures_keep_the_first_case() {
        let root = tmp_root("dedup");
        let mut rng = StdRng::seed_from_u64(3);
        let first = generate(&mut rng);
        let second = generate(&mut rng);
        assert!(save_discovered(&root, "kernel/min", &first)
            .unwrap()
            .is_some());
        assert!(
            save_discovered(&root, "kernel/min", &second)
                .unwrap()
                .is_none(),
            "second save for the same signature is a no-op"
        );
        let pool = load_corpus(&root).unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].1.encode(), first.encode());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_corpus_is_empty() {
        assert!(load_corpus(Path::new("/nonexistent/ir-fuzz"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn filenames_are_deterministic_and_safe() {
        let a = case_filename("engine/derived-vs-cold/wall_time_s");
        assert_eq!(a, case_filename("engine/derived-vs-cold/wall_time_s"));
        assert_ne!(a, case_filename("engine/derived-vs-cold/comparisons"));
        assert!(a.ends_with(".case"));
        assert!(!a.contains('/'), "path separators sanitized: {a}");
    }
}
