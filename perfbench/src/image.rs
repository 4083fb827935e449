//! Crash images: a copy of a live daemon's data directory; and the
//! comparison of two data directories file by file.
//!
//! An `fsync` daemon acknowledges a write only once it is on disk, so
//! copying its data directory while it is running and idle captures
//! exactly what an OS crash at that instant would leave behind, without
//! the shutdown snapshots a graceful stop would add. Idle is judged from
//! the directory itself: the group committer lands deferred snapshots
//! after the replies that triggered them, so the copy waits until a
//! listing of names, sizes and modification times stops changing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::{Duration, Instant, SystemTime};

type Listing = Vec<(String, u64, SystemTime)>;

fn listing(dir: &Path, prefix: &str, out: &mut Listing) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("list data dir")
        .flatten()
        .collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = format!("{prefix}/{}", entry.file_name().to_string_lossy());
        let meta = entry.metadata().expect("stat data file");
        if meta.is_dir() {
            listing(&entry.path(), &name, out);
        } else {
            out.push((name, meta.len(), meta.modified().expect("mtime")));
        }
    }
}

/// Waits until `dir` has looked the same for `quiet`, or `limit` passes.
/// Returns whether it settled.
pub fn wait_quiet(dir: &Path, quiet: Duration, limit: Duration) -> bool {
    let start = Instant::now();
    let mut last = Listing::new();
    listing(dir, "", &mut last);
    let mut stable_since = Instant::now();
    while start.elapsed() < limit {
        std::thread::sleep(Duration::from_millis(10));
        let mut now = Listing::new();
        listing(dir, "", &mut now);
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() >= quiet {
            return true;
        }
    }
    false
}

/// Copies the regular files under `from` into a new directory `to`,
/// keeping the tree's shape.
pub fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create image dir");
    for entry in std::fs::read_dir(from).expect("list data dir").flatten() {
        let target = to.join(entry.file_name());
        let kind = entry.file_type().expect("file type");
        if kind.is_dir() {
            copy_tree(&entry.path(), &target);
        } else if kind.is_file() {
            std::fs::copy(entry.path(), &target).expect("copy data file");
        }
    }
}

/// Writes every dirty page back to disk (`sync`) and waits for it, so
/// the interval timed next does not pay for earlier writes: while dirty
/// pages are pending, the file system's journal commits stall directory
/// and file creates for milliseconds at a time, which made a set-up of a
/// few milliseconds take anywhere from one to three times as long.
pub fn write_back() {
    // Best effort: without `sync` the timings are only noisier.
    let _ = std::process::Command::new("sync").status();
}

/// A digest of the names and bytes of every file under `dir`.
pub fn digest(dir: &Path) -> u64 {
    let mut files = Listing::new();
    listing(dir, "", &mut files);
    let mut hasher = DefaultHasher::new();
    for (name, _, _) in files {
        let bytes = std::fs::read(dir.join(&name[1..])).expect("read data file");
        (name, bytes).hash(&mut hasher);
    }
    hasher.finish()
}

/// The first difference between the files under `a` and under `b`,
/// ignoring files named in `skip`: a file only one side has, or one whose
/// bytes differ. `None` if the trees hold the same files byte for byte.
pub fn first_difference(a: &Path, b: &Path, skip: &[&str]) -> Option<String> {
    let (mut la, mut lb) = (Listing::new(), Listing::new());
    listing(a, "", &mut la);
    listing(b, "", &mut lb);
    let names = |l: &Listing| -> Vec<String> {
        l.iter()
            .map(|(n, _, _)| n.clone())
            .filter(|n| !skip.iter().any(|s| n.rsplit('/').next() == Some(*s)))
            .collect()
    };
    let (na, nb) = (names(&la), names(&lb));
    if let Some(n) = na.iter().find(|n| !nb.contains(n)) {
        return Some(format!("{n} only in {}", a.display()));
    }
    if let Some(n) = nb.iter().find(|n| !na.contains(n)) {
        return Some(format!("{n} only in {}", b.display()));
    }
    na.into_iter().find_map(|n| {
        let read = |root: &Path| std::fs::read(root.join(&n[1..])).expect("read data file");
        (read(a) != read(b)).then(|| format!("{n} differs"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-image-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn copy_keeps_every_file_and_byte() {
        let src = scratch("src");
        std::fs::create_dir_all(src.join("1")).unwrap();
        std::fs::write(src.join("journal.walj"), b"frame\n").unwrap();
        std::fs::write(src.join("1/meta.json"), b"{}").unwrap();
        std::fs::write(src.join("1/snapshot.json"), vec![9u8; 10_000]).unwrap();
        let dst = scratch("dst").join("image");
        copy_tree(&src, &dst);
        let (mut a, mut b) = (Listing::new(), Listing::new());
        listing(&src, "", &mut a);
        listing(&dst, "", &mut b);
        let shape = |l: &Listing| {
            l.iter()
                .map(|(n, s, _)| (n.clone(), *s))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(
            std::fs::read(dst.join("1/snapshot.json")).unwrap(),
            vec![9u8; 10_000]
        );
        // The copy is independent of its source.
        std::fs::write(src.join("1/meta.json"), b"changed").unwrap();
        assert_eq!(std::fs::read(dst.join("1/meta.json")).unwrap(), b"{}");
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(dst.parent().unwrap()).unwrap();
    }

    #[test]
    fn trees_differ_by_name_or_bytes_and_digests_follow() {
        let a = scratch("diff-a");
        std::fs::create_dir_all(a.join("1")).unwrap();
        std::fs::write(a.join("1/wal.jsonl"), b"rec\n").unwrap();
        std::fs::write(a.join("journal.walj"), b"batch 1").unwrap();
        let b = scratch("diff-b");
        copy_tree(&a, &b);
        std::fs::write(b.join("journal.walj"), b"batch 2").unwrap();
        assert_eq!(first_difference(&a, &b, &["journal.walj"]), None);
        assert_eq!(
            first_difference(&a, &b, &[]),
            Some("/journal.walj differs".to_string())
        );
        std::fs::write(b.join("1/snapshot.json"), b"{}").unwrap();
        assert_eq!(
            first_difference(&a, &b, &["journal.walj"]),
            Some(format!("/1/snapshot.json only in {}", b.display()))
        );
        std::fs::remove_file(b.join("1/snapshot.json")).unwrap();
        std::fs::write(b.join("journal.walj"), b"batch 1").unwrap();
        assert_eq!(digest(&a), digest(&b));
        std::fs::write(b.join("1/wal.jsonl"), b"reC\n").unwrap();
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(
            first_difference(&a, &b, &["journal.walj"]),
            Some("/1/wal.jsonl differs".to_string())
        );
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn quiet_wait_sees_a_writer_and_then_settles() {
        let dir = scratch("quiet");
        std::fs::write(dir.join("snapshot.json"), [0u8]).unwrap();
        let writer_dir = dir.clone();
        let writer = std::thread::spawn(move || {
            for i in 1..5u8 {
                std::thread::sleep(Duration::from_millis(15));
                std::fs::write(writer_dir.join("snapshot.json"), vec![i; 1 + i as usize]).unwrap();
            }
        });
        let start = Instant::now();
        assert!(wait_quiet(
            &dir,
            Duration::from_millis(100),
            Duration::from_secs(10)
        ));
        writer.join().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(100));
        assert_eq!(std::fs::read(dir.join("snapshot.json")).unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
