//! Storage backends for the persistence engine.
//!
//! The engine talks to a narrow [`Storage`] trait — append-only files
//! with an explicit durability barrier (`flush`, the fsync stand-in).
//! Two implementations:
//!
//! * [`MemStorage`] — an in-memory filesystem that models the
//!   *durable/volatile* split precisely: `append` lands in a volatile
//!   buffer, `flush` moves it to the durable image, and
//!   [`MemStorage::crash`] discards everything volatile (optionally
//!   keeping a prefix, which is exactly a torn write). Chaos tests
//!   kill the engine at any byte this way, deterministically.
//! * [`FileStorage`] — real files under a directory, `flush` =
//!   `File::sync_data`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::DurabilityError;

/// Append-only file storage with an explicit durability barrier.
pub trait Storage: Send + Sync {
    /// Names of all stored files, sorted.
    fn list(&self) -> Vec<String>;
    /// Whole contents of a file (durable + still-volatile bytes — the
    /// live process sees its own writes).
    fn read(&self, name: &str) -> Result<Vec<u8>, DurabilityError>;
    /// Creates (or truncates) a file.
    fn create(&mut self, name: &str) -> Result<(), DurabilityError>;
    /// Appends bytes; NOT durable until [`Storage::flush`].
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurabilityError>;
    /// Durability barrier: everything appended so far survives a crash.
    fn flush(&mut self, name: &str) -> Result<(), DurabilityError>;
    /// Truncates a file to `len` bytes (recovery chops torn tails
    /// before appending again).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurabilityError>;
    /// Deletes a file (log compaction).
    fn delete(&mut self, name: &str) -> Result<(), DurabilityError>;
}

// ----------------------------------------------------------- MemStorage

#[derive(Debug, Default, Clone)]
struct MemFile {
    durable: Vec<u8>,
    volatile: Vec<u8>,
}

/// Cloneable in-memory storage with deterministic crash simulation.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    files: Arc<Mutex<BTreeMap<String, MemFile>>>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, MemFile>> {
        self.files.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` on an existing file.
    fn with_file<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut MemFile) -> T,
    ) -> Result<T, DurabilityError> {
        let mut files = self.lock();
        let file = files
            .get_mut(name)
            .ok_or_else(|| DurabilityError::Storage(format!("no such file: {name}")))?;
        Ok(f(file))
    }

    /// Simulates a process crash: every volatile (unflushed) byte is
    /// lost; durable bytes survive.
    pub fn crash(&self) {
        for file in self.lock().values_mut() {
            file.volatile.clear();
        }
    }

    /// Crash with a **torn write**: of the volatile bytes of `name`,
    /// the first `keep` survive (a partially persisted sector); all
    /// other files lose their volatile bytes entirely.
    pub fn crash_torn(&self, name: &str, keep: usize) {
        for (file_name, file) in self.lock().iter_mut() {
            if file_name == name {
                let keep = keep.min(file.volatile.len());
                let kept: Vec<u8> = file.volatile[..keep].to_vec();
                file.durable.extend_from_slice(&kept);
            }
            file.volatile.clear();
        }
    }

    /// Test helper: durable length of a file (0 if absent).
    pub fn durable_len(&self, name: &str) -> usize {
        self.lock().get(name).map(|f| f.durable.len()).unwrap_or(0)
    }

    /// Test helper: overwrites a file's durable image wholesale
    /// (planting hand-crafted partial segments).
    pub fn plant(&self, name: &str, bytes: Vec<u8>) {
        self.lock().insert(
            name.to_string(),
            MemFile {
                durable: bytes,
                volatile: Vec::new(),
            },
        );
    }

    /// Test helper: flips one durable byte (bit-rot injection).
    pub fn corrupt_byte(&self, name: &str, offset: usize) {
        if let Some(file) = self.lock().get_mut(name) {
            if let Some(b) = file.durable.get_mut(offset) {
                *b ^= 0x5A;
            }
        }
    }
}

impl Storage for MemStorage {
    fn list(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, DurabilityError> {
        self.with_file(name, |file| {
            [&file.durable[..], &file.volatile[..]].concat()
        })
    }

    fn create(&mut self, name: &str) -> Result<(), DurabilityError> {
        self.lock().insert(name.to_string(), MemFile::default());
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurabilityError> {
        self.with_file(name, |file| file.volatile.extend_from_slice(bytes))
    }

    fn flush(&mut self, name: &str) -> Result<(), DurabilityError> {
        self.with_file(name, |file| {
            let volatile = std::mem::take(&mut file.volatile);
            file.durable.extend_from_slice(&volatile);
        })
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurabilityError> {
        self.with_file(name, |file| {
            file.volatile.clear();
            file.durable.truncate(len as usize);
        })
    }

    fn delete(&mut self, name: &str) -> Result<(), DurabilityError> {
        self.lock().remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------- FileStorage

/// Real files under a root directory.
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
}

impl FileStorage {
    /// Opens (creating if needed) a storage directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<FileStorage, DurabilityError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileStorage { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for FileStorage {
    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, DurabilityError> {
        Ok(std::fs::read(self.path(name))?)
    }

    fn create(&mut self, name: &str) -> Result<(), DurabilityError> {
        std::fs::File::create(self.path(name))?;
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurabilityError> {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))?;
        file.write_all(bytes)?;
        Ok(())
    }

    fn flush(&mut self, name: &str) -> Result<(), DurabilityError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .open(self.path(name))?;
        file.sync_data()?;
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurabilityError> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        file.set_len(len)?;
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<(), DurabilityError> {
        std::fs::remove_file(self.path(name))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_crash_drops_only_volatile_bytes() {
        let mut mem = MemStorage::new();
        mem.create("wal").unwrap();
        mem.append("wal", b"durable").unwrap();
        mem.flush("wal").unwrap();
        mem.append("wal", b"+volatile").unwrap();
        assert_eq!(mem.read("wal").unwrap(), b"durable+volatile");
        mem.crash();
        assert_eq!(mem.read("wal").unwrap(), b"durable");
    }

    #[test]
    fn mem_torn_crash_keeps_a_prefix() {
        let mut mem = MemStorage::new();
        mem.create("wal").unwrap();
        mem.append("wal", b"abcdef").unwrap();
        mem.crash_torn("wal", 3);
        assert_eq!(mem.read("wal").unwrap(), b"abc");
        // keep > volatile is clamped
        mem.append("wal", b"xy").unwrap();
        mem.crash_torn("wal", 10);
        assert_eq!(mem.read("wal").unwrap(), b"abcxy");
    }

    #[test]
    fn mem_truncate_and_delete() {
        let mut mem = MemStorage::new();
        mem.create("f").unwrap();
        mem.append("f", b"0123456789").unwrap();
        mem.flush("f").unwrap();
        mem.truncate("f", 4).unwrap();
        assert_eq!(mem.read("f").unwrap(), b"0123");
        mem.delete("f").unwrap();
        assert!(mem.read("f").is_err());
        assert!(mem.list().is_empty());
    }

    #[test]
    fn clones_share_the_filesystem() {
        let mut a = MemStorage::new();
        let b = a.clone();
        a.create("x").unwrap();
        a.append("x", b"hi").unwrap();
        a.flush("x").unwrap();
        assert_eq!(b.read("x").unwrap(), b"hi");
    }

    #[test]
    fn file_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "lodify-durability-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fs = FileStorage::open(&dir).unwrap();
        fs.create("wal-0").unwrap();
        fs.append("wal-0", b"hello ").unwrap();
        fs.append("wal-0", b"world").unwrap();
        fs.flush("wal-0").unwrap();
        assert_eq!(fs.read("wal-0").unwrap(), b"hello world");
        fs.truncate("wal-0", 5).unwrap();
        assert_eq!(fs.read("wal-0").unwrap(), b"hello");
        assert_eq!(fs.list(), vec!["wal-0".to_string()]);
        fs.delete("wal-0").unwrap();
        assert!(fs.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
