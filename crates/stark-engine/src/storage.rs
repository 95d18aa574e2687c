//! A directory-backed object store — the reproduction's stand-in for
//! HDFS (paper Figure 2: raw data and persisted indexes live in HDFS and
//! are re-loaded by later programs).
//!
//! Objects are framed with a small header carrying a CRC32 of the
//! payload and the payload's declared length, both verified on every
//! read: a bit-flipped checkpoint or persisted index surfaces as a typed
//! [`StorageError::Corrupt`] instead of serde garbage, and a corrupt
//! length header is rejected against [`MAX_BLOB_LEN`] before any reader
//! could size a buffer from it. Writes stage into a per-write unique
//! temp file and rename into place, so concurrent writers (and keys
//! sharing a stem) never trample each other's staging file.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from object-store operations.
#[derive(Debug)]
pub enum StorageError {
    Io(std::io::Error),
    /// A payload failed to encode or decode (JSON or binary rows).
    Serde(String),
    InvalidKey(String),
    NotFound(String),
    /// The object's stored checksum (or frame header) does not match its
    /// payload — the bytes rotted on disk or were truncated mid-write.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Serde(e) => write!(f, "storage (de)serialisation error: {e}"),
            StorageError::InvalidKey(k) => write!(f, "invalid object key: {k:?}"),
            StorageError::NotFound(k) => write!(f, "object not found: {k:?}"),
            StorageError::Corrupt(k) => {
                write!(f, "object {k:?} is corrupt (checksum mismatch or bad frame)")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<serde_json::Error> for StorageError {
    fn from(e: serde_json::Error) -> Self {
        StorageError::Serde(e.to_string())
    }
}

/// A flat namespace of named binary objects rooted at a directory.
///
/// Keys may contain `/` to form logical sub-paths (`index/part-0007`),
/// but never `..` or absolute components.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    root: PathBuf,
}

impl ObjectStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StorageError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(ObjectStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, key: &str) -> Result<PathBuf, StorageError> {
        if key.is_empty()
            || key.starts_with('/')
            || key.split('/').any(|c| c.is_empty() || c == "." || c == "..")
        {
            return Err(StorageError::InvalidKey(key.to_string()));
        }
        Ok(self.root.join(key))
    }

    /// Writes `data` under `key`, replacing any previous object. The
    /// payload is framed with a [`FRAME_MAGIC`] + CRC32 + length header
    /// and staged through a unique temp file (key-preserving name,
    /// suffixed with pid and a process-wide counter —
    /// `path.with_extension` would make `part.bin` and `part.json` race
    /// on the same staging file).
    pub fn put_bytes(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        if data.len() > MAX_BLOB_LEN {
            return Err(StorageError::Corrupt(format!(
                "{key}: payload {} exceeds blob cap {MAX_BLOB_LEN}",
                data.len()
            )));
        }
        let path = self.resolve(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let name = path.file_name().expect("resolved key has a file name").to_string_lossy();
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_file_name(format!("{name}.tmp-{}-{seq}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(FRAME_MAGIC)?;
            f.write_all(&crc32(data).to_le_bytes())?;
            f.write_all(&(data.len() as u32).to_le_bytes())?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Reads the object stored under `key`, verifying its declared
    /// length (capped at [`MAX_BLOB_LEN`] — a corrupt length field must
    /// never be trusted to size an allocation) and its checksum.
    pub fn get_bytes(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let path = self.resolve(key)?;
        let framed = match fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StorageError::NotFound(key.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let Some((header, payload)) = framed.split_at_checked(BLOB_HEADER_LEN) else {
            return Err(StorageError::Corrupt(key.to_string()));
        };
        let (magic, rest) = header.split_at(FRAME_MAGIC.len());
        if magic != FRAME_MAGIC {
            return Err(StorageError::Corrupt(key.to_string()));
        }
        let (crc_bytes, len_bytes) = rest.split_at(4);
        let declared = u32::from_le_bytes(len_bytes.try_into().expect("4-byte len field")) as usize;
        if declared > MAX_BLOB_LEN || declared != payload.len() {
            return Err(StorageError::Corrupt(key.to_string()));
        }
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte crc field"));
        if crc32(payload) != stored {
            return Err(StorageError::Corrupt(key.to_string()));
        }
        Ok(payload.to_vec())
    }

    /// Serialises `value` as JSON under `key`.
    pub fn put_json<T: Serialize>(&self, key: &str, value: &T) -> Result<(), StorageError> {
        let data = serde_json::to_vec(value)?;
        self.put_bytes(key, &data)
    }

    /// Deserialises the JSON object stored under `key`.
    pub fn get_json<T: DeserializeOwned>(&self, key: &str) -> Result<T, StorageError> {
        let data = self.get_bytes(key)?;
        Ok(serde_json::from_slice(&data)?)
    }

    /// Whether an object exists under `key`.
    pub fn exists(&self, key: &str) -> bool {
        self.resolve(key).map(|p| p.is_file()).unwrap_or(false)
    }

    /// Removes the object under `key` (idempotent).
    pub fn delete(&self, key: &str) -> Result<(), StorageError> {
        let path = self.resolve(key)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Lists all object keys under the optional `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        let mut keys = Vec::new();
        let base = if prefix.is_empty() { self.root.clone() } else { self.resolve(prefix)? };
        if !base.exists() {
            return Ok(keys);
        }
        collect_keys(&self.root, &base, &mut keys)?;
        keys.sort();
        Ok(keys)
    }
}

/// Magic prefix identifying a framed store object. Shared with the
/// query-service and worker wire protocols, which frame payloads the
/// same way.
pub const FRAME_MAGIC: &[u8; 4] = b"STK1";
/// Wire-frame header: magic + little-endian CRC32 of the payload (the
/// length travels ahead of the magic on the wire, see `transport`).
pub const FRAME_HEADER_LEN: usize = FRAME_MAGIC.len() + 4;
/// On-disk blob header: magic + CRC32 + little-endian payload length.
pub const BLOB_HEADER_LEN: usize = FRAME_HEADER_LEN + 4;
/// Hard cap on a stored blob's payload. A corrupt length header is
/// rejected against this bound instead of being trusted for allocation
/// sizing; the wire protocols enforce their own (smaller) frame cap.
pub const MAX_BLOB_LEN: usize = 256 << 20;

/// Process-wide staging-file counter: combined with the pid it makes
/// every [`ObjectStore::put_bytes`] staging name unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// CRC32 (IEEE 802.3 polynomial, reflected) of `data` — the checksum
/// gzip/zip use, implemented locally over a lazily built table to avoid
/// a dependency. Public so the query-service wire protocol checksums
/// frames identically to the object store.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Removes sibling directories under `base` named `{prefix}{pid}-{seq}`
/// whose owning process is dead — the spill stores a crashed prior run
/// left behind. Returns how many directories were removed.
///
/// Liveness is decided by `/proc/<pid>` existence; on platforms without
/// `/proc`, every foreign pid is assumed live and nothing is removed
/// (leaking is safer than deleting a running process's blobs). The
/// current process's own directories are never touched.
pub fn sweep_orphan_dirs(base: &Path, prefix: &str) -> usize {
    let own_pid = std::process::id();
    let have_proc = Path::new("/proc").is_dir();
    let Ok(entries) = fs::read_dir(base) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else { continue };
        // the naming convention is `{prefix}{pid}-{seq}`
        let Some((pid_part, seq_part)) = rest.split_once('-') else { continue };
        if seq_part.is_empty() || !seq_part.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(pid) = pid_part.parse::<u32>() else { continue };
        if pid == own_pid || !entry.path().is_dir() {
            continue;
        }
        let alive = !have_proc || Path::new(&format!("/proc/{pid}")).exists();
        if !alive && fs::remove_dir_all(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

fn collect_keys(root: &Path, dir: &Path, keys: &mut Vec<String>) -> Result<(), StorageError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_keys(root, &path, keys)?;
        } else if let Ok(rel) = path.strip_prefix(root) {
            let rel = rel.to_string_lossy().replace('\\', "/");
            // an orphaned staging file (crashed writer) is not an object
            if !rel.contains(".tmp-") {
                keys.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ObjectStore {
        let dir =
            std::env::temp_dir().join(format!("stark-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ObjectStore::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let s = temp_store("roundtrip");
        s.put_bytes("a/b/c.bin", b"hello").unwrap();
        assert_eq!(&s.get_bytes("a/b/c.bin").unwrap()[..], b"hello");
        assert!(s.exists("a/b/c.bin"));
        assert!(!s.exists("a/b/missing"));
    }

    #[test]
    fn json_roundtrip() {
        let s = temp_store("json");
        let value = vec![(1u32, "x".to_string()), (2, "y".to_string())];
        s.put_json("meta", &value).unwrap();
        let back: Vec<(u32, String)> = s.get_json("meta").unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn overwrite_replaces() {
        let s = temp_store("overwrite");
        s.put_bytes("k", b"one").unwrap();
        s.put_bytes("k", b"two").unwrap();
        assert_eq!(&s.get_bytes("k").unwrap()[..], b"two");
    }

    #[test]
    fn missing_object_is_not_found() {
        let s = temp_store("missing");
        match s.get_bytes("nope") {
            Err(StorageError::NotFound(k)) => assert_eq!(k, "nope"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn orphan_sweep_removes_dead_runs_but_keeps_live_and_foreign_dirs() {
        let base = std::env::temp_dir().join(format!("stark-sweep-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        // an orphan from a crashed run: pid u32::MAX never exists
        let orphan = base.join("stark-spill-4294967295-0");
        fs::create_dir_all(orphan.join("nested")).unwrap();
        fs::write(orphan.join("nested/blob"), b"stale").unwrap();
        // this run's own blobs, and a dir that doesn't match the scheme
        let live = base.join(format!("stark-spill-{}-7", std::process::id()));
        fs::create_dir_all(&live).unwrap();
        fs::write(live.join("blob"), b"fresh").unwrap();
        let foreign = base.join("stark-spill-not-a-pid");
        fs::create_dir_all(&foreign).unwrap();

        if Path::new("/proc").is_dir() {
            assert_eq!(sweep_orphan_dirs(&base, "stark-spill-"), 1);
            assert!(!orphan.exists(), "dead run's blobs must be removed");
        } else {
            // without /proc liveness is unknowable: nothing is removed
            assert_eq!(sweep_orphan_dirs(&base, "stark-spill-"), 0);
        }
        assert!(live.join("blob").exists(), "live run's blobs must survive");
        assert!(foreign.exists(), "non-matching names are never touched");
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn invalid_keys_rejected() {
        let s = temp_store("invalid");
        for key in ["", "/abs", "a/../b", "a//b", "."] {
            assert!(
                matches!(s.put_bytes(key, b"x"), Err(StorageError::InvalidKey(_))),
                "key {key:?} should be invalid"
            );
        }
    }

    #[test]
    fn delete_is_idempotent() {
        let s = temp_store("delete");
        s.put_bytes("k", b"v").unwrap();
        s.delete("k").unwrap();
        s.delete("k").unwrap();
        assert!(!s.exists("k"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // reference values from the IEEE 802.3 / zlib crc32
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn keys_sharing_a_stem_do_not_collide_on_staging() {
        // regression: `path.with_extension("tmp-write")` staged both
        // `part.bin` and `part.json` at `part.tmp-write`, so concurrent
        // writers could rename each other's half-written payloads
        let s = temp_store("stem");
        let bin = vec![0xABu8; 4096];
        let json = vec![0xCDu8; 4096];
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| s.put_bytes("part.bin", &bin).unwrap());
                scope.spawn(|| s.put_bytes("part.json", &json).unwrap());
            }
        });
        assert_eq!(s.get_bytes("part.bin").unwrap(), bin);
        assert_eq!(s.get_bytes("part.json").unwrap(), json);
        assert_eq!(s.list("").unwrap(), vec!["part.bin", "part.json"], "no staging leftovers");
    }

    #[test]
    fn concurrent_writers_to_one_key_leave_a_complete_object() {
        let s = temp_store("race");
        std::thread::scope(|scope| {
            for w in 0u8..8 {
                let s = &s;
                scope.spawn(move || {
                    let payload = vec![w; 8192];
                    for _ in 0..8 {
                        s.put_bytes("shared", &payload).unwrap();
                    }
                });
            }
        });
        // whoever renamed last wins, but the object must be one writer's
        // intact payload — never interleaved bytes
        let data = s.get_bytes("shared").unwrap();
        assert_eq!(data.len(), 8192);
        assert!(data.windows(2).all(|w| w[0] == w[1]), "payload mixed from two writers");
    }

    #[test]
    fn bit_flip_surfaces_typed_corruption() {
        let s = temp_store("bitflip");
        let value: Vec<u64> = (0..256).collect();
        s.put_json("checkpoint/part-0", &value).unwrap();
        let path = s.root().join("checkpoint/part-0");
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40; // flip one payload bit
        fs::write(&path, &raw).unwrap();
        match s.get_json::<Vec<u64>>("checkpoint/part-0") {
            Err(StorageError::Corrupt(k)) => assert_eq!(k, "checkpoint/part-0"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_foreign_files_are_corrupt() {
        let s = temp_store("truncated");
        s.put_bytes("k", b"payload").unwrap();
        fs::write(s.root().join("k"), b"STK").unwrap(); // shorter than a header
        assert!(matches!(s.get_bytes("k"), Err(StorageError::Corrupt(_))));
        // a pre-framing (or foreign) file has no magic
        fs::write(s.root().join("legacy"), b"raw bytes from an old store").unwrap();
        assert!(matches!(s.get_bytes("legacy"), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn corrupt_length_header_is_rejected_not_trusted() {
        let s = temp_store("badlen");
        s.put_bytes("k", b"payload").unwrap();
        let path = s.root().join("k");
        let mut raw = fs::read(&path).unwrap();
        // overwrite the declared length with an absurd value — a reader
        // sizing a buffer from it would attempt a multi-GiB allocation
        raw[FRAME_HEADER_LEN..BLOB_HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &raw).unwrap();
        match s.get_bytes("k") {
            Err(StorageError::Corrupt(k)) => assert_eq!(k, "k"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn length_payload_mismatch_is_corrupt() {
        let s = temp_store("lenmismatch");
        s.put_bytes("k", b"payload").unwrap();
        let path = s.root().join("k");
        let mut raw = fs::read(&path).unwrap();
        // a torn write that lost trailing payload bytes but kept a valid
        // header shape must not surface as a short read
        raw.truncate(raw.len() - 2);
        fs::write(&path, &raw).unwrap();
        assert!(matches!(s.get_bytes("k"), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn oversized_writes_are_refused() {
        // the cap itself is too large to exercise with a real buffer in a
        // unit test; the zero-copy declared-length check is what matters
        let s = temp_store("cap");
        let framed_len = |n: usize| n <= MAX_BLOB_LEN;
        assert!(framed_len(1024));
        assert!(!framed_len(MAX_BLOB_LEN + 1));
        // a declared length over the cap with matching tiny payload is
        // still corrupt (declared != actual is checked first)
        let mut raw = Vec::new();
        raw.extend_from_slice(FRAME_MAGIC);
        raw.extend_from_slice(&crc32(b"x").to_le_bytes());
        raw.extend_from_slice(&(MAX_BLOB_LEN as u32 + 1).to_le_bytes());
        raw.push(b'x');
        fs::write(s.root().join("forged"), &raw).unwrap();
        assert!(matches!(s.get_bytes("forged"), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn list_with_prefix() {
        let s = temp_store("list");
        s.put_bytes("idx/part-0", b"a").unwrap();
        s.put_bytes("idx/part-1", b"b").unwrap();
        s.put_bytes("other/x", b"c").unwrap();
        assert_eq!(s.list("idx").unwrap(), vec!["idx/part-0", "idx/part-1"]);
        assert_eq!(s.list("").unwrap().len(), 3);
        assert!(s.list("nothing").unwrap().is_empty());
    }
}
