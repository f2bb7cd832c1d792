//! Append-only content-addressed artifact store, mmap'd for reads.
//!
//! One file holds every svpack-serialised tree the service has seen,
//! keyed by structural hash — the same fingerprints the [`crate::cache`]
//! keys TED pairs by, so a cache key's two halves name exactly two store
//! records.  Writers append `[hash u64][len u32][svpack bytes]` records;
//! readers map the file and decode records zero-copy through
//! `svtree::pack::read_tree_in`'s shared-table path (one interner for
//! the whole store, no per-record string tables).  Decoded trees are
//! retained as [`SharedTree`]s, so the *warm* read path is an `Arc`
//! clone — no decode, no allocation — which the `store.decodes` /
//! `store.hits` counters prove (PR 4's reuse-proof style).
//!
//! The file starts with the versioned magic `"SVAS"` + `u32` version.
//! Appends are crash-safe by construction: a torn tail record is
//! detected on open (length runs past EOF) and ignored; the next append
//! truncates it away.
//!
//! A record this process did not append is verified before it is served:
//! its decoded tree's structural hash must equal its key.  The check runs
//! once per record (the verified bit is memoised in the index) — on the
//! cold decode of [`ArtifactStore::get`], the first [`ArtifactStore::raw`]
//! and the first [`ArtifactStore::append_tree`] of that key.  A record
//! that fails it is counted (`store.corrupt`, or `store.decode_errors`
//! when it does not decode at all) and dropped from the index, so the
//! next `append_tree` of the key writes the correct bytes again.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use svdist::SharedTree;
use svtrace::{Counter, Registry};
use svtree::pack::{self, write_tree};
use svtree::Interner;

/// File magic: "SVAS" (SilverVale Artifact Store) + little-endian version.
const STORE_MAGIC: &[u8; 4] = b"SVAS";
const STORE_VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// Per-record header: hash (u64 LE) + payload length (u32 LE).
const REC_HEADER: u64 = 12;

/// A read-only view of the store file.  Linux maps the file; elsewhere
/// (and when mmap fails) the bytes are read into memory — same contract,
/// different constant factor.
enum Mapping {
    #[cfg(target_os = "linux")]
    Mmap(crate::sys::Mmap),
    Heap(Vec<u8>),
}

impl Mapping {
    fn of(file: &File, len: usize) -> io::Result<Mapping> {
        #[cfg(target_os = "linux")]
        {
            if let Ok(m) = crate::sys::Mmap::map(file, len) {
                return Ok(Mapping::Mmap(m));
            }
        }
        let mut buf = vec![0u8; len];
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(&mut buf)?;
        Ok(Mapping::Heap(buf))
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(target_os = "linux")]
            Mapping::Mmap(m) => m.as_slice(),
            Mapping::Heap(v) => v,
        }
    }
}

/// Where one record's payload lives, and whether its bytes are known to
/// decode to a tree with the record's hash.
#[derive(Clone, Copy)]
struct Record {
    off: u64,
    len: u32,
    /// Appended by this process or checked since: trusted without a decode.
    verified: bool,
}

struct StoreInner {
    file: File,
    /// Current file length (header + complete records).
    len: u64,
    /// Payload location per structural hash.
    index: HashMap<u64, Record>,
    /// Read mapping covering the first `mapped_len` bytes; remapped
    /// lazily when a read lands past it.
    map: Option<Mapping>,
    mapped_len: u64,
    /// Decoded trees by hash: the warm path (an `Arc` clone, no decode).
    warm: HashMap<u64, SharedTree>,
}

/// The store handle.  All methods take `&self`; internal state is behind
/// one mutex (appends and cold reads are file-bound anyway, and warm
/// reads only clone an `Arc` under it).
pub struct ArtifactStore {
    inner: Mutex<StoreInner>,
    /// Shared symbol table for every decode — `read_tree_in`'s
    /// shared-table path.
    interner: Arc<Interner>,
    path: PathBuf,
    /// Unlink the file on drop (anonymous/temp stores).
    temp: bool,
    registry: Registry,
    appends: Arc<Counter>,
    append_bytes: Arc<Counter>,
    hits: Arc<Counter>,
    decodes: Arc<Counter>,
    corrupt: Arc<Counter>,
    decode_errors: Arc<Counter>,
}

fn lock(inner: &Mutex<StoreInner>) -> MutexGuard<'_, StoreInner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl ArtifactStore {
    /// Open (or create) the store at `path`, scanning existing records
    /// into the index.  A torn tail record — e.g. a crash mid-append —
    /// is ignored; everything before it is served.
    pub fn open(path: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        ArtifactStore::open_inner(path.as_ref().to_path_buf(), false)
    }

    /// A process-private store in the system temp directory, removed on
    /// drop.  Services that are not asked to persist artifacts use this.
    pub fn temp() -> io::Result<ArtifactStore> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "svserve-store-{}-{}.svas",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        ArtifactStore::open_inner(path, true)
    }

    fn open_inner(path: PathBuf, temp: bool) -> io::Result<ArtifactStore> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let file_len = file.metadata()?.len();
        let mut len = HEADER_LEN;
        let mut index = HashMap::new();
        if file_len == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(STORE_MAGIC);
            header.extend_from_slice(&STORE_VERSION.to_le_bytes());
            file.write_all(&header)?;
        } else {
            let mut header = [0u8; HEADER_LEN as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header).map_err(|_| bad_store("truncated header"))?;
            if &header[0..4] != STORE_MAGIC {
                return Err(bad_store("bad magic (not an artifact store)"));
            }
            let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
            if version != STORE_VERSION {
                return Err(bad_store(format!("unsupported store version {version}")));
            }
            // Scan records: [hash u64][len u32][bytes].
            let mut rec = [0u8; REC_HEADER as usize];
            loop {
                if len + REC_HEADER > file_len {
                    break; // torn record header (or clean EOF)
                }
                file.seek(SeekFrom::Start(len))?;
                file.read_exact(&mut rec)?;
                let hash = u64::from_le_bytes(rec[0..8].try_into().unwrap());
                let plen = u32::from_le_bytes(rec[8..12].try_into().unwrap());
                if len + REC_HEADER + plen as u64 > file_len {
                    break; // torn payload
                }
                // Later records win: a key re-appended after its record
                // failed verification is served from the re-appended bytes.
                index.insert(hash, Record { off: len + REC_HEADER, len: plen, verified: false });
                len += REC_HEADER + plen as u64;
            }
        }
        file.seek(SeekFrom::Start(len))?;
        // Drop any torn tail so the next append starts on a record
        // boundary.
        file.set_len(len)?;
        let registry = Registry::new();
        let appends = registry.counter("store.appends");
        let append_bytes = registry.counter("store.append_bytes");
        let hits = registry.counter("store.hits");
        let decodes = registry.counter("store.decodes");
        let corrupt = registry.counter("store.corrupt");
        let decode_errors = registry.counter("store.decode_errors");
        Ok(ArtifactStore {
            inner: Mutex::new(StoreInner {
                file,
                len,
                index,
                map: None,
                mapped_len: 0,
                warm: HashMap::new(),
            }),
            interner: Arc::new(Interner::new()),
            path,
            temp,
            registry,
            appends,
            append_bytes,
            hits,
            decodes,
            corrupt,
            decode_errors,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of indexed records.
    pub fn records(&self) -> usize {
        lock(&self.inner).index.len()
    }

    /// The store's counter registry (`store.appends`, `store.hits`,
    /// `store.decodes`, `store.append_bytes`, `store.corrupt`,
    /// `store.decode_errors`) for the `metrics` merge.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn contains(&self, hash: u64) -> bool {
        lock(&self.inner).index.contains_key(&hash)
    }

    /// Append a tree under its structural hash (content address).  A
    /// hash already present is a no-op — content-addressing makes
    /// duplicate appends free — once its record has passed verification;
    /// a record that fails it is replaced.  Returns the hash.
    pub fn append_tree(&self, tree: &SharedTree) -> io::Result<u64> {
        let hash = tree.structural_hash();
        {
            let mut inner = lock(&self.inner);
            if inner.index.get(&hash).is_some_and(|r| r.verified)
                || self.load_verified(&mut inner, hash).is_some()
            {
                return Ok(hash);
            }
        }
        let bytes = write_tree(tree.tree());
        self.append_bytes_under(hash, &bytes)?;
        // The tree is in hand — warm the cache so the first read after
        // an append is already allocation-free.
        lock(&self.inner).warm.entry(hash).or_insert_with(|| tree.clone());
        Ok(hash)
    }

    /// Append pre-serialised svpack bytes under `hash`.  Rejects
    /// payloads that do not carry the svpack magic: the store must never
    /// serve bytes `read_tree_in` cannot decode.  The bytes are in the
    /// caller's hand, so the record counts as verified.
    pub fn append_bytes_under(&self, hash: u64, bytes: &[u8]) -> io::Result<()> {
        if pack::probe_tree(bytes).is_none() {
            return Err(bad_store("payload is not svpack"));
        }
        let len32 =
            u32::try_from(bytes.len()).map_err(|_| bad_store("payload exceeds u32 length"))?;
        let mut inner = lock(&self.inner);
        if inner.index.contains_key(&hash) {
            return Ok(());
        }
        let mut rec = Vec::with_capacity(REC_HEADER as usize + bytes.len());
        rec.extend_from_slice(&hash.to_le_bytes());
        rec.extend_from_slice(&len32.to_le_bytes());
        rec.extend_from_slice(bytes);
        let at = inner.len;
        inner.file.seek(SeekFrom::Start(at))?;
        inner.file.write_all(&rec)?;
        inner.len = at + rec.len() as u64;
        inner.index.insert(hash, Record { off: at + REC_HEADER, len: len32, verified: true });
        self.appends.inc();
        self.append_bytes.add(bytes.len() as u64);
        Ok(())
    }

    /// Raw svpack bytes of `hash` (copied out of the mapping — callers
    /// are the wire path, which has to copy into the socket anyway).  The
    /// first read of a record this process did not append verifies it
    /// (and retains the decoded tree for [`get`](ArtifactStore::get)).
    pub fn raw(&self, hash: u64) -> Option<Arc<Vec<u8>>> {
        let mut inner = lock(&self.inner);
        let rec = *inner.index.get(&hash)?;
        if !rec.verified {
            self.load_verified(&mut inner, hash)?;
        }
        let slice = mapped_record(&mut inner, rec.off, rec.len)?;
        Some(Arc::new(slice.to_vec()))
    }

    /// The tree stored under `hash`.
    ///
    /// Warm path: an `Arc` clone of the retained [`SharedTree`]
    /// (`store.hits`).  Cold path: decode the mmap'd record through the
    /// shared interner (`store.decodes`), verify it unless this process
    /// appended it, and retain it.  A record that fails to decode or to
    /// verify reads as `None` and is dropped.
    pub fn get(&self, hash: u64) -> Option<SharedTree> {
        let mut inner = lock(&self.inner);
        if let Some(t) = inner.warm.get(&hash) {
            self.hits.inc();
            return Some(t.clone());
        }
        self.load_verified(&mut inner, hash)
    }

    /// Decode the record under `hash`, check its structural hash against
    /// the key unless it is already verified, and retain the tree.  On a
    /// decode failure (`store.decode_errors`) or a hash mismatch
    /// (`store.corrupt`) the index entry is dropped and `None` returned.
    fn load_verified(&self, inner: &mut StoreInner, hash: u64) -> Option<SharedTree> {
        let rec = *inner.index.get(&hash)?;
        let decoded = {
            let slice = mapped_record(inner, rec.off, rec.len)?;
            pack::read_tree_in(Arc::clone(&self.interner), slice)
        };
        let Ok(tree) = decoded else {
            self.decode_errors.inc();
            inner.index.remove(&hash);
            return None;
        };
        self.decodes.inc();
        let shared = SharedTree::new(tree);
        if !rec.verified {
            if shared.structural_hash() != hash {
                self.corrupt.inc();
                inner.index.remove(&hash);
                return None;
            }
            inner.index.insert(hash, Record { verified: true, ..rec });
        }
        inner.warm.insert(hash, shared.clone());
        Some(shared)
    }
}

/// The mapped byte range of one record, remapping if the file grew past
/// the current mapping.
fn mapped_record(inner: &mut StoreInner, off: u64, len: u32) -> Option<&[u8]> {
    let end = off + len as u64;
    if inner.map.is_none() || end > inner.mapped_len {
        let file_len = inner.len;
        inner.map = Mapping::of(&inner.file, file_len as usize).ok();
        inner.mapped_len = file_len;
    }
    let map = inner.map.as_ref()?;
    map.as_slice().get(off as usize..end as usize)
}

fn bad_store(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Drop for ArtifactStore {
    fn drop(&mut self) {
        if self.temp {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtree::Tree;

    fn tree(label: &str, fan: usize) -> SharedTree {
        let children = (0..fan).map(|i| Tree::leaf(format!("leaf{i}"))).collect();
        SharedTree::new(Tree::node(label, children))
    }

    #[test]
    fn warm_reads_are_decode_free() {
        let store = ArtifactStore::temp().unwrap();
        let t = tree("fn", 6);
        let hash = store.append_tree(&t).unwrap();
        assert_eq!(store.appends.get(), 1);
        // append_tree warms the cache with the tree in hand.
        let first = store.get(hash).expect("stored tree");
        assert_eq!(first.tree(), t.tree());
        assert_eq!(store.decodes.get(), 0, "append path never decodes");
        assert_eq!(store.hits.get(), 1);
        let again = store.get(hash).unwrap();
        assert!(SharedTree::ptr_eq(&first, &again), "warm read is an Arc clone");
        assert_eq!(store.hits.get(), 2);
    }

    #[test]
    fn cold_reads_decode_once_via_mmap() {
        let path = std::env::temp_dir()
            .join(format!("svserve-store-test-{}-cold.svas", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let t = tree("kernel", 40);
        let hash = {
            let store = ArtifactStore::open(&path).unwrap();
            store.append_tree(&t).unwrap()
        };
        // Fresh open: nothing warm, the record comes off the mapping.
        let store = ArtifactStore::open(&path).unwrap();
        assert_eq!(store.records(), 1);
        let got = store.get(hash).expect("persisted tree");
        assert_eq!(got.tree(), t.tree());
        assert_eq!(got.structural_hash(), hash);
        assert_eq!(store.decodes.get(), 1);
        // Second read: warm, still exactly one decode.
        let warm = store.get(hash).unwrap();
        assert!(SharedTree::ptr_eq(&got, &warm));
        assert_eq!(store.decodes.get(), 1);
        assert_eq!(store.hits.get(), 1);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_bytes_round_trip_svpack_v2_verbatim() {
        let store = ArtifactStore::temp().unwrap();
        let t = tree("loop", 12);
        let hash = store.append_tree(&t).unwrap();
        let raw = store.raw(hash).expect("raw record");
        assert_eq!(*raw, write_tree(t.tree()));
        assert_eq!(pack::probe_tree(&raw), Some(2));
        assert_eq!(store.raw(hash ^ 1), None);
    }

    #[test]
    fn duplicate_appends_are_free_and_content_addressed() {
        let store = ArtifactStore::temp().unwrap();
        let t = tree("fn", 3);
        let h1 = store.append_tree(&t).unwrap();
        let h2 = store.append_tree(&tree("fn", 3)).unwrap();
        assert_eq!(h1, h2, "equal structure, equal address");
        assert_eq!(store.records(), 1);
        assert_eq!(store.appends.get(), 1);
    }

    #[test]
    fn torn_tail_records_are_ignored_and_truncated() {
        let path = std::env::temp_dir()
            .join(format!("svserve-store-test-{}-torn.svas", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (h_ok, len_ok) = {
            let store = ArtifactStore::open(&path).unwrap();
            let h = store.append_tree(&tree("intact", 4)).unwrap();
            (h, std::fs::metadata(&path).unwrap().len())
        };
        // Simulate a crash mid-append: a record header pointing past EOF.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&0xdeadbeefu64.to_le_bytes()).unwrap();
            f.write_all(&1_000u32.to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let store = ArtifactStore::open(&path).unwrap();
        assert_eq!(store.records(), 1);
        assert!(store.get(h_ok).is_some());
        assert!(store.get(0xdeadbeef).is_none());
        // The torn tail was truncated away; appends continue cleanly.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_ok);
        store.append_tree(&tree("after", 2)).unwrap();
        drop(store);
        let store = ArtifactStore::open(&path).unwrap();
        assert_eq!(store.records(), 2);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    /// A store file at a fresh per-test path holding `t`; returns the
    /// path and the tree's hash.
    fn persisted(name: &str, t: &SharedTree) -> (PathBuf, u64) {
        let path = std::env::temp_dir()
            .join(format!("svserve-store-test-{}-{name}.svas", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let hash = ArtifactStore::open(&path).unwrap().append_tree(t).unwrap();
        (path, hash)
    }

    /// Overwrite the byte at `at` with `f(byte)`.
    fn patch_byte(path: &Path, at: usize, f: impl Fn(u8) -> u8) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] = f(bytes[at]);
        std::fs::write(path, bytes).unwrap();
    }

    /// File offset of the first occurrence of `needle` past the header.
    fn offset_of(path: &Path, needle: &[u8]) -> usize {
        let bytes = std::fs::read(path).unwrap();
        let at = bytes[HEADER_LEN as usize..].windows(needle.len()).position(|w| w == needle);
        HEADER_LEN as usize + at.expect("needle in the store file")
    }

    #[test]
    fn flipped_label_byte_is_caught_and_the_key_re_appended() {
        let t = tree("kernel", 8);
        let (path, hash) = persisted("flip", &t);
        // "kernel" -> "Kernel": still valid svpack, a different tree.
        patch_byte(&path, offset_of(&path, b"kernel"), |b| b ^ 0x20);
        let store = ArtifactStore::open(&path).unwrap();
        assert_eq!(store.records(), 1);
        assert!(store.get(hash).is_none(), "altered tree served under the original key");
        assert_eq!(store.corrupt.get(), 1);
        assert_eq!(store.decode_errors.get(), 0);
        assert_eq!(store.records(), 0, "corrupt record dropped from the index");
        assert!(store.raw(hash).is_none());
        // The next append of the key writes the correct bytes again.
        assert_eq!(store.append_tree(&t).unwrap(), hash);
        assert_eq!(store.appends.get(), 1);
        assert_eq!(store.get(hash).unwrap().tree(), t.tree());
        drop(store);
        // On reopen the re-appended record shadows the corrupt one.
        let store = ArtifactStore::open(&path).unwrap();
        assert_eq!(store.get(hash).unwrap().tree(), t.tree());
        assert_eq!(store.corrupt.get(), 0);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_and_append_verify_a_record_once() {
        let t = tree("loop", 5);
        let (path, hash) = persisted("raw-verify", &t);
        let store = ArtifactStore::open(&path).unwrap();
        // First raw read of a record from disk: one verifying decode,
        // whose tree the warm map keeps.
        assert_eq!(*store.raw(hash).unwrap(), write_tree(t.tree()));
        assert_eq!(store.decodes.get(), 1);
        store.raw(hash).unwrap();
        assert_eq!(store.append_tree(&t).unwrap(), hash);
        assert!(store.get(hash).is_some());
        assert_eq!((store.decodes.get(), store.hits.get(), store.appends.get()), (1, 1, 0));
        drop(store);
        // A corrupt record is refused by raw as well.
        patch_byte(&path, offset_of(&path, b"loop"), |b| b ^ 0x20);
        let store = ArtifactStore::open(&path).unwrap();
        assert!(store.raw(hash).is_none());
        assert_eq!(store.corrupt.get(), 1);
        // And append_tree replaces it rather than trusting the key.
        store.append_tree(&t).unwrap();
        assert_eq!((store.corrupt.get(), store.appends.get()), (1, 1));
        assert_eq!(*store.raw(hash).unwrap(), write_tree(t.tree()));
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn undecodable_records_are_counted_and_dropped() {
        let t = tree("body", 3);
        let (path, hash) = persisted("undecodable", &t);
        // The svpack version byte follows the 4-byte magic.
        patch_byte(&path, offset_of(&path, b"SVTR") + 4, |_| 9);
        let store = ArtifactStore::open(&path).unwrap();
        assert!(store.get(hash).is_none());
        assert_eq!((store.decode_errors.get(), store.corrupt.get()), (1, 0));
        assert_eq!(store.records(), 0);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_appended_in_process_are_never_re_verified() {
        let store = ArtifactStore::temp().unwrap();
        let t = tree("fn", 4);
        let hash = store.append_tree(&t).unwrap();
        store.raw(hash).unwrap();
        store.append_tree(&t).unwrap();
        let bytes = write_tree(tree("other", 2).tree());
        let h2 = SharedTree::new(pack::read_tree(&bytes).unwrap()).structural_hash();
        store.append_bytes_under(h2, &bytes).unwrap();
        store.raw(h2).unwrap();
        assert_eq!(store.decodes.get(), 0, "bytes in hand are trusted without a decode");
    }

    #[test]
    fn non_svpack_payloads_are_rejected() {
        let store = ArtifactStore::temp().unwrap();
        assert!(store.append_bytes_under(1, b"garbage").is_err());
        assert_eq!(store.records(), 0);
    }

    #[test]
    fn shared_interner_across_records() {
        let store = ArtifactStore::temp().unwrap();
        let path = store.path().to_path_buf();
        let a = store.append_tree(&tree("alpha", 2)).unwrap();
        let b = store.append_tree(&tree("beta", 2)).unwrap();
        drop(store);
        // Reopen so both reads decode; their trees intern into one table.
        // (The temp store unlinked its file on drop, so re-create it.)
        let store = ArtifactStore::open(&path).unwrap();
        let ta = tree("alpha", 2);
        let tb = tree("beta", 2);
        store.append_tree(&ta).unwrap();
        store.append_tree(&tb).unwrap();
        drop(store);
        let store = ArtifactStore::open(&path).unwrap();
        let ra = store.get(a).unwrap();
        let rb = store.get(b).unwrap();
        assert!(Arc::ptr_eq(ra.tree().interner(), rb.tree().interner()));
        assert_eq!(store.decodes.get(), 2);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}
