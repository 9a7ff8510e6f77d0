//! Device-sharded record stores with a manifest index and LRU metadata.
//!
//! A long-lived tuning service accumulates records for *many* devices,
//! and costs from different devices must never be mixed — the workload
//! fingerprint already separates them logically, but one flat file makes
//! every load parse every device's history and every save rewrite it.
//! A [`ShardedStore`] keeps **one [`RecordStore`] file per device
//! fingerprint** (`"<preset name>|<smem bytes>"`) inside a directory,
//! indexed by a manifest that also persists the service's LRU metadata
//! (a logical clock plus a last-hit stamp per workload).
//!
//! Everything stays deterministic: shards are a `BTreeMap` keyed by
//! device key, each shard file is the store's canonical JSONL, and the
//! manifest lists shards and stamps in sorted order — two services that
//! saw the same history write byte-identical directories.
//!
//! Splitting a flat store into shards and merging shards back into a
//! flat store are exact inverses on the record set ([`from_flat`] /
//! [`merged`]; pinned by the crate's property tests).
//!
//! [`from_flat`]: ShardedStore::from_flat
//! [`merged`]: ShardedStore::merged

use iolb_autotune::plan::{anchor_fingerprint, ANCHOR_FLOOR};
use iolb_records::{RecordStore, TuningRecord, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Manifest file name inside a shard directory.
pub(crate) const MANIFEST_FILE: &str = "manifest.tsv";

/// Advisory lock file name inside a shard directory. The file itself is
/// permanent (never deleted — unlinking an advisory lock file races
/// with concurrent acquirers); the *lock* is an OS `flock` on it.
pub(crate) const LOCK_FILE: &str = "manifest.lock";

/// Default time writers wait for the directory lock before giving up.
/// Configurable per service via `ServiceConfig::lock_timeout` and on the
/// CLI via `tune-cache --lock-timeout`.
pub const LOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a [`DirLock`] could not be acquired — the typed alternative to a
/// generic I/O failure, so callers can distinguish "another writer held
/// the directory for the whole window" (retryable, report who/where)
/// from a real filesystem error.
#[derive(Debug)]
pub enum LockError {
    /// Another process held the lock for the entire timeout window.
    Timeout {
        /// The lock file that stayed held.
        path: PathBuf,
        /// How long this acquirer waited before giving up.
        waited: Duration,
    },
    /// Filesystem-level failure (permissions, unreadable directory, ...).
    Io(std::io::Error),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Timeout { path, waited } => write!(
                f,
                "timed out after {:.1}s waiting for {}",
                waited.as_secs_f64(),
                path.display()
            ),
            LockError::Io(e) => write!(f, "cannot acquire directory lock: {e}"),
        }
    }
}

impl std::error::Error for LockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LockError::Io(e) => Some(e),
            LockError::Timeout { .. } => None,
        }
    }
}

impl From<std::io::Error> for LockError {
    fn from(e: std::io::Error) -> Self {
        LockError::Io(e)
    }
}

impl From<LockError> for std::io::Error {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Timeout { .. } => {
                std::io::Error::new(std::io::ErrorKind::TimedOut, e.to_string())
            }
            LockError::Io(io) => io,
        }
    }
}

/// Version tag written into the manifest header. Loaders reject foreign
/// versions (same stance as the record schema: re-tune, never guess).
const MANIFEST_VERSION: u32 = 1;

/// The device fingerprint a record is sharded by: preset name plus
/// shared-memory size, exactly the two fields [`Workload`] identifies a
/// device with.
fn device_key(device: &str, smem_bytes: u32) -> String {
    format!("{device}|{smem_bytes}")
}

/// The device key of a workload.
fn workload_device_key(w: &Workload) -> String {
    device_key(&w.device, w.smem_bytes)
}

/// FNV-1a, the same dependency-free hash the proptest shim uses. Also
/// the hash the fleet router's consistent-hash ring is built on (see
/// [`crate::fleet`]): stable across runs and builds, so the same
/// fingerprint set always lands on the same peers.
pub(crate) fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic shard file name for a device key: a readable slug plus
/// the full 64-bit FNV hash so distinct keys can never collide after
/// slugification (`"Tesla V100|98304"` → `"tesla-v100-98304-<hash>.jsonl"`).
pub fn shard_file_name(key: &str) -> String {
    let mut slug = String::with_capacity(key.len());
    let mut last_dash = true; // suppress a leading dash
    for c in key.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            slug.push('-');
            last_dash = true;
        }
    }
    let slug = slug.trim_end_matches('-');
    format!("{slug}-{:016x}.jsonl", fnv1a(key))
}

/// How records leave a long-lived store: least-recently-hit workloads
/// are truncated to their `top_k` best records (and, if the store is
/// still over budget, to their single best). The best-cost record of a
/// workload is **never** evicted — replay of a known workload must stay
/// exact forever; only the diversity of its alternatives ages out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionPolicy {
    /// Target total record count across all shards.
    pub max_records: usize,
    /// Records retained per evicted (cold) workload in the first pass.
    pub top_k: usize,
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        Self { max_records: 4096, top_k: 4 }
    }
}

/// An exclusive advisory lock on a shard directory — the cross-process
/// write protocol.
///
/// **Who takes it:** every *writer* ([`ShardedStore::merge_into_dir`],
/// the service's `save`/`sync_dir` (so `tune-cache tune-net -o` and the
/// daemon's persister), and the offline `tune-cache evict`), for the
/// duration of one load → mutate → save cycle (milliseconds; tuning
/// itself happens *outside* the lock). **Readers never lock**: every
/// file in the directory is replaced atomically (pid-qualified temp +
/// rename), so a concurrent load always sees a consistent manifest and
/// consistent shard files — at worst one save older than the newest.
///
/// **Crash behavior:** the lock is an OS `flock` on `manifest.lock`, so
/// the kernel releases it the instant the holding process dies — a
/// crashed writer can never wedge the directory. The lock *file* is
/// deliberately never deleted: unlinking it would race a concurrent
/// acquirer (two processes each holding "the" lock on different
/// inodes). Its contents (the last holder's pid) are diagnostic only.
#[derive(Debug)]
pub struct DirLock {
    file: std::fs::File,
}

impl DirLock {
    /// Acquires the directory's writer lock, polling until `timeout`
    /// elapses (the critical sections it guards are short, so waiters
    /// spin briefly in practice). Creates the directory and lock file if
    /// missing. Fails with the typed [`LockError::Timeout`] when some
    /// other process holds the lock for the whole window (converting to
    /// `std::io::ErrorKind::TimedOut` through `?` in `io::Result`
    /// contexts).
    pub fn acquire(dir: impl AsRef<Path>, timeout: Duration) -> Result<Self, LockError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_FILE);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let deadline = Instant::now() + timeout;
        loop {
            match file.try_lock() {
                Ok(()) => break,
                Err(std::fs::TryLockError::WouldBlock) => {
                    if Instant::now() >= deadline {
                        return Err(LockError::Timeout { path, waited: timeout });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(std::fs::TryLockError::Error(e)) => return Err(LockError::Io(e)),
            }
        }
        // Best-effort diagnostics: who holds it. Failure to write the
        // pid must not fail the acquisition.
        let _ = file.set_len(0);
        let _ = (&file).write_all(format!("pid {}\n", std::process::id()).as_bytes());
        Ok(Self { file })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Explicit for clarity; closing the descriptor releases the
        // flock anyway (as does process death — the crash story).
        let _ = self.file.unlock();
    }
}

/// What a cross-process [`ShardedStore::merge_into_dir`] did.
#[derive(Debug, Clone)]
pub struct DirMergeReport {
    /// Records this merge added to the directory (records the directory
    /// already held count zero).
    pub inserted: usize,
    /// Records the directory holds after the merge.
    pub total: usize,
    /// What loading the directory's prior contents observed.
    pub load: ShardLoadReport,
}

/// What a tolerant [`ShardedStore::load`] observed.
#[derive(Debug, Clone, Default)]
pub struct ShardLoadReport {
    /// Records indexed across all shards.
    pub loaded: usize,
    /// Human-readable problems (skipped lines, missing files, foreign
    /// manifest entries). Empty means the directory was pristine.
    pub warnings: Vec<String>,
}

impl ShardLoadReport {
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }
}

/// A set of per-device [`RecordStore`] shards plus LRU metadata and an
/// anchor-bucket secondary index (see
/// [`iolb_autotune::plan::anchor_fingerprint`]): every stored workload
/// is also findable by the anchor fingerprint of its bucket, so an
/// exact-fingerprint miss can consult bucket-mates for transfer.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    /// device key → that device's records.
    shards: BTreeMap<String, RecordStore>,
    /// workload fingerprint → logical last-hit stamp.
    last_hit: BTreeMap<String, u64>,
    /// Logical clock; bumped by every [`touch`](Self::touch).
    clock: u64,
    /// The anchor floor the secondary index is built under.
    anchor_floor: usize,
    /// device key → anchor fingerprint → exact fingerprints in the
    /// bucket. Pure function of `(records, anchor_floor)`: maintained by
    /// [`insert`](Self::insert) (the one membership-adding path) and
    /// rebuilt by [`set_anchor_floor`](Self::set_anchor_floor).
    anchor_index: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
}

impl Default for ShardedStore {
    fn default() -> Self {
        Self {
            shards: BTreeMap::new(),
            last_hit: BTreeMap::new(),
            clock: 0,
            anchor_floor: ANCHOR_FLOOR,
            anchor_index: BTreeMap::new(),
        }
    }
}

impl PartialEq for ShardedStore {
    /// Equality is over the observable history (records, stamps, clock).
    /// The anchor index is a pure function of the records and floor, and
    /// the floor is service configuration, not transferred state — two
    /// stores holding the same records are the same store.
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards && self.last_hit == other.last_hit && self.clock == other.clock
    }
}

impl ShardedStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits a flat store into device shards (the record-set identity
    /// inverse of [`merged`](Self::merged)).
    pub fn from_flat(flat: RecordStore) -> Self {
        let mut sharded = Self::new();
        sharded.merge_flat(flat);
        sharded
    }

    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.shards.values().map(RecordStore::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.values().all(RecordStore::is_empty)
    }

    /// Number of device shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Distinct workloads across all shards.
    pub fn workload_count(&self) -> usize {
        self.shards.values().map(RecordStore::workload_count).sum()
    }

    /// `(device key, shard)` pairs in deterministic order.
    pub fn shards(&self) -> impl Iterator<Item = (&str, &RecordStore)> {
        self.shards.iter().map(|(k, s)| (k.as_str(), s))
    }

    /// Routes a record into its device's shard and indexes the workload
    /// under its anchor bucket. Membership is monotone: even a
    /// superseded duplicate proves the workload exists in its bucket.
    pub fn insert(&mut self, rec: TuningRecord) -> bool {
        let device = workload_device_key(&rec.workload);
        let anchor = anchor_fingerprint(&rec.workload, self.anchor_floor);
        let exact = rec.workload.fingerprint();
        self.anchor_index
            .entry(device.clone())
            .or_default()
            .entry(anchor)
            .or_default()
            .insert(exact);
        self.shards.entry(device).or_default().insert(rec)
    }

    /// Re-buckets the secondary index under a new anchor floor (the
    /// service threads `ServiceConfig::anchor_floor` through here when
    /// it adopts a store). A no-op at the current floor.
    pub(crate) fn set_anchor_floor(&mut self, floor: usize) {
        if floor != self.anchor_floor {
            self.anchor_floor = floor;
            self.rebuild_anchor_index();
        }
    }

    fn rebuild_anchor_index(&mut self) {
        let mut index: BTreeMap<String, BTreeMap<String, BTreeSet<String>>> = BTreeMap::new();
        for (key, shard) in &self.shards {
            for (fp, rec) in shard.best_entries() {
                index
                    .entry(key.clone())
                    .or_default()
                    .entry(anchor_fingerprint(&rec.workload, self.anchor_floor))
                    .or_default()
                    .insert(fp.to_string());
            }
        }
        self.anchor_index = index;
    }

    /// Distinct anchor buckets indexed for one device shard.
    pub fn anchor_bucket_count(&self, device_key: &str) -> usize {
        self.anchor_index.get(device_key).map_or(0, BTreeMap::len)
    }

    /// The best transfer donor in the workload's anchor bucket: among
    /// same-bucket, transfer-compatible workloads — the exact
    /// fingerprint itself excluded — the stored best record with the
    /// lowest cost. Ties break toward the lexicographically smaller
    /// fingerprint (the bucket iterates in sorted order), so the donor
    /// choice is fully deterministic. The caller still gates the
    /// transfer analytically ([`crate::queue::transfer_admissible`]).
    pub fn anchor_donor(&self, workload: &Workload) -> Option<&TuningRecord> {
        let key = workload_device_key(workload);
        let shard = self.shards.get(&key)?;
        let bucket =
            self.anchor_index.get(&key)?.get(&anchor_fingerprint(workload, self.anchor_floor))?;
        let own = workload.fingerprint();
        let mut best: Option<&TuningRecord> = None;
        for fp in bucket {
            if *fp == own {
                continue;
            }
            let Some(candidate) = shard.records(fp).first() else { continue };
            if !workload.transfer_compatible(&candidate.workload) {
                continue;
            }
            if best.is_none_or(|b| candidate.canonical_cmp(b) == std::cmp::Ordering::Less) {
                best = Some(candidate);
            }
        }
        best
    }

    /// All records of a workload (canonical order, best first).
    pub fn records(&self, workload: &Workload) -> &[TuningRecord] {
        self.shards
            .get(&workload_device_key(workload))
            .map_or(&[], |s| s.records(&workload.fingerprint()))
    }

    /// The best stored record of a workload, if any.
    pub fn best(&self, workload: &Workload) -> Option<&TuningRecord> {
        self.records(workload).first()
    }

    /// Marks a workload as hit *now* (bumps the logical clock). The
    /// eviction policy keeps what is touched often.
    pub fn touch(&mut self, fingerprint: &str) {
        self.clock += 1;
        self.last_hit.insert(fingerprint.to_string(), self.clock);
    }

    /// The last-hit stamp of a workload (0 = never hit, coldest).
    pub fn last_hit(&self, fingerprint: &str) -> u64 {
        self.last_hit.get(fingerprint).copied().unwrap_or(0)
    }

    /// All persisted `(fingerprint, last-hit stamp)` pairs in
    /// deterministic (fingerprint) order — the wire codec serializes a
    /// store's LRU metadata from here.
    pub(crate) fn hit_stamps(&self) -> impl Iterator<Item = (&str, u64)> {
        self.last_hit.iter().map(|(fp, &stamp)| (fp.as_str(), stamp))
    }

    /// Restores a persisted stamp *without* bumping the logical clock
    /// (the deserialization inverse of [`hit_stamps`](Self::hit_stamps);
    /// [`touch`](Self::touch) is the live path). Keeps the stamp
    /// invariant: the clock never falls behind a restored stamp.
    pub(crate) fn restore_hit(&mut self, fingerprint: &str, stamp: u64) {
        let entry = self.last_hit.entry(fingerprint.to_string()).or_insert(0);
        *entry = (*entry).max(stamp);
        self.clock = self.clock.max(stamp);
    }

    /// Forces the logical clock to at least `clock` (state transfer;
    /// the clock never runs backwards).
    pub(crate) fn restore_clock(&mut self, clock: u64) {
        self.clock = self.clock.max(clock);
    }

    /// Current logical clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Merges a flat store in, routing every record to its device shard.
    /// Returns how many records changed the store.
    pub(crate) fn merge_flat(&mut self, flat: RecordStore) -> usize {
        let mut inserted = 0;
        for (_, list) in flat.into_entries() {
            for rec in list {
                if self.insert(rec) {
                    inserted += 1;
                }
            }
        }
        inserted
    }

    /// Cross-shard merge-out: every shard's records folded into one flat
    /// store (the record-set identity inverse of [`Self::from_flat`]).
    pub fn merged(&self) -> RecordStore {
        let mut flat = RecordStore::new();
        for shard in self.shards.values() {
            flat.merge(shard.clone());
        }
        flat
    }

    /// Union-merges another sharded store into this one: records route
    /// to their device shards, LRU stamps take the per-workload maximum,
    /// and the logical clock takes the maximum — so two histories merge
    /// without either's recency information running backwards. Returns
    /// how many records changed the store.
    pub fn absorb(&mut self, other: ShardedStore) -> usize {
        let inserted = self.merge_flat(other.merged());
        for (fp, stamp) in other.last_hit {
            let entry = self.last_hit.entry(fp).or_insert(0);
            *entry = (*entry).max(stamp);
        }
        self.clock = self.clock.max(other.clock);
        inserted
    }

    /// Cross-process append: under the directory's advisory [`DirLock`],
    /// loads whatever the directory currently holds, [`absorb`]s this
    /// store into it, and writes the union back. This — not [`save`],
    /// which *overwrites* — is how multiple OS processes share one shard
    /// directory: every writer's records survive, in canonical order,
    /// whatever the interleaving. Records are deduplicated by
    /// `(workload, config)`, so two processes that tuned the same
    /// workload (hermetic runs are bit-identical) merge to one copy.
    /// Refuses, naming the file, when a shard the manifest lists cannot
    /// be read (see [`load_for_write`](Self::load_for_write)).
    ///
    /// [`absorb`]: Self::absorb
    /// [`save`]: Self::save
    pub fn merge_into_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<DirMergeReport> {
        let dir = dir.as_ref();
        let _lock = DirLock::acquire(dir, LOCK_TIMEOUT)?;
        self.merge_into_dir_locked(dir)
    }

    /// The body of [`merge_into_dir`](Self::merge_into_dir) for callers
    /// that **already hold** the directory's [`DirLock`] — the service's
    /// `sync_dir` uses this so it can merge records *and* the stats
    /// sidecar inside one critical section (a sidecar written after the
    /// lock drops could be overwritten by a concurrent writer,
    /// silently losing telemetry).
    pub(crate) fn merge_into_dir_locked(&self, dir: &Path) -> std::io::Result<DirMergeReport> {
        let (mut disk, load) = Self::load_for_write(dir)?;
        let inserted = disk.absorb(self.clone());
        disk.save(dir)?;
        Ok(DirMergeReport { inserted, total: disk.len(), load })
    }

    /// Applies the eviction policy: while the store holds more than
    /// `policy.max_records` records, least-recently-hit workloads are
    /// truncated to their `policy.top_k` best records (coldest first;
    /// ties break on fingerprint), then — if still over budget — to
    /// their single best record. A workload's best-cost record is never
    /// removed, so the store can stay above `max_records` when it holds
    /// more workloads than that. Returns how many records were dropped.
    pub fn evict(&mut self, policy: &EvictionPolicy) -> usize {
        let mut total = self.len();
        if total <= policy.max_records {
            return 0;
        }
        // Coldest-first eviction order: (stamp, fingerprint) ascending.
        let mut order: Vec<(u64, String, String)> = Vec::new();
        for (key, shard) in &self.shards {
            for (fp, _) in shard.entries() {
                order.push((self.last_hit(fp), fp.to_string(), key.clone()));
            }
        }
        order.sort();
        let mut dropped = 0;
        'passes: for keep_floor in [policy.top_k.max(1), 1] {
            for (_, fp, key) in &order {
                if total <= policy.max_records {
                    break 'passes;
                }
                let shard = self.shards.get_mut(key).expect("shard of listed workload");
                // Truncate only as far as the budget requires: the
                // last-touched workload keeps everything the budget
                // still allows, never less than the pass's floor.
                let excess = total - policy.max_records;
                let keep = keep_floor.max(shard.records(fp).len().saturating_sub(excess));
                let d = shard.truncate_workload(fp, keep);
                dropped += d;
                total -= d;
            }
        }
        dropped
    }

    /// Canonical manifest text: version header, clock, shard index
    /// (sorted by device key), last-hit stamps (sorted by fingerprint).
    /// Tab-separated because device names contain spaces and
    /// fingerprints contain `|`.
    fn manifest_text(&self) -> String {
        let mut out = format!("# iolb-service shard manifest v{MANIFEST_VERSION}\n");
        out.push_str(&format!("clock\t{}\n", self.clock));
        for key in self.shards.keys() {
            out.push_str(&format!("shard\t{key}\t{}\n", shard_file_name(key)));
        }
        for (fp, stamp) in &self.last_hit {
            out.push_str(&format!("hit\t{stamp}\t{fp}\n"));
        }
        out
    }

    /// Writes the directory: one canonical JSONL file per shard plus the
    /// manifest, each atomically (pid-qualified temp file + rename, so
    /// concurrent processes can never truncate each other's in-flight
    /// writes). Deterministic: equal stores write byte-identical
    /// directories. **Overwrites**: records other processes added since
    /// this store loaded are lost — cross-process writers use
    /// [`merge_into_dir`](Self::merge_into_dir) instead.
    pub fn save(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (key, shard) in &self.shards {
            shard.save(dir.join(shard_file_name(key)))?;
        }
        let tmp = dir.join(format!("manifest.tsv.tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.manifest_text().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(tmp, dir.join(MANIFEST_FILE))
    }

    /// Loads a shard directory. A missing directory or manifest loads as
    /// an empty store with a clean report (first runs need no special
    /// casing); malformed manifest lines, unreadable shard files and
    /// skipped records are reported as warnings, never errors —
    /// corruption costs re-tuning, not availability.
    pub fn load(dir: impl AsRef<Path>) -> std::io::Result<(Self, ShardLoadReport)> {
        Self::load_checked(dir.as_ref(), false)
    }

    /// [`load`](Self::load) for a writer that will [`save`](Self::save)
    /// the result over the directory: a shard file the manifest lists
    /// but that cannot be read is an error naming the file, because the
    /// manifest saved without it would unindex its records for good.
    /// Corrupt *lines* are still skipped and reported, as on load.
    pub fn load_for_write(dir: impl AsRef<Path>) -> std::io::Result<(Self, ShardLoadReport)> {
        Self::load_checked(dir.as_ref(), true)
    }

    fn load_checked(dir: &Path, for_write: bool) -> std::io::Result<(Self, ShardLoadReport)> {
        let mut sharded = Self::new();
        let mut report = ShardLoadReport::default();
        let manifest_path = dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Ok((sharded, report));
        }
        let text = std::fs::read_to_string(&manifest_path)?;
        let mut max_stamp = 0u64;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(version) = line.strip_prefix("# iolb-service shard manifest v") {
                if version.trim().parse::<u32>() != Ok(MANIFEST_VERSION) {
                    report.warnings.push(format!(
                        "manifest:{}: foreign manifest version {version:?}; ignoring directory",
                        i + 1
                    ));
                    return Ok((Self::new(), report));
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let mut fields = line.split('\t');
            match (fields.next(), fields.next(), fields.next()) {
                (Some("clock"), Some(c), None) => match c.parse() {
                    Ok(c) => sharded.clock = c,
                    Err(_) => report.warnings.push(format!("manifest:{}: bad clock {c:?}", i + 1)),
                },
                (Some("shard"), Some(key), Some(file)) => {
                    let path = dir.join(file);
                    match std::fs::read_to_string(&path) {
                        Ok(jsonl) => {
                            let (store, load) = RecordStore::from_jsonl(&jsonl);
                            for (line_no, reason) in &load.skipped {
                                report.warnings.push(format!("{file}:{line_no}: {reason}"));
                            }
                            report.loaded += store.len();
                            // Route through insert(): records misfiled
                            // under the wrong shard self-heal, and the
                            // shard exists even when empty.
                            sharded.shards.entry(key.to_string()).or_default();
                            for (_, list) in store.into_entries() {
                                for rec in list {
                                    sharded.insert(rec);
                                }
                            }
                        }
                        Err(e) if for_write => {
                            return Err(std::io::Error::new(
                                e.kind(),
                                format!(
                                    "{}: shard listed in the manifest is unreadable ({e}); \
                                     refusing to rewrite the directory without it",
                                    path.display()
                                ),
                            ));
                        }
                        Err(e) => {
                            report.warnings.push(format!("{file}: unreadable shard: {e}"));
                        }
                    }
                }
                (Some("hit"), Some(stamp), Some(fp)) => match stamp.parse::<u64>() {
                    Ok(stamp) => {
                        max_stamp = max_stamp.max(stamp);
                        sharded.last_hit.insert(fp.to_string(), stamp);
                    }
                    Err(_) => {
                        report.warnings.push(format!("manifest:{}: bad stamp {stamp:?}", i + 1))
                    }
                },
                _ => {
                    report.warnings.push(format!("manifest:{}: unrecognized line {line:?}", i + 1))
                }
            }
        }
        // A crash between shard saves and the manifest write can leave
        // stamps ahead of the clock; never let the clock run backwards.
        sharded.clock = sharded.clock.max(max_stamp);
        Ok((sharded, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::optimality::TileKind;
    use iolb_core::shapes::ConvShape;
    use iolb_dataflow::config::ScheduleConfig;
    use iolb_tensor::layout::Layout;

    fn wl(cin: usize, device: &str) -> Workload {
        Workload::new(ConvShape::square(cin, 28, 32, 3, 1, 1), TileKind::Direct, device, 96 * 1024)
    }

    fn cfg(x: usize) -> ScheduleConfig {
        ScheduleConfig {
            x,
            y: 7,
            z: 8,
            nxt: 1,
            nyt: 1,
            nzt: 1,
            sb_bytes: 16 * 1024,
            layout: Layout::Chw,
        }
    }

    fn rec(cin: usize, device: &str, x: usize, cost: f64) -> TuningRecord {
        TuningRecord::new(wl(cin, device), cfg(x), cost, 7).unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "iolb-service-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_routes_by_device() {
        let mut s = ShardedStore::new();
        assert!(s.insert(rec(64, "Tesla V100", 7, 1.0)));
        assert!(s.insert(rec(64, "GTX 1080 Ti", 7, 2.0)));
        assert_eq!(s.shard_count(), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.best(&wl(64, "Tesla V100")).unwrap().cost_ms, 1.0);
        assert_eq!(s.best(&wl(64, "GTX 1080 Ti")).unwrap().cost_ms, 2.0);
        assert!(s.best(&wl(32, "Tesla V100")).is_none());
    }

    #[test]
    fn split_then_merge_is_identity_on_records() {
        let mut flat = RecordStore::new();
        for (cin, dev, x, cost) in [
            (64, "Tesla V100", 7, 1.0),
            (64, "Tesla V100", 14, 2.0),
            (64, "GTX 1080 Ti", 7, 3.0),
            (32, "Titan X", 7, 0.5),
        ] {
            flat.insert(rec(cin, dev, x, cost));
        }
        let sharded = ShardedStore::from_flat(flat.clone());
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.merged().to_jsonl(), flat.to_jsonl());
    }

    #[test]
    fn shard_file_names_are_distinct_and_stable() {
        let a = shard_file_name(&device_key("Tesla V100", 96 * 1024));
        let b = shard_file_name(&device_key("Tesla V100", 64 * 1024));
        let c = shard_file_name(&device_key("tesla v100", 96 * 1024));
        assert_ne!(a, b);
        assert_ne!(a, c, "slug collision must be broken by the hash suffix");
        assert_eq!(a, shard_file_name(&device_key("Tesla V100", 96 * 1024)));
        assert!(a.ends_with(".jsonl") && a.starts_with("tesla-v100-98304-"));
    }

    #[test]
    fn eviction_is_coldest_first_and_keeps_best() {
        let mut s = ShardedStore::new();
        for x in [7, 14, 28, 4, 2] {
            s.insert(rec(64, "Tesla V100", x, x as f64));
        }
        for x in [7, 14, 28] {
            s.insert(rec(32, "Tesla V100", x, x as f64));
        }
        // cin=32 is hot, cin=64 never hit (stamp 0, coldest).
        s.touch(&wl(32, "Tesla V100").fingerprint());
        let dropped = s.evict(&EvictionPolicy { max_records: 5, top_k: 2 });
        assert_eq!(dropped, 3, "cold workload truncated to top-2");
        assert_eq!(s.records(&wl(64, "Tesla V100")).len(), 2);
        assert_eq!(s.records(&wl(32, "Tesla V100")).len(), 3, "hot workload untouched");
        assert_eq!(s.best(&wl(64, "Tesla V100")).unwrap().cost_ms, 2.0, "best survives");
        // Tighter budget: second pass cuts everything to its best record.
        let dropped = s.evict(&EvictionPolicy { max_records: 2, top_k: 2 });
        assert_eq!(dropped, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.best(&wl(32, "Tesla V100")).unwrap().cost_ms, 7.0);
        // Below the per-workload floor nothing more can go.
        assert_eq!(s.evict(&EvictionPolicy { max_records: 1, top_k: 1 }), 0);
    }

    #[test]
    fn evict_under_budget_is_a_no_op() {
        let mut s = ShardedStore::new();
        s.insert(rec(64, "Tesla V100", 7, 1.0));
        assert_eq!(s.evict(&EvictionPolicy::default()), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn save_load_round_trips_records_clock_and_stamps() {
        let mut s = ShardedStore::new();
        s.insert(rec(64, "Tesla V100", 7, 1.0));
        s.insert(rec(64, "GTX 1080 Ti", 7, 2.0));
        s.insert(rec(32, "Tesla V100", 14, 3.0));
        s.touch(&wl(64, "Tesla V100").fingerprint());
        s.touch(&wl(32, "Tesla V100").fingerprint());
        let dir = temp_dir("roundtrip");
        s.save(&dir).unwrap();
        let (loaded, report) = ShardedStore::load(&dir).unwrap();
        assert!(report.is_clean(), "warnings: {:?}", report.warnings);
        assert_eq!(report.loaded, 3);
        assert_eq!(loaded.merged().to_jsonl(), s.merged().to_jsonl());
        assert_eq!(loaded.clock(), s.clock());
        assert_eq!(
            loaded.last_hit(&wl(32, "Tesla V100").fingerprint()),
            s.last_hit(&wl(32, "Tesla V100").fingerprint())
        );
        // Saving the loaded store reproduces the manifest byte-for-byte.
        let manifest_a = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let dir2 = temp_dir("roundtrip2");
        loaded.save(&dir2).unwrap();
        let manifest_b = std::fs::read(dir2.join(MANIFEST_FILE)).unwrap();
        assert_eq!(manifest_a, manifest_b);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn missing_directory_loads_empty_and_clean() {
        let (s, report) = ShardedStore::load(temp_dir("missing")).unwrap();
        assert!(s.is_empty() && report.is_clean());
    }

    #[test]
    fn corrupt_manifest_lines_warn_but_load_continues() {
        let mut s = ShardedStore::new();
        s.insert(rec(64, "Tesla V100", 7, 1.0));
        let dir = temp_dir("corrupt");
        s.save(&dir).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let mut text = std::fs::read_to_string(&manifest).unwrap();
        text.push_str("shard\tNo Such Device|1\tmissing-shard.jsonl\n");
        text.push_str("gibberish line\n");
        text.push_str("hit\tnot-a-number\tsome|fingerprint\n");
        std::fs::write(&manifest, text).unwrap();
        let (loaded, report) = ShardedStore::load(&dir).unwrap();
        assert_eq!(loaded.len(), 1, "good shard still loads");
        assert_eq!(report.warnings.len(), 3, "warnings: {:?}", report.warnings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_lock_is_exclusive_until_dropped() {
        let dir = temp_dir("lock");
        std::fs::create_dir_all(&dir).unwrap();
        let held = DirLock::acquire(&dir, Duration::from_secs(5)).unwrap();
        assert!(dir.join(LOCK_FILE).exists());
        let contended = DirLock::acquire(&dir, Duration::from_millis(20));
        let err = contended.unwrap_err();
        assert!(
            matches!(err, LockError::Timeout { ref path, waited } if path == &dir.join(LOCK_FILE)
                && waited == Duration::from_millis(20)),
            "expected a typed timeout, got {err:?}"
        );
        // The io::Error conversion (used by `?` in io::Result contexts)
        // preserves the TimedOut kind.
        assert_eq!(std::io::Error::from(err).kind(), std::io::ErrorKind::TimedOut);
        drop(held);
        let reacquired = DirLock::acquire(&dir, Duration::from_secs(5));
        assert!(reacquired.is_ok());
        drop(reacquired);
        assert!(dir.join(LOCK_FILE).exists(), "lock file is permanent by design");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absorb_unions_records_stamps_and_clock() {
        let mut a = ShardedStore::new();
        a.insert(rec(64, "Tesla V100", 7, 1.0));
        a.touch(&wl(64, "Tesla V100").fingerprint()); // clock 1
        let mut b = ShardedStore::new();
        b.insert(rec(64, "Tesla V100", 7, 1.0)); // duplicate record
        b.insert(rec(32, "GTX 1080 Ti", 14, 2.0));
        b.touch(&wl(32, "GTX 1080 Ti").fingerprint());
        b.touch(&wl(32, "GTX 1080 Ti").fingerprint()); // clock 2
        let inserted = a.absorb(b);
        assert_eq!(inserted, 1, "only the genuinely new record lands");
        assert_eq!(a.len(), 2);
        assert_eq!(a.clock(), 2, "clock takes the maximum");
        assert_eq!(a.last_hit(&wl(64, "Tesla V100").fingerprint()), 1);
        assert_eq!(a.last_hit(&wl(32, "GTX 1080 Ti").fingerprint()), 2);
    }

    #[test]
    fn merge_into_dir_unions_with_prior_contents() {
        let dir = temp_dir("mergeinto");
        let mut a = ShardedStore::new();
        a.insert(rec(64, "Tesla V100", 7, 1.0));
        let report = a.merge_into_dir(&dir).unwrap();
        assert_eq!((report.inserted, report.total), (1, 1));
        assert!(report.load.is_clean());
        // A second writer with overlapping + new records: union, not
        // overwrite.
        let mut b = ShardedStore::new();
        b.insert(rec(64, "Tesla V100", 7, 1.0));
        b.insert(rec(64, "Tesla V100", 14, 2.0));
        let report = b.merge_into_dir(&dir).unwrap();
        assert_eq!((report.inserted, report.total), (1, 2));
        let (merged, _) = ShardedStore::load(&dir).unwrap();
        let mut expected = a;
        expected.absorb(b);
        assert_eq!(merged.merged().to_jsonl(), expected.merged().to_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writers_refuse_a_directory_with_an_unreadable_shard() {
        let fixture =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/tuning_records.jsonl");
        let (flat, _) = RecordStore::load(fixture).unwrap();
        let dir = temp_dir("unreadable");
        ShardedStore::from_flat(flat).save(&dir).unwrap();
        let manifest = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        // Swap the one shard file for a directory: listed, not readable.
        let shard = dir.join(shard_file_name(&device_key("Tesla V100", 96 * 1024)));
        let aside = dir.join("aside");
        std::fs::rename(&shard, &aside).unwrap();
        std::fs::create_dir(&shard).unwrap();

        let (read, report) = ShardedStore::load(&dir).unwrap();
        assert!(read.is_empty() && report.warnings.len() == 1, "readers tolerate it");
        let mut writer = ShardedStore::new();
        writer.insert(rec(64, "Tesla V100", 7, 1.0));
        let err = writer.merge_into_dir(&dir).unwrap_err();
        assert!(err.to_string().contains(&shard.display().to_string()), "{err}");
        assert_eq!(std::fs::read(dir.join(MANIFEST_FILE)).unwrap(), manifest);

        std::fs::remove_dir(&shard).unwrap();
        std::fs::rename(&aside, &shard).unwrap();
        let (restored, report) = ShardedStore::load(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(restored.len(), 80);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anchor_donor_finds_bucket_mates_on_the_same_device_only() {
        // 52x53 and 54x54 share the 64x64 anchor bucket; 70x54 does not.
        let shaped = |hin: usize, win: usize, device: &str| {
            Workload::new(
                ConvShape::new(96, hin, win, 24, 1, 1, 1, 0),
                TileKind::Direct,
                device,
                96 * 1024,
            )
        };
        let mut s = ShardedStore::new();
        let donor = shaped(54, 54, "Tesla V100");
        s.insert(TuningRecord::new(donor.clone(), cfg(2), 1.0, 7).unwrap());
        s.insert(TuningRecord::new(shaped(70, 54, "Tesla V100"), cfg(2), 0.1, 7).unwrap());
        s.insert(TuningRecord::new(shaped(52, 53, "GTX 1080 Ti"), cfg(2), 0.1, 7).unwrap());
        let target = shaped(52, 53, "Tesla V100");
        let found = s.anchor_donor(&target).expect("bucket mate on the same device");
        assert_eq!(found.workload.fingerprint(), donor.fingerprint());
        // The exact workload itself is never its own donor.
        s.insert(TuningRecord::new(target.clone(), cfg(2), 0.01, 7).unwrap());
        let found = s.anchor_donor(&target).expect("donor survives an exact record");
        assert_eq!(found.workload.fingerprint(), donor.fingerprint());
        // Transfer-incompatible bucket mates (different batch) are skipped.
        let batched = Workload { shape: target.shape.with_batch(4), ..target.clone() };
        assert!(s.anchor_donor(&batched).is_none());
        assert!(s.anchor_bucket_count(&device_key("Tesla V100", 96 * 1024)) >= 2);
    }

    #[test]
    fn anchor_donor_prefers_the_cheapest_bucket_mate_deterministically() {
        let shaped = |hin: usize| {
            Workload::new(
                ConvShape::new(96, hin, 54, 24, 1, 1, 1, 0),
                TileKind::Direct,
                "Tesla V100",
                96 * 1024,
            )
        };
        let mut s = ShardedStore::new();
        s.insert(TuningRecord::new(shaped(54), cfg(2), 2.0, 7).unwrap());
        s.insert(TuningRecord::new(shaped(50), cfg(4), 1.0, 7).unwrap());
        let found = s.anchor_donor(&shaped(52)).unwrap();
        assert_eq!(found.workload.shape.hin, 50, "lowest stored cost wins");
        // Survives save/load: the index is rebuilt from the records.
        let dir = temp_dir("anchoridx");
        s.save(&dir).unwrap();
        let (loaded, report) = ShardedStore::load(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(loaded.anchor_donor(&shaped(52)).unwrap(), found);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_anchor_floor_rebuckets_the_index() {
        let shaped = |hin: usize| {
            Workload::new(
                ConvShape::new(8, hin, 12, 8, 1, 1, 1, 0),
                TileKind::Direct,
                "Tesla V100",
                96 * 1024,
            )
        };
        let mut s = ShardedStore::new();
        s.insert(TuningRecord::new(shaped(12), cfg(2), 1.0, 7).unwrap());
        // At the default floor (16), hin 12 vs 10 stay exact: no bucket
        // sharing, no donor.
        assert_eq!(s.anchor_floor, iolb_autotune::plan::ANCHOR_FLOOR);
        assert!(s.anchor_donor(&shaped(10)).is_none());
        // At floor 8 both anchor to 16: the donor appears.
        s.set_anchor_floor(8);
        assert!(s.anchor_donor(&shaped(10)).is_some());
    }

    #[test]
    fn foreign_manifest_version_is_rejected_whole() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), "# iolb-service shard manifest v999\nclock\t5\n")
            .unwrap();
        let (loaded, report) = ShardedStore::load(&dir).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(report.warnings.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
