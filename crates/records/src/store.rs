//! The in-memory record index with persistent JSONL backing.
//!
//! The store is a `BTreeMap` keyed by workload fingerprint — iteration
//! order (and therefore serialization order) is deterministic — whose
//! per-workload record lists are kept sorted by [`canonical
//! order`](crate::record::TuningRecord::canonical_cmp). Saving always
//! emits the canonical form, so `save ∘ load` is the identity on
//! canonical files and two runs that measured the same data write
//! bit-identical stores.

use crate::jsonl;
use crate::record::{TuningRecord, Workload};
use iolb_dataflow::config::ScheduleConfig;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// What a (corruption-tolerant) load saw: how many records were indexed
/// and which lines were skipped, with reasons.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Records successfully indexed.
    pub loaded: usize,
    /// Records dropped as duplicates of an already-indexed
    /// workload+config pair (the better cost wins).
    pub superseded: usize,
    /// Skipped lines: `(1-based line number, reason)`.
    pub skipped: Vec<(usize, String)>,
}

impl LoadReport {
    /// Whether every line parsed cleanly.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// The tuning-record database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordStore {
    /// fingerprint -> records, each list sorted canonically (best first).
    by_workload: BTreeMap<String, Vec<TuningRecord>>,
}

impl RecordStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records across all workloads.
    pub fn len(&self) -> usize {
        self.by_workload.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.by_workload.is_empty()
    }

    /// Number of distinct workloads.
    pub fn workload_count(&self) -> usize {
        self.by_workload.len()
    }

    /// Fingerprints of every indexed workload, in deterministic order.
    pub fn fingerprints(&self) -> impl Iterator<Item = &str> {
        self.by_workload.keys().map(String::as_str)
    }

    /// All records of one workload (canonical order, best cost first).
    pub fn records(&self, fingerprint: &str) -> &[TuningRecord] {
        self.by_workload.get(fingerprint).map_or(&[], Vec::as_slice)
    }

    /// Every `(fingerprint, records)` pair, in deterministic fingerprint
    /// order; record lists are canonical (best cost first). This is the
    /// iteration surface sharding and eviction are built on.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[TuningRecord])> {
        self.by_workload.iter().map(|(fp, list)| (fp.as_str(), list.as_slice()))
    }

    /// The best record of every workload, in deterministic fingerprint
    /// order — the iteration surface secondary indexes (e.g. the
    /// service's anchor-bucket index) are built over without walking
    /// full record lists.
    pub fn best_entries(&self) -> impl Iterator<Item = (&str, &TuningRecord)> {
        self.by_workload.iter().filter_map(|(fp, list)| list.first().map(|rec| (fp.as_str(), rec)))
    }

    /// Consuming variant of [`entries`](Self::entries): yields every
    /// `(fingerprint, records)` pair in fingerprint order, moving the
    /// records out (what re-sharding wants — no clones).
    pub fn into_entries(self) -> impl Iterator<Item = (String, Vec<TuningRecord>)> {
        self.by_workload.into_iter()
    }

    /// Keeps only the `keep` best records of *one* workload (the list is
    /// canonical, so truncation always retains the best-cost record when
    /// `keep >= 1`). `keep == 0` removes the workload entirely. Returns
    /// how many records were dropped; unknown fingerprints drop nothing.
    pub fn truncate_workload(&mut self, fingerprint: &str, keep: usize) -> usize {
        let Some(list) = self.by_workload.get_mut(fingerprint) else {
            return 0;
        };
        if list.len() <= keep {
            return 0;
        }
        let dropped = list.len() - keep;
        list.truncate(keep);
        if list.is_empty() {
            self.by_workload.remove(fingerprint);
        }
        dropped
    }

    /// Inserts a record. If the workload+config pair already exists the
    /// lower cost wins (re-measurements of a deterministic simulator
    /// agree, but merged stores from different tuner versions may not).
    /// Returns `false` when an existing equal-or-better record made the
    /// insert a no-op.
    pub fn insert(&mut self, rec: TuningRecord) -> bool {
        let list = self.by_workload.entry(rec.workload.fingerprint()).or_default();
        if let Some(existing) = list.iter().position(|r| r.config == rec.config) {
            if list[existing].cost_ms <= rec.cost_ms {
                return false;
            }
            list.remove(existing);
        }
        let at = list.partition_point(|r| r.canonical_cmp(&rec) == std::cmp::Ordering::Less);
        list.insert(at, rec);
        true
    }

    /// The measurement cache: the stored cost of an exact
    /// workload+config hit, if any.
    pub fn lookup(&self, workload: &Workload, config: &ScheduleConfig) -> Option<f64> {
        self.by_workload
            .get(&workload.fingerprint())?
            .iter()
            .find(|r| r.config == *config)
            .map(|r| r.cost_ms)
    }

    /// The `k` best (lowest-cost) records of a workload.
    pub fn top_k(&self, workload: &Workload, k: usize) -> Vec<&TuningRecord> {
        let Some(list) = self.by_workload.get(&workload.fingerprint()) else {
            return Vec::new();
        };
        list.iter().take(k).collect()
    }

    /// The nearest transfer-compatible workload by feature distance,
    /// excluding the exact fingerprint itself. Ties break toward the
    /// lexicographically smaller fingerprint (determinism).
    fn nearest_workload(&self, workload: &Workload) -> Option<(&str, f64)> {
        let own = workload.fingerprint();
        let mut best: Option<(&str, f64)> = None;
        for (fp, list) in &self.by_workload {
            if *fp == own {
                continue;
            }
            // All records of a workload share the workload; use the first.
            let Some(first) = list.first() else { continue };
            let candidate = &first.workload;
            if !workload.transfer_compatible(candidate) {
                continue;
            }
            let d = workload.distance(candidate);
            if best.as_ref().is_none_or(|&(_, bd)| d < bd) {
                best = Some((fp.as_str(), d));
            }
        }
        best
    }

    /// Warm-start configurations for a workload: the `k` best exact
    /// matches when the store knows this workload, otherwise the `k`
    /// best of the nearest transfer-compatible workload. The second
    /// element reports whether cross-workload transfer was used.
    ///
    /// Transferred configurations come from a *different* schedule space
    /// and may not be valid in the target's — callers filter against
    /// their space before seeding a searcher.
    pub fn warm_start_configs(&self, workload: &Workload, k: usize) -> (Vec<ScheduleConfig>, bool) {
        let exact = self.top_k(workload, k);
        if !exact.is_empty() {
            return (exact.into_iter().map(|r| r.config).collect(), false);
        }
        let Some((fp, _)) = self.nearest_workload(workload) else {
            return (Vec::new(), false);
        };
        let configs: Vec<ScheduleConfig> =
            self.records(fp).iter().take(k).map(|r| r.config).collect();
        let transferred = !configs.is_empty();
        (configs, transferred)
    }

    /// Merges every record of `other` into `self` (best-cost-wins
    /// dedupe). Returns how many records actually changed the store.
    pub fn merge(&mut self, other: RecordStore) -> usize {
        let mut inserted = 0;
        for (_, list) in other.by_workload {
            for rec in list {
                if self.insert(rec) {
                    inserted += 1;
                }
            }
        }
        inserted
    }

    /// Canonical JSONL serialization of the whole store (deterministic:
    /// workloads in fingerprint order, records in canonical order, every
    /// line in canonical field order). Ends with a trailing newline when
    /// non-empty.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for list in self.by_workload.values() {
            for rec in list {
                jsonl::encode_into(rec, &mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Builds a store from JSONL text, skipping (and reporting) lines
    /// that fail to parse. Blank lines and `#` comment lines are allowed
    /// and not reported.
    pub fn from_jsonl(text: &str) -> (Self, LoadReport) {
        let mut store = Self::new();
        let mut report = LoadReport::default();
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match jsonl::decode(trimmed) {
                Ok(rec) => {
                    if store.insert(rec) {
                        report.loaded += 1;
                    } else {
                        report.superseded += 1;
                    }
                }
                Err(reason) => report.skipped.push((i + 1, reason)),
            }
        }
        (store, report)
    }

    /// Loads a store from a JSONL file (missing file = empty store with
    /// a clean report, so first runs need no special casing).
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<(Self, LoadReport)> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok((Self::new(), LoadReport::default()));
        }
        let text = std::fs::read_to_string(path)?;
        Ok(Self::from_jsonl(&text))
    }

    /// Writes the canonical serialization to a file (atomically: temp
    /// file in the same directory, then rename — a crashed run never
    /// leaves a half-written store). The temp name is pid-qualified so
    /// two *processes* saving into the same directory can never truncate
    /// each other's in-flight write (the last rename wins whole).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension(format!("jsonl.tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_jsonl().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::optimality::TileKind;
    use iolb_core::shapes::ConvShape;
    use iolb_tensor::layout::Layout;

    fn wl(cin: usize) -> Workload {
        Workload::new(
            ConvShape::square(cin, 28, 32, 3, 1, 1),
            TileKind::Direct,
            "Tesla V100",
            96 * 1024,
        )
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

    fn rec(cin: usize, x: usize, cost: f64) -> TuningRecord {
        TuningRecord::new(wl(cin), cfg(x), cost, 7).unwrap()
    }

    #[test]
    fn top_k_is_sorted_ascending_and_bounded() {
        let mut s = RecordStore::new();
        for (x, cost) in [(4, 3.0), (1, 5.0), (14, 1.0), (2, 4.0), (28, 2.0)] {
            assert!(s.insert(rec(64, x, cost)));
        }
        let top = s.top_k(&wl(64), 3);
        let costs: Vec<f64> = top.iter().map(|r| r.cost_ms).collect();
        assert_eq!(costs, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.top_k(&wl(64), 100).len(), 5);
        assert!(s.top_k(&wl(32), 3).is_empty());
    }

    #[test]
    fn insert_dedupes_keeping_best_cost() {
        let mut s = RecordStore::new();
        assert!(s.insert(rec(64, 7, 2.0)));
        assert!(!s.insert(rec(64, 7, 3.0)), "worse duplicate must not replace");
        assert_eq!(s.lookup(&wl(64), &cfg(7)), Some(2.0));
        assert!(s.insert(rec(64, 7, 1.0)), "better duplicate must replace");
        assert_eq!(s.lookup(&wl(64), &cfg(7)), Some(1.0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lookup_misses_cross_workload() {
        let mut s = RecordStore::new();
        s.insert(rec(64, 7, 2.0));
        assert_eq!(s.lookup(&wl(64), &cfg(7)), Some(2.0));
        assert_eq!(s.lookup(&wl(32), &cfg(7)), None);
        assert_eq!(s.lookup(&wl(64), &cfg(14)), None);
    }

    #[test]
    fn corrupted_lines_are_skipped_and_reported() {
        let mut s = RecordStore::new();
        s.insert(rec(64, 7, 2.0));
        s.insert(rec(64, 14, 1.0));
        let good = s.to_jsonl();
        let dirty = format!(
            "{}garbage line\n{{\"v\":1,\"truncated\n\n# a comment\n{}",
            good,
            good.lines().next().unwrap()
        );
        let (loaded, report) = RecordStore::from_jsonl(&dirty);
        assert_eq!(report.loaded, 2);
        assert_eq!(report.skipped.len(), 2, "skips: {:?}", report.skipped);
        assert_eq!(report.superseded, 1, "the re-appended good line is a duplicate");
        assert_eq!(loaded.len(), 2);
        // Line numbers are 1-based and point at the bad lines.
        assert_eq!(report.skipped[0].0, 3);
        assert_eq!(report.skipped[1].0, 4);
    }

    #[test]
    fn version_mismatch_skips_but_keeps_good_lines() {
        let mut s = RecordStore::new();
        s.insert(rec(64, 7, 2.0));
        let good = s.to_jsonl();
        let old = good.replace("\"v\":1,", "\"v\":0,");
        let (loaded, report) = RecordStore::from_jsonl(&format!("{old}{good}"));
        assert_eq!(loaded.len(), 1);
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].1.contains("version"));
    }

    #[test]
    fn serialization_is_canonical_and_stable() {
        // Insertion order must not matter.
        let mut a = RecordStore::new();
        let mut b = RecordStore::new();
        let recs = [rec(64, 14, 1.5), rec(32, 7, 0.5), rec(64, 7, 0.25), rec(64, 28, 1.5)];
        for r in &recs {
            a.insert(r.clone());
        }
        for r in recs.iter().rev() {
            b.insert(r.clone());
        }
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        // save/load round-trip is the identity on canonical text.
        let (reloaded, report) = RecordStore::from_jsonl(&a.to_jsonl());
        assert!(report.is_clean());
        assert_eq!(reloaded.to_jsonl(), a.to_jsonl());
    }

    #[test]
    fn nearest_workload_prefers_closer_shapes() {
        let mut s = RecordStore::new();
        s.insert(rec(128, 7, 1.0));
        s.insert(rec(512, 7, 1.0));
        let (fp, d) = s.nearest_workload(&wl(64)).unwrap();
        assert_eq!(fp, wl(128).fingerprint());
        assert!(d > 0.0);
        // The exact workload itself is excluded.
        s.insert(rec(64, 7, 1.0));
        let (fp2, _) = s.nearest_workload(&wl(64)).unwrap();
        assert_eq!(fp2, wl(128).fingerprint());
    }

    #[test]
    fn warm_start_prefers_exact_then_transfers() {
        let mut s = RecordStore::new();
        s.insert(rec(128, 14, 1.0));
        s.insert(rec(128, 7, 0.5));
        // No exact match: transfer from cin=128.
        let (configs, transferred) = s.warm_start_configs(&wl(64), 2);
        assert!(transferred);
        assert_eq!(configs, vec![cfg(7), cfg(14)]);
        // Exact match exists: no transfer.
        s.insert(rec(64, 28, 2.0));
        let (configs, transferred) = s.warm_start_configs(&wl(64), 2);
        assert!(!transferred);
        assert_eq!(configs, vec![cfg(28)]);
        // Empty store: nothing.
        let (configs, transferred) = RecordStore::new().warm_start_configs(&wl(64), 2);
        assert!(configs.is_empty() && !transferred);
    }

    #[test]
    fn merge_keeps_the_cheaper_duplicate_and_adds_new_workloads() {
        let mut a = RecordStore::new();
        a.insert(rec(64, 7, 2.0));
        a.insert(rec(64, 14, 1.0));
        let mut b = RecordStore::new();
        b.insert(rec(64, 7, 1.5)); // better than a's
        b.insert(rec(32, 7, 3.0)); // new workload
        b.insert(rec(64, 14, 9.0)); // worse than a's
        assert_eq!(a.merge(b), 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.lookup(&wl(64), &cfg(7)), Some(1.5));
        assert_eq!(a.lookup(&wl(64), &cfg(14)), Some(1.0));
    }

    #[test]
    fn entries_iterate_in_fingerprint_order() {
        let mut s = RecordStore::new();
        s.insert(rec(64, 7, 2.0));
        s.insert(rec(32, 7, 3.0));
        s.insert(rec(64, 14, 1.0));
        let fps: Vec<&str> = s.entries().map(|(fp, _)| fp).collect();
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        assert_eq!(fps, sorted);
        let total: usize = s.entries().map(|(_, r)| r.len()).sum();
        assert_eq!(total, s.len());
        // Lists come back canonical: best cost first.
        for (_, list) in s.entries() {
            for w in list.windows(2) {
                assert!(w[0].cost_ms <= w[1].cost_ms);
            }
        }
    }

    #[test]
    fn best_entries_yield_one_best_record_per_workload() {
        let mut s = RecordStore::new();
        s.insert(rec(64, 7, 2.0));
        s.insert(rec(64, 14, 1.0));
        s.insert(rec(32, 7, 3.0));
        let best: Vec<(&str, f64)> = s.best_entries().map(|(fp, r)| (fp, r.cost_ms)).collect();
        assert_eq!(best.len(), s.workload_count());
        assert_eq!(best.iter().find(|(fp, _)| *fp == wl(64).fingerprint()).unwrap().1, 1.0);
        let fps: Vec<&str> = best.iter().map(|(fp, _)| *fp).collect();
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        assert_eq!(fps, sorted, "fingerprint order");
    }

    #[test]
    fn truncate_workload_keeps_the_best_prefix() {
        let mut s = RecordStore::new();
        for (x, cost) in [(4, 3.0), (1, 5.0), (14, 1.0), (2, 4.0)] {
            s.insert(rec(64, x, cost));
        }
        s.insert(rec(32, 7, 9.0));
        let fp = wl(64).fingerprint();
        assert_eq!(s.truncate_workload(&fp, 2), 2);
        assert_eq!(s.records(&fp).len(), 2);
        assert_eq!(s.records(&fp)[0].cost_ms, 1.0, "truncation must keep the best record");
        assert_eq!(s.truncate_workload(&fp, 2), 0, "already within bound");
        assert_eq!(s.truncate_workload("no-such-workload", 1), 0);
        // keep == 0 removes the workload entirely.
        assert_eq!(s.truncate_workload(&fp, 0), 2);
        assert!(s.records(&fp).is_empty());
        assert_eq!(s.workload_count(), 1);
    }

    #[test]
    fn file_round_trip_is_bit_identical() {
        let mut s = RecordStore::new();
        s.insert(rec(64, 7, 1.0 / 3.0));
        s.insert(rec(32, 7, 1e-7));
        let dir = std::env::temp_dir();
        let path = dir.join(format!("iolb-records-test-{}.jsonl", std::process::id()));
        s.save(&path).unwrap();
        let bytes1 = std::fs::read(&path).unwrap();
        let (loaded, report) = RecordStore::load(&path).unwrap();
        assert!(report.is_clean());
        loaded.save(&path).unwrap();
        let bytes2 = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes1, bytes2, "save/load/save must be bit-identical");
        // Missing file loads as an empty store.
        let (empty, report) = RecordStore::load(dir.join("definitely-missing.jsonl")).unwrap();
        assert!(empty.is_empty() && report.is_clean());
    }
}
