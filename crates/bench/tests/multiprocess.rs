//! Multi-process shard-store integration (ISSUE 4 acceptance): several
//! OS processes appending to the same shard directory concurrently via
//! `tune-cache tune-net` never corrupt it — the post-merge record set
//! equals the union of what each process produces alone.
//!
//! The protocol under test: every writer takes the directory's advisory
//! `flock` ([`iolb_service::DirLock`]) only around its load → absorb →
//! save cycle; tuning happens outside the lock; every file write is a
//! pid-qualified temp + atomic rename. Per-workload runs are hermetic,
//! so two processes that tune the same workload produce bit-identical
//! records that merge to one copy.
//!
//! Also the offline recovery path an operator runs on a directory no
//! daemon holds: `tune-net -o` replays, `serve-stats` reports, `evict`
//! trims the store and keeps every workload's best record — and refuses
//! a directory whose manifest lists a shard it cannot read, and a
//! malformed numeric flag, instead of silently losing records or
//! falling back to a default.

use iolb_service::ShardedStore;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

const TUNE_CACHE: &str = env!("CARGO_BIN_EXE_tune-cache");

/// Two overlapping toy networks (1x1 layers: direct-only, fast). The
/// (16,14,14,32) layer is shared, and NET_A carries a duplicate shape so
/// the session dedup is exercised cross-process too.
const NET_A: &str = "32,14,14,16,1,1,1,0;16,14,14,32,1,1,1,0;32,14,14,16,1,1,1,0";
const NET_B: &str = "16,14,14,32,1,1,1,0;24,14,14,12,1,1,1,0";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iolb-multiprocess-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_tune_net(dir: &Path, spec: &str) -> Child {
    Command::new(TUNE_CACHE)
        .args(["tune-net", "--layers", spec, "-o"])
        .arg(dir)
        .args(["--budget", "8"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn tune-cache tune-net")
}

fn run_to_completion(mut children: Vec<Child>) {
    for child in &mut children {
        let status = child.wait().expect("wait for tune-net child");
        assert!(status.success(), "tune-net child failed: {status}");
    }
}

#[test]
fn concurrent_processes_append_the_union_without_corruption() {
    // Four processes race on one directory: both networks, each twice —
    // real lock contention on overlapping workloads plus pure-replay
    // writers, whatever the scheduler does.
    let shared = temp_dir("shared");
    run_to_completion(vec![
        spawn_tune_net(&shared, NET_A),
        spawn_tune_net(&shared, NET_B),
        spawn_tune_net(&shared, NET_A),
        spawn_tune_net(&shared, NET_B),
    ]);

    // Reference: each network tuned alone in its own directory.
    let solo_a = temp_dir("solo-a");
    let solo_b = temp_dir("solo-b");
    run_to_completion(vec![spawn_tune_net(&solo_a, NET_A)]);
    run_to_completion(vec![spawn_tune_net(&solo_b, NET_B)]);

    let (shared_store, report) = ShardedStore::load(&shared).expect("load shared dir");
    assert!(report.is_clean(), "corrupted shared directory: {:?}", report.warnings);
    let (a, report_a) = ShardedStore::load(&solo_a).expect("load solo a");
    assert!(report_a.is_clean());
    let (b, report_b) = ShardedStore::load(&solo_b).expect("load solo b");
    assert!(report_b.is_clean());

    // The racing processes' directory holds exactly the union of the
    // solo runs (canonical JSONL equality — order, bits and all).
    let mut expected = a;
    let overlap_dupes = expected.absorb(b);
    assert!(overlap_dupes > 0, "networks must overlap for the test to mean anything");
    assert_eq!(
        shared_store.merged().to_jsonl(),
        expected.merged().to_jsonl(),
        "shared directory is not the union of the solo runs"
    );

    for dir in [&shared, &solo_a, &solo_b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn reading_a_directory_mid_write_is_always_consistent() {
    // A writer and repeated lock-free readers: loads during active
    // writing must never see a torn store (atomic renames guarantee it).
    let dir = temp_dir("read-while-write");
    let mut writer = spawn_tune_net(&dir, NET_A);
    let mut clean_loads = 0;
    loop {
        let (store, report) = ShardedStore::load(&dir).expect("load during write");
        assert!(report.is_clean(), "torn read: {:?}", report.warnings);
        // Any state is fine (empty, partial, complete) as long as it is
        // internally consistent; count the successful observations.
        let _ = store.len();
        clean_loads += 1;
        match writer.try_wait().expect("poll tune-net child") {
            Some(status) => {
                assert!(status.success(), "tune-net child failed: {status}");
                break;
            }
            None => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    assert!(clean_loads > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `tune-cache ARGS...` to completion and returns its output.
fn tune_cache(args: &[&str]) -> Output {
    Command::new(TUNE_CACHE).args(args).stderr(Stdio::inherit()).output().expect("run tune-cache")
}

fn stdout_of(out: &Output) -> String {
    assert!(out.status.success(), "tune-cache failed: {}", out.status);
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

#[test]
fn offline_replay_report_and_eviction_on_an_unheld_directory() {
    let dir = temp_dir("recovery");
    let d = dir.to_str().expect("utf8 temp path");
    let tune = ["tune-net", "--layers", NET_A, "-o", d, "--budget", "8"];
    stdout_of(&tune_cache(&tune));
    let replay = stdout_of(&tune_cache(&tune));
    assert!(replay.contains(" 0 fresh measurement(s)"), "second run must replay: {replay}");

    let (before, report) = ShardedStore::load(&dir).expect("load tuned dir");
    assert!(report.is_clean());
    let total = before.len();
    let stats = stdout_of(&tune_cache(&["serve-stats", d]));
    assert!(stats.contains(&format!(" {total} record(s)")), "serve-stats total: {stats}");

    let max_records = before.workload_count() + 1;
    assert!(total > max_records, "the store must be over budget for the test to mean anything");
    let max = max_records.to_string();
    let evicted = stdout_of(&tune_cache(&["evict", d, "--max-records", &max, "--top-k", "1"]));
    let (after, report) = ShardedStore::load(&dir).expect("load evicted dir");
    assert!(report.is_clean());
    let kept = after.len();
    assert!(kept < total);
    assert!(
        evicted.contains(&format!("dropped {} of {total} record(s), kept {kept}", total - kept)),
        "evict must report what it dropped: {evicted}"
    );
    let (before, after) = (before.merged(), after.merged());
    for (fp, records) in before.entries() {
        let best = after.records(fp).first().expect("workload kept");
        assert_eq!(best, &records[0], "best record of {fp} lost");
    }
    let stats = stdout_of(&tune_cache(&["serve-stats", d]));
    assert!(stats.contains(&format!(" {kept} record(s)")), "serve-stats after evict: {stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `evict`, `tune-net -o` and `serve` all rewrite the directory, so
/// none may run over a shard the manifest lists but cannot read: each
/// exits 1 and leaves the manifest as it was.
#[test]
fn writers_refuse_a_directory_with_an_unreadable_shard() {
    let dir = temp_dir("unreadable");
    let d = dir.to_str().expect("utf8 temp path");
    stdout_of(&tune_cache(&["tune-net", "--layers", NET_B, "-o", d, "--budget", "8"]));
    let manifest = std::fs::read(dir.join("manifest.tsv")).expect("manifest");
    let shard = std::fs::read_dir(&dir)
        .expect("tuned dir")
        .map(|e| e.expect("entry").path())
        .find(|p| {
            p.extension().is_some_and(|x| x == "jsonl") && !p.ends_with("service-stats.jsonl")
        })
        .expect("one shard file");
    let aside = dir.join("aside");
    std::fs::rename(&shard, &aside).expect("move shard aside");
    std::fs::create_dir(&shard).expect("directory in the shard's place");

    for args in [
        vec!["evict", d, "--max-records", "1"],
        vec!["tune-net", "--layers", NET_A, "-o", d, "--budget", "8"],
        vec!["serve", d, "--lock-timeout", "5"],
    ] {
        assert_eq!(tune_cache(&args).status.code(), Some(1), "{args:?} must refuse");
        assert_eq!(std::fs::read(dir.join("manifest.tsv")).expect("manifest"), manifest);
    }

    std::fs::remove_dir(&shard).expect("remove placeholder");
    std::fs::rename(&aside, &shard).expect("restore shard");
    let (store, report) = ShardedStore::load(&dir).expect("load restored dir");
    assert!(report.is_clean() && store.workload_count() == 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_numeric_flags_exit_2_naming_the_flag() {
    let dir = temp_dir("typo");
    let d = dir.to_str().expect("utf8 temp path");
    for (args, flag) in [
        (vec!["serve", d, "--evict-max-records", "4O", "--budget", "16"], "--evict-max-records"),
        (vec!["serve", d, "--budget", "l6"], "--budget"),
        (vec!["evict", d, "--max-records", "40", "--top-k", "two"], "--top-k"),
        (vec!["evict", d, "--max-records"], "--max-records"),
    ] {
        let out = Command::new(TUNE_CACHE).args(&args).output().expect("run tune-cache");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
    assert!(!dir.exists(), "a rejected command must not touch the directory");
}
