//! The metric catalogue, the result emitter and `compare`. One workload
//! run prints a table for people, then — as the last line of standard
//! output — the one JSON object the driver reads. With `--out` every
//! metric is also appended to a results file as one flat JSON object per
//! line (the records codec's dialect), which is what `compare` reads.

use crate::stats::{self, Summary};
use conv_iolb::records::jsonl::{escape, parse_flat_object};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: `bound` is the share of the baseline's median
/// by which it may get worse before that counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// Must agree with `BENCHMARK.json` (`smoke.sh` checks both directions).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tune_workloads_per_s", "1/s", Higher, 0.25),
    e2e("tuned_cost_ms", "sim_ms", Lower, 0.01),
    e2e("serve_sessions_per_s", "1/s", Higher, 0.25),
    e2e("serve_p50_ms", "ms", Lower, 0.25),
    e2e("serve_p95_ms", "ms", Lower, 0.25),
    e2e("novel_p50_ms", "ms", Lower, 0.25),
    e2e("exec_direct_gflops", "GFLOP/s", Higher, 0.25),
    e2e("exec_winograd_gflops", "GFLOP/s", Higher, 0.25),
    e2e("exec_im2col_gflops", "GFLOP/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One measured value. `summary` carries the per-round or per-sample
/// distribution behind a timing; counts and computed values have none.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Measured {
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Self { name: name.into(), unit: unit.into(), value, summary: None }
    }

    /// The median of `samples`, with their distribution beside it.
    pub fn median_of(name: &str, unit: &str, samples: &[f64]) -> Self {
        let summary = stats::summarize(samples);
        Self { name: name.into(), unit: unit.into(), value: summary.median, summary: Some(summary) }
    }
}

/// Everything one process measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

impl RunResult {
    /// A run is correct when nothing it attempted failed and every value
    /// is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`; every value with all its digits.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The table for people: every metric by name with its unit, and the
    /// distribution behind each timing.
    pub fn print_table(&self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {:>14} {:<9} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "metric", "value", "unit", "n", "q1", "q3", "min", "max"
        );
        for m in &self.metrics {
            print!("{:<34} {:>14.6} {:<9}", m.name, m.value, m.unit);
            if let Some(s) = &m.summary {
                print!(" {:>6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}", s.n, s.q1, s.q3, s.min, s.max);
            }
            println!();
        }
        println!(
            "{:<34} {:>14.6} {:<9} ({} failed of {} attempted)",
            "failed_share", share, "share", self.failed, self.attempted
        );
    }

    /// One flat JSON object per metric.
    pub fn flat_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let mut line = format!(
                    "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
                     \"attempted\":{},\"failed\":{},\"metric\":\"{}\",\"unit\":\"{}\",\"value\":{}",
                    escape(&self.workload),
                    self.seed,
                    self.seconds,
                    u8::from(self.trace),
                    self.attempted,
                    self.failed,
                    escape(&m.name),
                    escape(&m.unit),
                    if m.value.is_finite() { m.value } else { -1.0 },
                );
                if let Some(s) = &m.summary {
                    line.push_str(&format!(
                        ",\"n\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{}",
                        s.n, s.q1, s.q3, s.min, s.max
                    ));
                }
                line.push('}');
                line
            })
            .collect()
    }

    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        for line in self.flat_lines() {
            writeln!(file, "{line}")?;
        }
        file.flush()
    }
}

/// One line of a results file, as far as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub trace: bool,
    pub value: f64,
}

pub fn parse_flat_line(line: &str) -> Result<Sample, String> {
    let fields: BTreeMap<String, _> = parse_flat_object(line)?.into_iter().collect();
    let get = |key: &str| fields.get(key).ok_or_else(|| format!("missing field {key:?}"));
    Ok(Sample {
        workload: get("workload")?.as_str("workload")?.to_string(),
        metric: get("metric")?.as_str("metric")?.to_string(),
        unit: get("unit")?.as_str("unit")?.to_string(),
        trace: get("trace")?.as_u64("trace")? != 0,
        value: get("value")?.as_f64("value")?,
    })
}

/// Values per (workload, metric) of the untraced runs in a results file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (at, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let s = parse_flat_line(line).map_err(|e| format!("{}:{}: {e}", path.display(), at + 1))?;
        if !s.trace {
            runs.entry((s.workload, s.metric)).or_default().push(s.value);
        }
    }
    Ok(runs)
}

/// How B's median stands against A's for one metric × workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than A by more than the bound.
    Within,
    /// Worse than A by more than the bound.
    Worse,
    /// Within the bound, but the two sides' quartile ranges overlap, so
    /// the runs cannot tell them apart: not evidence of "unchanged".
    Unresolved,
}

/// B's median over A's, and the verdict under `metric`'s bound.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let ratio = mb / ma;
    let worse_by = match metric.better {
        Lower => ratio - 1.0,
        Higher => 1.0 - ratio,
    };
    let ((a1, a3), (b1, b3)) = (stats::quartiles(a), stats::quartiles(b));
    let verdict = if worse_by > metric.bound {
        Verdict::Worse
    } else if ma != mb && a1 <= b3 && b1 <= a3 {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (ratio, verdict)
}

/// Prints, per end-to-end metric × workload, both medians, B's ratio
/// with its base, and the verdict. Returns whether any pairing is worse
/// than its bound.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    println!(
        "| workload | metric | unit | A median (n) | A q1..q3 | B median (n) | B q1..q3 | B / A | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for ((workload, metric), va) in &a {
        let (Some(def), Some(vb)) =
            (end_to_end(metric), b.get(&(workload.clone(), metric.clone())))
        else {
            continue;
        };
        let (ratio, verdict) = judge(def, va, vb);
        any_worse |= verdict == Verdict::Worse;
        let ((a1, a3), (b1, b3)) = (stats::quartiles(va), stats::quartiles(vb));
        let (ma, mb) = (stats::median(va), stats::median(vb));
        println!(
            "| {workload} | {metric} | {} | {ma:.4} ({}) | {a1:.4}..{a3:.4} | {mb:.4} ({}) | {b1:.4}..{b3:.4} | \
             {ratio:.3}× of A's {ma:.4} | {:.0} % {} | {} |",
            def.unit,
            va.len(),
            vb.len(),
            def.bound * 100.0,
            if def.better == Lower { "lower is better" } else { "higher is better" },
            match verdict {
                Verdict::Within => "within bound",
                Verdict::Worse => "WORSE than bound",
                Verdict::Unresolved => "unresolved (quartiles overlap)",
            }
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k) && end_to_end(&k.1).is_some()) {
        println!("| {} | {} | only in B | | | | | | | |", key.0, key.1);
    }
    Ok(any_worse)
}

/// Prints, per end-to-end metric × workload, the spread of the runs in a
/// results file the way the driver takes it — the distance between the
/// first and third quartile as a share of the median — against the
/// metric's bound. Returns whether every spread but `setup_s`'s is
/// within its bound.
pub fn spread(path: &Path) -> Result<bool, String> {
    let runs = load(path)?;
    println!("| workload | metric | runs | median | q1..q3 | spread | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for ((workload, metric), values) in &runs {
        let Some(def) = end_to_end(metric) else { continue };
        let (q1, q3) = stats::quartiles(values);
        let spread = stats::spread(values);
        let verdict = match spread {
            s if s <= def.bound / 3.0 => "steady (below a third of the bound)",
            s if s <= def.bound => "within bound",
            _ if def.name == "setup_s" => "wide (exempt)",
            _ => "WIDER than bound",
        };
        all_within &= spread <= def.bound || def.name == "setup_s";
        println!(
            "| {workload} | {metric} | {} | {:.4} | {q1:.4}..{q3:.4} | {:.2} % | {:.0} % | {verdict} |",
            values.len(),
            stats::median(values),
            spread * 100.0,
            def.bound * 100.0
        );
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            workload: "warm-serve".into(),
            seed: 7,
            seconds: 20.0,
            trace: false,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Measured::median_of("serve_p50_ms", "ms", &[0.5, 0.25, 0.75]),
                Measured::new("peak_rss_mib", "MiB", 41.0625),
            ],
        }
    }

    #[test]
    fn flat_lines_round_trip_through_the_records_codec() {
        let r = result();
        let lines = r.flat_lines();
        assert_eq!(lines.len(), 2);
        let first = parse_flat_line(&lines[0]).unwrap();
        assert_eq!(
            first,
            Sample {
                workload: "warm-serve".into(),
                metric: "serve_p50_ms".into(),
                unit: "ms".into(),
                trace: false,
                value: 0.5,
            }
        );
        let fields: BTreeMap<_, _> = parse_flat_object(&lines[0]).unwrap().into_iter().collect();
        assert_eq!(fields["n"].as_u64("n"), Ok(3));
        assert_eq!(fields["q1"].as_f64("q1"), Ok(0.25));
        assert_eq!(fields["max"].as_f64("max"), Ok(0.75));
        assert_eq!(fields["seed"].as_u64("seed"), Ok(7));
        assert_eq!(parse_flat_line(&lines[1]).unwrap().value, 41.0625);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_full_digits() {
        let mut r = result();
        r.metrics[0].value = 1.0 / 3.0;
        assert_eq!(
            r.contract_line(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"serve_p50_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}, \
             \"peak_rss_mib\": {\"value\": 41.0625, \"unit\": \"MiB\"}}}"
        );
        r.failed = 1;
        assert!(r.contract_line().starts_with("{\"correct\": false, "));
        r.failed = 0;
        r.metrics[1].value = f64::NAN;
        assert!(!r.correct(), "a value that is not a number is a failed run");
    }

    #[test]
    fn judge_flags_worse_than_bound_in_the_metrics_direction() {
        let (lower, higher) = (&e2e("p50", "ms", Lower, 0.10), &e2e("rate", "1/s", Higher, 0.10));
        let a = [1.00, 1.01, 0.99];
        assert_eq!(judge(lower, &a, &[1.20, 1.21, 1.19]).1, Verdict::Worse);
        assert_eq!(judge(lower, &a, &[0.80, 0.81, 0.79]).1, Verdict::Within);
        assert_eq!(judge(higher, &a, &[0.80, 0.81, 0.79]).1, Verdict::Worse);
        assert_eq!(judge(higher, &a, &[1.20, 1.21, 1.19]).1, Verdict::Within);
        // Inside the bound but indistinguishable: unresolved, not "same".
        let (ratio, verdict) = judge(lower, &a, &[1.005, 1.02, 0.98]);
        assert_eq!(verdict, Verdict::Unresolved);
        assert!((ratio - 1.005).abs() < 1e-12);
        // Bit-identical sides are simply within.
        assert_eq!(judge(lower, &a, &a).1, Verdict::Within);
    }

    #[test]
    fn catalogue_names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len());
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
