//! The four workloads. A workload is a traffic mix over the four stages
//! of `stages`: one stage runs *heavy* (most of the measured seconds —
//! the layers that stage stresses do almost all the work) and the others
//! run *thin*, so that every end-to-end metric has a value on every
//! workload and each optimisation has a workload that exercises it and
//! workloads that bypass it.

use crate::inputs::{session_order, NetPlan, RESNET18};
use crate::probes;
use crate::report::{Measured, RunResult};
use crate::stages::{
    exec_round, serve_round, tune_round, Env, ExecLayer, ExecRound, ServeSamples, ServeSpec,
    Serving, Tally, TuneRound,
};
use crate::stats;
use crate::trace::Tracer;
use conv_iolb::service::EvictionPolicy;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heavy {
    Tune,
    Serve,
    Churn,
    Exec,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub heavy: Heavy,
    pub serving: Serving,
}

/// Must agree with `BENCHMARK.json` (`smoke.sh` checks both directions).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cold-tune",
        why: "empty store: search, cost model, fusion gate and simulator do the work; the serving path does none",
        heavy: Heavy::Tune,
        serving: Serving::Embedded,
    },
    Workload {
        name: "warm-serve",
        why: "pre-filled store behind the daemon socket: wire, daemon, session hit path and shard lookup do the work; the tuner does none",
        heavy: Heavy::Serve,
        serving: Serving::Daemon { merge_interval: Duration::from_secs(1), evict: None },
    },
    Workload {
        name: "churn-serve",
        why: "same daemon with 100 ms persistence ticks and eviction while every 8th session brings unseen shapes: writes, flushes and evictions beside reads",
        heavy: Heavy::Churn,
        serving: Serving::Daemon {
            merge_interval: Duration::from_millis(100),
            evict: Some(EvictionPolicy { max_records: 2048, top_k: 2 }),
        },
    },
    Workload {
        name: "conv-exec",
        why: "real tensors through the CPU executors on served configs: dataflow and tensor kernels do the work; the service does none after set-up",
        heavy: Heavy::Exec,
        serving: Serving::Embedded,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The run length the sizes below are tuned for (`run_seconds` in
/// `BENCHMARK.json`); other `--seconds` scale the number of cycles.
pub const REFERENCE_SECONDS: f64 = 20.0;

/// Kept cycles at the reference run length.
const REFERENCE_CYCLES: usize = 6;

fn cycles(seconds: f64) -> usize {
    ((REFERENCE_CYCLES as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(2)
}

/// ResNet-18 layers (indices into its inventory) the thin exec stage
/// runs: a 56×56, a strided, a 28×28 and a 14×14 3×3 layer and a 1×1
/// downsample — three of them Winograd candidates.
pub const THIN_EXEC_LAYERS: &[usize] = &[1, 2, 3, 4, 8];
const ALL_EXEC_LAYERS: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];

/// Zoo networks (indices) the thin tune stage tunes, bare only:
/// SqueezeNet and ResNet-18.
const THIN_TUNE_NETS: &[usize] = &[0, RESNET18];

/// One stage of a workload: how many rounds of it each cycle runs.
/// Thin stages run one; the heavy stage runs more, or bigger ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage<T> {
    pub per_cycle: usize,
    pub round: T,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneSpec {
    pub nets: Vec<usize>,
    pub fused: bool,
    pub variants: usize,
}

/// How much of each stage one run of a workload does. A run is one
/// warm-up cycle plus `cycles` kept ones, and every cycle runs every
/// stage, so each metric samples the whole length of the run and a burst
/// of interference on the host cannot sit on one metric alone.
pub struct Sizes {
    pub cycles: usize,
    pub tune: Stage<TuneSpec>,
    /// Hit-only sessions; `None` where the churn stage provides the hits.
    pub serve: Option<Stage<ServeSpec>>,
    pub novel: Stage<ServeSpec>,
    pub exec: Stage<&'static [usize]>,
}

pub fn sizes(w: &Workload, seconds: f64) -> Sizes {
    let thin_tune = TuneSpec { nets: THIN_TUNE_NETS.to_vec(), fused: false, variants: 4 };
    let mut s = Sizes {
        cycles: cycles(seconds),
        tune: Stage { per_cycle: 1, round: thin_tune },
        serve: Some(Stage { per_cycle: 1, round: ServeSpec { sessions: 3000, novel_every: 0 } }),
        novel: Stage { per_cycle: 1, round: ServeSpec { sessions: 120, novel_every: 1 } },
        exec: Stage { per_cycle: 1, round: THIN_EXEC_LAYERS },
    };
    match w.heavy {
        Heavy::Tune => {
            let round = TuneSpec { nets: (0..6).collect(), fused: true, variants: 8 };
            s.tune = Stage { per_cycle: 2, round };
        }
        Heavy::Serve => {
            let round = ServeSpec { sessions: 2004, novel_every: 0 };
            s.serve = Some(Stage { per_cycle: 2, round });
        }
        Heavy::Churn => {
            s.serve = None;
            s.novel = Stage { per_cycle: 4, round: ServeSpec { sessions: 480, novel_every: 8 } };
        }
        Heavy::Exec => s.exec.round = ALL_EXEC_LAYERS,
    }
    s
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The inputs drawn once per run and replayed every round, and the
/// samples of the kept rounds.
pub struct Run {
    variants: NetPlan,
    hit_order: Vec<usize>,
    novel_order: Vec<usize>,
    tune: Vec<TuneRound>,
    /// Hit samples: the hit-only stage's, or the churn stage's.
    hits: ServeSamples,
    /// Samples of the stage with novel sessions.
    novel: ServeSamples,
    /// Per kept cycle: how many hit and novel samples were kept by its
    /// end. Latency percentiles are taken per cycle and the median over
    /// cycles reported, so a burst on the host moves one value of six
    /// instead of sitting in the pooled tail.
    hit_ends: Vec<usize>,
    novel_ends: Vec<usize>,
    exec: Vec<ExecRound>,
}

impl Run {
    pub fn new(s: &Sizes, env: &mut Env) -> Self {
        let nets = env.zoo.len();
        let hit_sessions = s.serve.map_or(0, |stage| stage.round.sessions);
        Self {
            variants: env.novel.variants(s.tune.round.variants),
            hit_order: session_order(hit_sessions, nets, &mut env.rng),
            novel_order: session_order(s.novel.round.sessions, nets, &mut env.rng),
            tune: Vec::new(),
            hits: ServeSamples::default(),
            novel: ServeSamples::default(),
            hit_ends: Vec::new(),
            novel_ends: Vec::new(),
            exec: Vec::new(),
        }
    }

    /// One cold tuning round; kept rounds must agree bit for bit on the
    /// served cost and count for count on the work done. Returns its
    /// seconds.
    fn tune_round(
        &mut self,
        s: &Sizes,
        env: &Env,
        keep: bool,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> f64 {
        let spec = &s.tune.round;
        let mut plans: Vec<&NetPlan> = spec.nets.iter().map(|&i| &env.zoo[i]).collect();
        plans.push(&self.variants);
        let r = tune_round(&plans, spec.nets.len(), spec.fused, &env.device, tracer, tally);
        if let Some(first) = self.tune.first() {
            tally.check(
                r.cost_ms.to_bits() == first.cost_ms.to_bits()
                    && (r.tuned, r.fresh) == (first.tuned, first.fresh),
                || format!("cold round differs from the first kept one: {r:?} vs {first:?}"),
            );
        }
        if keep {
            self.tune.push(r);
        }
        r.wall_s
    }

    /// One round of the stage with novel sessions (or, with `hits`, of
    /// the hit-only stage). Returns the seconds its sessions took.
    fn serve_round(
        &mut self,
        s: &Sizes,
        hits: bool,
        env: &mut Env,
        keep: bool,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> f64 {
        let (spec, order, out) = match s.serve {
            Some(stage) if hits => (stage.round, &self.hit_order, &mut self.hits),
            _ => (s.novel.round, &self.novel_order, &mut self.novel),
        };
        let mut round = ServeSamples::default();
        serve_round(env, order, spec, &mut round, tracer, tally);
        let secs =
            round.sessions_per_s.first().map_or(f64::NAN, |rate| spec.sessions as f64 / rate);
        if keep {
            out.absorb(round);
        }
        secs
    }

    fn exec_round(&mut self, env: &Env, keep: bool, tracer: &mut Tracer, tally: &mut Tally) -> f64 {
        let r = exec_round(&env.exec, tracer, tally);
        if keep {
            self.exec.push(r);
        }
        r.direct.secs + r.winograd.secs + r.im2col.secs
    }

    /// One round of the heavy stage of `w`; returns its seconds. What
    /// the traced run repeats with the tracer off and on.
    pub fn heavy_round(
        &mut self,
        w: &Workload,
        s: &Sizes,
        env: &mut Env,
        keep: bool,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> f64 {
        match w.heavy {
            Heavy::Tune => self.tune_round(s, env, keep, tracer, tally),
            Heavy::Serve => self.serve_round(s, true, env, keep, tracer, tally),
            Heavy::Churn => self.serve_round(s, false, env, keep, tracer, tally),
            Heavy::Exec => self.exec_round(env, keep, tracer, tally),
        }
    }

    /// One cycle: every stage, its rounds-per-cycle times (once in the
    /// warm-up cycle, which keeps nothing).
    fn cycle(&mut self, s: &Sizes, env: &mut Env, keep: bool, tally: &mut Tally) {
        let off = &mut Tracer::off();
        let times = |per_cycle: usize| if keep { per_cycle } else { 1 };
        for _ in 0..times(s.tune.per_cycle) {
            self.tune_round(s, env, keep, off, tally);
        }
        for _ in 0..s.serve.map_or(0, |stage| times(stage.per_cycle)) {
            self.serve_round(s, true, env, keep, off, tally);
        }
        for _ in 0..times(s.novel.per_cycle) {
            self.serve_round(s, false, env, keep, off, tally);
        }
        for _ in 0..times(s.exec.per_cycle) {
            self.exec_round(env, keep, off, tally);
        }
        if keep {
            self.hit_ends.push(self.hits(s).hit_ms.len());
            self.novel_ends.push(self.novel.novel_ms.len());
        }
    }

    fn hits(&self, s: &Sizes) -> &ServeSamples {
        if s.serve.is_some() {
            &self.hits
        } else {
            &self.novel
        }
    }

    fn end_to_end_metrics(&self, s: &Sizes, setups: &[f64]) -> Vec<Measured> {
        let per_round = |f: &dyn Fn(&ExecRound) -> f64| self.exec.iter().map(f).collect::<Vec<_>>();
        let tune_rate: Vec<f64> = self.tune.iter().map(|r| r.tuned as f64 / r.wall_s).collect();
        let per_cycle = |name: &str, samples: &[f64], ends: &[usize], q: f64| {
            Measured::median_of(name, "ms", &stats::percentile_per_slice(samples, ends, q))
        };
        let (hit_ms, novel_ms) = (&self.hits(s).hit_ms, &self.novel.novel_ms);
        vec![
            Measured::median_of("setup_s", "s", setups),
            Measured::median_of("tune_workloads_per_s", "1/s", &tune_rate),
            Measured::new(
                "tuned_cost_ms",
                "sim_ms",
                self.tune.first().map_or(f64::NAN, |r| r.cost_ms),
            ),
            Measured::median_of("serve_sessions_per_s", "1/s", &self.hits(s).sessions_per_s),
            per_cycle("serve_p50_ms", hit_ms, &self.hit_ends, 0.50),
            per_cycle("serve_p95_ms", hit_ms, &self.hit_ends, 0.95),
            per_cycle("novel_p50_ms", novel_ms, &self.novel_ends, 0.50),
            Measured::median_of(
                "exec_direct_gflops",
                "GFLOP/s",
                &per_round(&|r| r.direct.gflops()),
            ),
            Measured::median_of(
                "exec_winograd_gflops",
                "GFLOP/s",
                &per_round(&|r| r.winograd.gflops()),
            ),
            Measured::median_of(
                "exec_im2col_gflops",
                "GFLOP/s",
                &per_round(&|r| r.im2col.gflops()),
            ),
            Measured::new("peak_rss_mib", "MiB", peak_rss_mib()),
        ]
    }

    fn print_inputs(&self, s: &Sizes, env: &Env) {
        let names = |pick: &dyn Fn(&ExecLayer) -> bool| {
            env.exec
                .iter()
                .filter(|l| pick(l))
                .map(|l| l.name.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("exec layers (ResNet-18, fixed at set-up): {}", names(&|_| true));
        println!("  execute_direct   on: {}", names(&|l| l.direct.is_some()));
        println!("  execute_winograd on: {}", names(&|l| l.winograd.is_some()));
        if let Some(r) = self.tune.first() {
            println!(
                "tune stage: {} networks{} + {} variants: {} workloads tuned per round with \
                 {} fresh measurements and {} cache hits, {} kept rounds",
                s.tune.round.nets.len(),
                if s.tune.round.fused { " bare + fused" } else { " bare" },
                s.tune.round.variants,
                r.tuned,
                r.fresh,
                r.cache_hits,
                self.tune.len()
            );
        }
        println!(
            "serve stages: {} hit sessions (zero fresh measurements, checked) and {} novel sessions kept",
            self.hits(s).hit_ms.len(),
            self.novel.novel_ms.len()
        );
    }
}

/// One process, one workload: set-up (several times, for its median),
/// the cycles and their checks; with `trace`, the traced rounds and the
/// layer probes instead of the end-to-end metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> RunResult {
    let s = sizes(w, seconds);
    let mut tally = Tally::default();
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    println!(
        "# workload {} seed {seed} seconds {seconds} trace {} | closed loop, 1 client, \
         RAYON_NUM_THREADS=1, executor workers 1",
        w.name,
        u8::from(trace),
    );
    println!("# why: {}", w.why);

    // Set up several times so that its time is a median, not one shot;
    // short and traced runs set up once.
    let setup_reps = if trace || seconds < 10.0 { 1 } else { 3 };
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..setup_reps {
        if let Some(previous) = env.take() {
            Env::teardown(previous, None, &mut tally);
        }
        let started = Instant::now();
        env = Some(Env::build(seed, w.serving, s.exec.round, &scratch.join("store"), &mut tally));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let mut run = Run::new(&s, &mut env);

    let metrics = if trace {
        let mut tracer = Tracer::on();
        let metrics =
            probes::traced_run(w, &s, &mut run, &mut env, &mut tracer, &scratch, &mut tally);
        let path = out_dir.join(format!("trace-{}.jsonl", w.name));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("{} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => tally.check(false, || format!("cannot write {}: {e}", path.display())),
        }
        env.teardown(None, &mut tally);
        metrics
    } else {
        for cycle in 0..=s.cycles {
            run.cycle(&s, &mut env, cycle > 0, &mut tally);
        }
        run.print_inputs(&s, &env);
        let metrics = run.end_to_end_metrics(&s, &setups);
        env.teardown(run.novel.last_novel, &mut tally);
        metrics
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for note in tally.notes() {
        println!("FAILED: {note}");
    }
    RunResult {
        workload: w.name.into(),
        seed,
        seconds,
        trace,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_scale_with_seconds_and_never_drop_below_two() {
        assert_eq!(cycles(20.0), 6);
        assert_eq!(cycles(10.0), 3);
        assert_eq!(cycles(2.0), 2);
        assert_eq!(cycles(60.0), 18);
    }

    #[test]
    fn every_workload_is_heavy_in_a_different_stage_and_sessions_balance() {
        let mut heavy: Vec<_> = WORKLOADS.iter().map(|w| w.heavy as u8).collect();
        heavy.sort_unstable();
        heavy.dedup();
        assert_eq!(heavy.len(), WORKLOADS.len());
        for w in WORKLOADS {
            let s = sizes(w, REFERENCE_SECONDS);
            for stage in s.serve.iter().chain([&s.novel]) {
                let sessions = stage.round.sessions;
                assert_eq!(sessions % 6, 0, "{}: sessions must cover the zoo evenly", w.name);
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn each_cycles_p95_has_ten_samples_beyond_it_on_every_workload() {
        for w in WORKLOADS {
            let s = sizes(w, REFERENCE_SECONDS);
            let stage = s.serve.unwrap_or(s.novel);
            let spec = stage.round;
            let novel = spec.sessions.checked_div(spec.novel_every).unwrap_or(0);
            let hits_per_cycle = (spec.sessions - novel) * stage.per_cycle;
            assert!(hits_per_cycle / 20 >= 10, "{}: {hits_per_cycle} hits a cycle", w.name);
        }
    }
}
