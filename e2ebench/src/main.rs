//! End-to-end campaign benchmark.
//!
//! One binary, four workloads, each driven through the public APIs of the
//! workflow crates exactly as a user would drive them:
//!
//! * `cosched-campaign` — the paper's co-scheduled workflow, one campaign at
//!   a time (closed loop).
//! * `cosmotools-insitu` — a simulation stepped by the benchmark with the
//!   CosmoTools in-situ manager attached (closed loop).
//! * `snapshot-strategies` — the five snapshot strategies over one prebuilt
//!   64³ z=0 snapshot, in rounds (closed loop).
//! * `service-openloop` — campaigns submitted to a multi-campaign service
//!   on a fixed schedule (open loop).
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--baseline-p50 <s>]
//! e2ebench --bless --workload <name>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! instead (`--baseline-p50` is the untraced run's `latency_s.p50`, from
//! which the tracing overhead is computed). `--bless` prints the reference
//! digest lines for a workload's seed pool (see `refs.txt`).
//!
//! Every metric is printed on every workload: a layer that does not run on
//! a workload reads 0 in its counts and shares.

mod cosched;
mod cosmo;
mod service;
mod snapshot;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads this binary runs.
const WORKLOADS: &[&str] = &[
    "cosched-campaign",
    "cosmotools-insitu",
    "snapshot-strategies",
    "service-openloop",
];

/// Set-ups per closed-loop run; `setup_s` is their median.
const SETUPS: usize = 3;

/// End-to-end metrics (timed runs), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("success_rate", "ratio"),
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("campaigns_per_s", "1/s"),
    ("particle_steps_per_s", "1/s"),
    ("sustained_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), with their units. Durations of layers
/// that run on only some workloads are shares of the traced campaign wall
/// time, so a layer absent from a workload reads 0 without faking a time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("unattributed_s", "s"),
    ("unattributed_share", "share"),
    ("trace.overhead_frac", "ratio"),
    ("generator.late_s.max", "s"),
    ("bench.verify_share", "share"),
    ("nbody.share", "share"),
    ("halo.share", "share"),
    ("halo.find_max_rank_share", "share"),
    ("halo.center_max_rank_share", "share"),
    ("halo.rank_imbalance", "ratio"),
    ("halo.halos", "count"),
    ("cosmotools.halofinder_share", "share"),
    ("cosmotools.powerspectrum_share", "share"),
    ("cosmotools.somass_share", "share"),
    ("cosmotools.subhalos_share", "share"),
    ("cosmotools.render_share", "share"),
    ("cosmotools.frames", "count"),
    ("genio.write_share", "share"),
    ("genio.read_share", "share"),
    ("genio.write_bytes", "bytes"),
    ("genio.mb_per_s", "MB/s"),
    ("comm.redistribute_share", "share"),
    ("comm.bytes_sent", "bytes"),
    ("store.chunk_roundtrip_share", "share"),
    ("store.assembly_misses", "count"),
    ("listener.tail_share", "share"),
    ("listener.scans", "count"),
    ("listener.submitted", "count"),
    ("listener.cache_skipped", "count"),
    ("listener.submit_retries", "count"),
    ("post.centers_share", "share"),
    ("post.overlapped_jobs", "count"),
    ("service.submit_share", "share"),
    ("service.scans", "count"),
    ("service.steals", "count"),
    ("service.refusals", "count"),
    ("journal.bytes", "bytes"),
    ("dpp.dispatches", "count"),
    ("dpp.dispatch_s", "s"),
    ("dpp.speedup_vs_serial", "x"),
];

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: collect per-layer numbers instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory inside the current directory.
    pub workdir: PathBuf,
    /// Worker threads for `dpp::Threaded` (the machine's parallelism).
    pub threads: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (campaigns, rounds).
    pub attempted: u64,
    /// Operations that failed: wrong output, refusal, or `Failed` status.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric. Names outside the mode's declared list are dropped
    /// before printing.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Accumulated per-layer time of a traced run: named busy seconds plus the
/// wall seconds of the operations they happened in. Names are per-layer
/// metric names (`*_share`); shares are busy seconds over op wall seconds.
#[derive(Default)]
pub struct Layers {
    busy: BTreeMap<&'static str, f64>,
    /// Sum of traced operation wall times.
    pub op_wall: f64,
    /// Time inside operations that no span or reported phase covers.
    pub unattributed: f64,
}

impl Layers {
    /// Add `secs` of busy time to the share metric `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        *self.busy.entry(name).or_insert(0.0) += secs;
    }

    /// Close one operation of `wall` seconds whose attributed parts sum to
    /// `covered` seconds.
    pub fn close_op(&mut self, wall: f64, covered: f64) {
        self.op_wall += wall;
        self.unattributed += wall - covered;
    }

    /// Write every share and the unattributed remainder into `out`.
    pub fn finish(&self, out: &mut Outcome) {
        let wall = self.op_wall.max(f64::MIN_POSITIVE);
        for (name, secs) in &self.busy {
            out.set(name, secs / wall);
        }
        out.set("unattributed_s", self.unattributed);
        out.set("unattributed_share", self.unattributed / wall);
    }
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// In a traced run, a fresh wall-clock recorder for the program's telemetry.
pub fn recorder(trace: bool) -> Option<telemetry::RecorderGuard> {
    trace.then(|| {
        telemetry::install(std::sync::Arc::new(telemetry::Recorder::new(
            telemetry::Clock::Wall,
        )))
    })
}

/// Set up a closed-loop workload `SETUPS` times: a fresh pool and one
/// verified warm-up campaign each. Returns the last pool and the set-up
/// times.
pub fn set_up(
    ctx: &Ctx,
    out: &mut Outcome,
    warmup: impl Fn(usize, &dpp::Threaded) -> bool,
) -> (dpp::Threaded, Vec<f64>) {
    let mut times = Vec::new();
    let mut pool = None;
    for k in 0..SETUPS {
        let ((p, ok), secs) = timed(|| {
            let p = dpp::Threaded::new(ctx.threads);
            let ok = warmup(k, &p);
            (p, ok)
        });
        out.op(ok);
        times.push(secs);
        pool = Some(p);
    }
    (pool.expect("SETUPS > 0"), times)
}

/// The end-to-end metrics of a closed loop: one client, so the offered rate
/// is the completion rate and `sustained_per_s` equals `campaigns_per_s`.
/// `walls` are the campaign times, `window` the measured seconds, and
/// `particle_steps` the particle-steps one campaign pushes through.
pub fn closed_loop(
    out: &mut Outcome,
    setups: &[f64],
    walls: &[f64],
    window: f64,
    particle_steps: f64,
) {
    let rate = walls.len() as f64 / window;
    out.set("setup_s", stats::median(setups));
    out.set("latency_s.p50", stats::median(walls));
    out.set("latency_s.p90", stats::percentile(walls, 0.9));
    out.set("campaigns_per_s", rate);
    out.set("particle_steps_per_s", particle_steps * rate);
    out.set("sustained_per_s", rate);
}

/// SplitMix64: the benchmark's only source of derived seeds.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of a workload's reference-seed pool: campaign `i`
/// of a run uses `pool[order[i % len]]`. Each workload seed visits the pool
/// in its own order, so different seeds see different campaign sequences
/// while every campaign still has a carried reference digest.
pub fn pool_order(seed: u64, pool: &[u64]) -> Vec<u64> {
    let mut out = pool.to_vec();
    let mut s = splitmix(seed);
    for i in (1..out.len()).rev() {
        s = splitmix(s);
        out.swap(i, (s % (i as u64 + 1)) as usize);
    }
    out
}

/// Reference digests carried by the benchmark: `workload pool-seed digest`
/// lines, regenerated with `--bless`.
#[derive(Default)]
pub struct Refs(BTreeMap<(String, u64), String>);

impl Refs {
    fn load() -> Refs {
        let text = include_str!("../refs.txt");
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [w, s, d] = f[..] {
                if let Ok(s) = s.parse() {
                    map.insert((w.to_string(), s), d.to_string());
                }
            }
        }
        Refs(map)
    }

    /// Does `digest` match the carried reference for `(workload, seed)`?
    /// A missing reference is a mismatch.
    pub fn matches(&self, workload: &str, seed: u64, digest: &str) -> bool {
        self.0
            .get(&(workload.to_string(), seed))
            .map(String::as_str)
            == Some(digest)
    }
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn fail(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = arg(&args, "--workload").unwrap_or_else(|| fail("--workload is required"));
    if !WORKLOADS.contains(&workload) {
        fail(&format!("unknown workload `{workload}`"));
    }
    // Scratch files stay behind when the run ends (`.bench_work` is
    // gitignored). Deleting a run's tens of megabytes of small files makes
    // the file system discard their blocks under the next run's `fsync`s,
    // so the next run would measure this one's clean-up: service latency
    // rose by half when every run deleted its scratch.
    let workdir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir).unwrap_or_else(|e| fail(&format!("workdir: {e}")));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    if args.iter().any(|a| a == "--bless") {
        match workload {
            "cosched-campaign" => cosched::bless(&workdir, threads),
            "cosmotools-insitu" => cosmo::bless(),
            "snapshot-strategies" => snapshot::bless(&workdir, threads),
            _ => fail("this workload checks against the program's own reference"),
        }
        return;
    }

    fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
        arg(args, flag)
            .unwrap_or_else(|| fail(&format!("{flag} is required")))
            .parse()
            .unwrap_or_else(|_| fail(&format!("{flag} wants a number")))
    }
    let ctx = Ctx {
        seed: num(&args, "--seed"),
        seconds: num(&args, "--seconds"),
        trace: num::<u8>(&args, "--trace") != 0,
        workdir: workdir.clone(),
        threads,
    };
    if ctx.trace != cfg!(feature = "trace") {
        fail("--trace 1 needs the build with the `trace` feature, --trace 0 the one without");
    }
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  threads {}",
        ctx.seed, ctx.seconds, ctx.trace as u8, threads
    );
    let refs = Refs::load();
    let mut out = match workload {
        "cosched-campaign" => cosched::run(&ctx, &refs),
        "cosmotools-insitu" => cosmo::run(&ctx, &refs),
        "snapshot-strategies" => snapshot::run(&ctx, &refs),
        _ => service::run(&ctx),
    };
    out.set(
        "success_rate",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    let declared = if ctx.trace { PER_LAYER } else { END_TO_END };
    if ctx.trace {
        // A layer that does not run on this workload reads 0.
        for (name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
        let overhead = arg(&args, "--baseline-p50")
            .and_then(|v| v.parse::<f64>().ok())
            .zip(out.metrics.remove("latency_s.p50"))
            .map_or(0.0, |(base, traced)| traced / base - 1.0);
        out.set("trace.overhead_frac", overhead);
    }
    out.metrics
        .retain(|k, _| declared.iter().any(|(n, _)| n == k));
    // An empty float sum is -0.0; report it as 0.
    out.metrics.values_mut().for_each(|v| *v += 0.0);
    for (name, unit) in declared {
        let v = out
            .metrics
            .get(name)
            .unwrap_or_else(|| fail(&format!("workload did not report `{name}`")));
        if !v.is_finite() {
            fail(&format!("`{name}` is not a finite number: {v}"));
        }
        println!("{name:<32} {v:>16.6} {unit}");
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                out.metrics[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
