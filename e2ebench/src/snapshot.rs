//! `snapshot-strategies`: the five snapshot strategies over prebuilt 64³
//! z=0 snapshots, in rounds (closed loop).
//!
//! Set-up runs three 64³ simulations (262,144 particles, 30 steps) into
//! `TestBed`s. Each round then takes one bed in turn and runs
//! `run_in_situ_only`, `run_offline_only`, `run_combined_simple`,
//! `run_combined_intransit` and `run_combined_intransit_streamed`, starting
//! one strategy later each round. No simulation step is timed here: the
//! halo finder, Level-1/Level-2 I/O, redistribution and the store's chunk
//! round-trip are.
//!
//! Every run builds the same three snapshots; the seed sets the order in
//! which rounds visit them and where the strategy rotation starts. A round
//! on one snapshot can cost 8% more than on another, so drawing three from
//! a larger pool would spread the round time across seeds by as much.
//!
//! No `scenarios` load regime describes a 64³ bed, and the two besides
//! `Medium` could not stand in: `LoadRegime::Light`/`Heavy` ask for 24³/48³
//! particles, which `Simulation::new` rejects (it asserts powers of two).
//! So the configuration is written out here.

use crate::stats::{max, median, summary};
use crate::{closed_loop, pool_order, recorder, timed, Ctx, Layers, Outcome, Refs};
use dpp::{Backend, Serial, Threaded};
use hacc_core::runner::assert_same_centers;
use hacc_core::{RunnerConfig, TestBed, WorkflowRun};
use nbody::SimConfig;
use std::path::Path;
use std::time::Instant;

const NAME: &str = "snapshot-strategies";
const NP: usize = 64;
/// The snapshots' simulation seeds, each with a carried reference. All are
/// built in every run; `setup_s` is the median of their builds.
const POOL: [u64; 3] = [3001, 3002, 3003];

type Strategy = fn(&TestBed, &dyn Backend) -> WorkflowRun;
const STRATEGIES: [(&str, Strategy); 5] = [
    ("insitu_s", TestBed::run_in_situ_only),
    ("offline_s", TestBed::run_offline_only),
    ("simple_s", TestBed::run_combined_simple),
    ("intransit_s", TestBed::run_combined_intransit),
    ("streamed_s", TestBed::run_combined_intransit_streamed),
];

fn config(seed: u64, workdir: &Path) -> RunnerConfig {
    RunnerConfig {
        sim: SimConfig {
            np: NP,
            ng: NP,
            nsteps: 30,
            seed,
            ..SimConfig::default()
        },
        nranks: 8,
        post_ranks: 2,
        threshold: 200,
        min_size: 40,
        workdir: workdir.to_path_buf(),
        ..RunnerConfig::default()
    }
}

fn digest(run: &WorkflowRun) -> String {
    cache::digest_bytes(&cosmotools::encode_centers(&run.centers)).to_string()
}

/// A built snapshot and its in-situ centers, the reference every strategy
/// must agree with.
struct Bed {
    bed: TestBed,
    reference: WorkflowRun,
    ok: bool,
}

fn build(seed: u64, workdir: &Path, backend: &dyn Backend, refs: &Refs) -> Bed {
    let bed = TestBed::create(config(seed, workdir), backend);
    let reference = bed.run_in_situ_only(backend);
    let ok = refs.matches(NAME, seed, &digest(&reference));
    Bed { bed, reference, ok }
}

/// Run one strategy and check it against the bed's reference centers.
fn strategy(b: &Bed, f: Strategy, backend: &dyn Backend) -> (WorkflowRun, f64, f64, bool) {
    let t0 = Instant::now();
    let (run, call) = timed(|| f(&b.bed, backend));
    // A mismatch report from `assert_same_centers` is counted, not printed.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let agree =
        std::panic::catch_unwind(|| assert_same_centers(&b.reference.centers, &run.centers));
    std::panic::set_hook(hook);
    let ok = b.ok && agree.is_ok();
    (run, call, t0.elapsed().as_secs_f64(), ok)
}

pub fn run(ctx: &Ctx, refs: &Refs) -> Outcome {
    let mut out = Outcome::default();
    let order = pool_order(ctx.seed, &POOL);
    let backend = Threaded::new(ctx.threads);

    let mut setups = Vec::new();
    let mut beds = Vec::new();
    for (k, &seed) in order.iter().enumerate() {
        let (b, secs) = timed(|| build(seed, &ctx.workdir.join(format!("bed{k}")), &backend, refs));
        out.op(b.ok);
        setups.push(secs);
        beds.push(b);
    }

    let mut rounds = Vec::new();
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); STRATEGIES.len()];
    let mut gaps = Vec::new();
    let mut l = Layers::default();
    let mut t = Traced::default();
    let t0 = Instant::now();
    let mut last_end = t0;
    // The rotation starts where the seed says.
    let mut r = (crate::splitmix(ctx.seed) % STRATEGIES.len() as u64) as usize;
    let first = r;
    while t0.elapsed().as_secs_f64() < ctx.seconds {
        let b = &beds[(r - first) % beds.len()];
        let recorder = recorder(ctx.trace);
        let mut round = 0.0;
        for j in 0..STRATEGIES.len() {
            let k = (r + j) % STRATEGIES.len();
            gaps.push(last_end.elapsed().as_secs_f64());
            let (run, call, wall, ok) = strategy(b, STRATEGIES[k].1, &backend);
            out.op(ok);
            per[k].push(wall);
            round += wall;
            if ctx.trace {
                t.add(&mut l, k, b, &run, call, wall);
            }
            last_end = Instant::now();
        }
        drop(recorder.map(|g| g.finish()));
        rounds.push(round);
        r += 1;
    }
    let loop_s = t0.elapsed().as_secs_f64();

    for (k, (name, _)) in STRATEGIES.iter().enumerate() {
        println!("{}", summary(name, &per[k]));
    }
    println!("{}", summary("round (all five)", &rounds));
    for (k, &seed) in order.iter().enumerate() {
        let mine: Vec<f64> = rounds.iter().skip(k).step_by(POOL.len()).copied().collect();
        println!("{}", summary(&format!("round on snapshot {seed}"), &mine));
    }
    closed_loop(
        &mut out,
        &setups,
        &rounds,
        loop_s,
        (NP as f64).powi(3) * STRATEGIES.len() as f64,
    );

    if ctx.trace {
        // Single-threaded baseline: one round on `dpp::Serial`.
        let serial: f64 = STRATEGIES
            .iter()
            .map(|(_, f)| {
                let (_, _, wall, ok) = strategy(&beds[0], *f, &Serial);
                out.op(ok);
                wall
            })
            .sum();
        out.set("dpp.speedup_vs_serial", serial / median(&rounds));
        out.set("generator.late_s.max", max(&gaps));
        l.finish(&mut out);
        t.finish(&mut out);
    }
    out
}

/// Per-layer accumulation over traced strategy runs.
#[derive(Default)]
struct Traced {
    halos: f64,
    imbalance: Vec<f64>,
    write_bytes: f64,
    read_bytes: f64,
    io_s: f64,
    bytes_sent: f64,
    dispatches: f64,
    dispatch_s: f64,
}

impl Traced {
    /// Attribute one strategy run from the phases it reports: writes and
    /// reads are genio, redistribution is comm (the streamed strategy's is
    /// the store's chunk round-trip), analysis is the halo finder.
    fn add(&mut self, l: &mut Layers, k: usize, b: &Bed, run: &WorkflowRun, call: f64, wall: f64) {
        let p = &run.phases;
        let redistribute = if STRATEGIES[k].0 == "streamed_s" {
            "store.chunk_roundtrip_share"
        } else {
            "comm.redistribute_share"
        };
        l.add("genio.write_share", p.write);
        l.add("genio.read_share", p.read);
        l.add(redistribute, p.redistribute);
        l.add("halo.share", p.analysis);
        l.add("bench.verify_share", wall - call);
        let find = run.rank_timings.iter().map(|t| t.find_seconds);
        let center = run.rank_timings.iter().map(|t| t.center_seconds);
        l.add("halo.find_max_rank_share", find.fold(0.0, f64::max));
        l.add("halo.center_max_rank_share", center.fold(0.0, f64::max));
        let per_rank: Vec<f64> = run
            .rank_timings
            .iter()
            .map(|t| t.find_seconds + t.center_seconds)
            .collect();
        if !per_rank.is_empty() {
            let mean = per_rank.iter().sum::<f64>() / per_rank.len() as f64;
            self.imbalance.push(max(&per_rank) / mean);
        }
        l.close_op(
            wall,
            p.write + p.read + p.redistribute + p.analysis + (wall - call),
        );

        let dir = &b.bed.cfg.workdir;
        let size = |f: &str| std::fs::metadata(dir.join(f)).map_or(0.0, |m| m.len() as f64);
        match STRATEGIES[k].0 {
            "offline_s" => {
                self.write_bytes += size("level1.hcio");
                self.read_bytes += size("level1.hcio");
                // Computed: every particle goes through the redistribution.
                self.bytes_sent +=
                    (b.bed.particles.len() * std::mem::size_of::<nbody::Particle>()) as f64;
            }
            "simple_s" => {
                self.write_bytes += size("level2.hcio");
                self.read_bytes += size("level2.hcio");
            }
            _ => {}
        }
        self.io_s += p.write + p.read;
        self.halos += run.centers.len() as f64;
        self.dispatches += run.pool_dispatches as f64;
        self.dispatch_s += run.dispatch_overhead_seconds;
    }

    fn finish(self, out: &mut Outcome) {
        out.set("halo.halos", self.halos);
        out.set("halo.rank_imbalance", median(&self.imbalance));
        out.set("genio.write_bytes", self.write_bytes);
        out.set(
            "genio.mb_per_s",
            (self.write_bytes + self.read_bytes) / 1e6 / self.io_s.max(f64::MIN_POSITIVE),
        );
        out.set("comm.bytes_sent", self.bytes_sent);
        out.set("dpp.dispatches", self.dispatches);
        out.set("dpp.dispatch_s", self.dispatch_s);
    }
}

/// Print the reference digest of every pool seed, after checking that the
/// threaded and serial backends agree on it.
pub fn bless(workdir: &Path, threads: usize) {
    let threaded = Threaded::new(threads);
    for seed in POOL {
        let b = build(seed, workdir, &threaded, &Refs::default());
        let serial = digest(&b.bed.run_in_situ_only(&Serial));
        assert_eq!(
            digest(&b.reference),
            serial,
            "seed {seed}: backends disagree"
        );
        println!("{NAME} {seed} {serial}");
    }
}
