//! `cosched-campaign`: the paper's co-scheduled workflow, one campaign at a
//! time (closed loop).
//!
//! Each campaign is `TestBed::run_combined_coscheduled(…, 8)` on the
//! medium configuration of `examples/workflow_compare.rs`: 32³ particles
//! and mesh, 30 steps, 8 ranks, in-situ FOF + MBP for halos of at most 200
//! particles every 8 steps, one Level-2 file per analysis step, and a file
//! listener submitting a post-analysis job per file. Render and cache are
//! off. The co-scheduled strategy re-runs the simulation itself, so the
//! test bed is built from its public fields without a throw-away run.

use crate::stats::{max, median, summary};
use crate::{closed_loop, pool_order, recorder, set_up, timed, Ctx, Layers, Outcome, Refs};
use cosmotools::SnapshotMeta;
use dpp::{Backend, Serial, Threaded};
use hacc_core::{RunnerConfig, TestBed, WorkflowRun};
use nbody::{SimConfig, Simulation};
use std::path::{Path, PathBuf};
use std::time::Instant;

const NAME: &str = "cosched-campaign";
/// In-situ analysis (and Level-2 emission) cadence in steps.
const EMIT_EVERY: usize = 8;
/// The simulation seeds campaigns draw from, each with a carried reference.
const POOL: [u64; 24] = [
    1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010, 1011, 1012, 1013, 1014, 1015, 1016,
    1017, 1018, 1019, 1020, 1021, 1022, 1023, 1024,
];

fn bed(seed: u64, workdir: &Path) -> TestBed {
    let cfg = RunnerConfig {
        sim: SimConfig {
            np: 32,
            ng: 32,
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
    };
    TestBed {
        meta: SnapshotMeta {
            step: cfg.sim.nsteps as u64,
            redshift: cfg.sim.z_final,
            box_size: cfg.sim.cosmology.box_size,
        },
        particles: Vec::new(),
        sim_seconds: 0.0,
        cfg,
    }
}

/// The Level-2 files a campaign emitted, in step order.
fn level2_files(bed: &TestBed) -> Vec<PathBuf> {
    let dir = bed.cfg.workdir.join("coscheduled");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|e| e == "hcio"));
    files.sort();
    files
}

/// Digest of a campaign's products: the merged Level-3 centers, then every
/// Level-2 file it emitted.
fn digest(bed: &TestBed, run: &WorkflowRun) -> String {
    let mut bytes = cosmotools::encode_centers(&run.centers);
    for f in level2_files(bed) {
        let d = cosmotools::file_digest(&f).map_or(0, |d| d.0);
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    cache::digest_bytes(&bytes).to_string()
}

/// One verified campaign.
struct Campaign {
    bed: TestBed,
    run: WorkflowRun,
    /// From the call to the verified products.
    wall: f64,
    /// The `run_combined_coscheduled` call alone.
    call: f64,
    digest: String,
    ok: bool,
}

fn campaign(seed: u64, dir: &Path, backend: &dyn Backend, refs: &Refs) -> Campaign {
    let bed = bed(seed, dir);
    let t0 = Instant::now();
    let (run, call) = timed(|| bed.run_combined_coscheduled(backend, EMIT_EVERY));
    let digest = digest(&bed, &run);
    let ok = run.degraded_steps == 0 && refs.matches(NAME, seed, &digest);
    let wall = t0.elapsed().as_secs_f64();
    Campaign {
        bed,
        run,
        wall,
        call,
        digest,
        ok,
    }
}

pub fn run(ctx: &Ctx, refs: &Refs) -> Outcome {
    let mut out = Outcome::default();
    let order = pool_order(ctx.seed, &POOL);
    let seed_of = |i: usize| order[i % order.len()];
    let dir = ctx.workdir.join("campaign");

    let (backend, setups) = set_up(ctx, &mut out, |k, b| campaign(seed_of(k), &dir, b, refs).ok);

    let mut walls = Vec::new();
    let mut gaps = Vec::new();
    let mut layers = Layers::default();
    let mut traced = Traced::default();
    let t0 = Instant::now();
    let mut last_end = t0;
    let mut i = setups.len();
    while t0.elapsed().as_secs_f64() < ctx.seconds {
        gaps.push(last_end.elapsed().as_secs_f64());
        let recorder = recorder(ctx.trace);
        let c = campaign(seed_of(i), &dir, &backend, refs);
        let trace = recorder.map(|g| g.finish());
        out.op(c.ok);
        walls.push(c.wall);
        if let Some(trace) = trace {
            traced.add(&mut layers, &c, &trace, &backend);
        }
        // The traced measurements above are not the generator's lateness.
        last_end = Instant::now();
        i += 1;
    }
    let loop_s = t0.elapsed().as_secs_f64();

    println!("{}", summary("campaign (start to verified)", &walls));
    closed_loop(&mut out, &setups, &walls, loop_s, 32.0f64.powi(3) * 30.0);

    if ctx.trace {
        // Single-threaded baseline: one campaign on `dpp::Serial`.
        let serial = campaign(seed_of(i), &dir, &Serial, refs);
        out.op(serial.ok);
        out.set("dpp.speedup_vs_serial", serial.wall / median(&walls));
        out.set("generator.late_s.max", max(&gaps));
        traced.finish(&mut out, layers);
    }
    out
}

/// Per-layer accumulation over traced campaigns.
#[derive(Default)]
struct Traced {
    halos: f64,
    overlapped: f64,
    l2_bytes: f64,
    write_s: f64,
    dispatches: f64,
    dispatch_s: f64,
    scans: f64,
    submitted: f64,
    cache_skipped: f64,
}

impl Traced {
    /// Fold in one traced campaign. The simulation's own cost is measured
    /// by a bare run of the same configuration (the benchmark cannot span
    /// the steps inside the runner); the post-analysis jobs, which overlap
    /// the simulation on other threads, by re-running them on the files
    /// the campaign emitted.
    fn add(
        &mut self,
        l: &mut Layers,
        c: &Campaign,
        trace: &telemetry::Trace,
        backend: &dyn Backend,
    ) {
        let (bed, run) = (&c.bed, &c.run);
        let ((), nbody) = timed(|| {
            let mut sim = Simulation::new(backend, bed.cfg.sim.clone());
            sim.run(backend);
        });
        let files = level2_files(bed);
        let ((), post) = timed(|| {
            for f in &files {
                if let Ok(Ok(container)) = cosmotools::read_file(f) {
                    hacc_core::runner::centers_over_ranks(
                        &container,
                        bed.cfg.post_ranks,
                        bed.cfg.softening,
                        &Serial,
                    );
                }
            }
        });
        let steps: f64 = trace
            .spans()
            .iter()
            .filter(|s| s.layer == "runner" && s.name == "in_situ_step")
            .map(|s| s.dur as f64 * 1e-6)
            .sum();
        let halo = run.phases.analysis;
        let write = (steps - halo).max(0.0);
        let tail = c.call - run.phases.sim;
        let verify = c.wall - c.call;
        l.add("nbody.share", nbody);
        l.add("halo.share", halo);
        l.add("genio.write_share", write);
        l.add("listener.tail_share", tail);
        l.add("bench.verify_share", verify);
        l.add("post.centers_share", post);
        l.close_op(c.wall, nbody + halo + write + tail + verify);

        let counters = trace.counters();
        self.halos += run.centers.len() as f64;
        self.overlapped += run.overlapped_jobs as f64;
        self.l2_bytes += files
            .iter()
            .filter_map(|f| std::fs::metadata(f).ok())
            .map(|m| m.len() as f64)
            .sum::<f64>();
        self.write_s += write;
        self.dispatches += run.pool_dispatches as f64;
        self.dispatch_s += run.dispatch_overhead_seconds;
        let count = |name| counters.get(&("listener", name)).copied().unwrap_or(0) as f64;
        self.scans += count("scans");
        self.submitted += count("submitted");
        self.cache_skipped += count("cache_skipped");
    }

    fn finish(self, out: &mut Outcome, layers: Layers) {
        layers.finish(out);
        out.set("halo.halos", self.halos);
        out.set("genio.write_bytes", self.l2_bytes);
        out.set(
            "genio.mb_per_s",
            self.l2_bytes / 1e6 / self.write_s.max(f64::MIN_POSITIVE),
        );
        out.set("listener.scans", self.scans);
        out.set("listener.submitted", self.submitted);
        out.set("listener.cache_skipped", self.cache_skipped);
        out.set("post.overlapped_jobs", self.overlapped);
        out.set("dpp.dispatches", self.dispatches);
        out.set("dpp.dispatch_s", self.dispatch_s);
    }
}

/// Print the reference digest of every pool seed, after checking that the
/// threaded and serial backends agree on it.
pub fn bless(workdir: &Path, threads: usize) {
    let threaded = Threaded::new(threads);
    for seed in POOL {
        let d1 = campaign(seed, workdir, &threaded, &Refs::default()).digest;
        let d2 = campaign(seed, workdir, &Serial, &Refs::default()).digest;
        assert_eq!(d1, d2, "seed {seed}: backends disagree");
        println!("{NAME} {seed} {d1}");
    }
}
