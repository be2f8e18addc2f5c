//! `cosmotools-insitu`: a simulation stepped by the benchmark with the
//! CosmoTools in-situ manager attached, one campaign at a time (closed
//! loop).
//!
//! 32³ particles and mesh, 30 steps. After every step the manager runs
//! whichever tasks elect to: `PowerSpectrumTask` every 5 steps,
//! `HaloFinderTask` (min size 40, in-situ centers up to 200 particles) at
//! steps 10, 15, 20, 25 and the last, `SoMassTask` and `SubhaloTask` at the
//! last step, and `DensityRenderTask` (64² frames) every 3 steps. This is
//! the only workload whose halo finding goes through `HaloFinderTask`.

use crate::stats::{max, median, summary};
use crate::{closed_loop, pool_order, recorder, set_up, timed, Ctx, Layers, Outcome, Refs};
use cosmotools::{
    Config, DensityRenderTask, HaloFinderTask, InSituAnalysisManager, PowerSpectrumTask, Product,
    SoMassTask, SubhaloTask,
};
use dpp::{Backend, Serial, Threaded};
use nbody::{SimConfig, Simulation};
use std::time::Instant;

const NAME: &str = "cosmotools-insitu";
const NP: usize = 32;
const STEPS: usize = 30;
/// The simulation seeds campaigns draw from, each with a carried reference.
const POOL: [u64; 16] = [
    2001, 2002, 2003, 2004, 2005, 2006, 2007, 2008, 2009, 2010, 2011, 2012, 2013, 2014, 2015, 2016,
];

const DECK: &str = "\
[powerspectrum]
every = 5
[halofinder]
min_size = 40
center_threshold = 200
at_steps = 10,15,20,25
[somass]
enabled = true
[subhalos]
enabled = true
[density-render]
enabled = true
ng = 64
every = 3
";

/// Reference key: the workload and the backend concurrency (see [`bless`]).
fn key(concurrency: usize) -> String {
    format!("{NAME}/c{concurrency}")
}

fn manager() -> InSituAnalysisManager {
    let mut m = InSituAnalysisManager::new();
    m.register(Box::new(PowerSpectrumTask::new()));
    m.register(Box::new(HaloFinderTask::new()));
    m.register(Box::new(SoMassTask::new()));
    m.register(Box::new(SubhaloTask::new()));
    m.register(Box::new(DensityRenderTask::new()));
    m.configure(&Config::parse(DECK).expect("deck parses"))
        .expect("deck configures");
    m
}

/// Canonical bytes of every product, in emission order.
fn digest(products: &[Product]) -> String {
    let mut b: Vec<u8> = Vec::new();
    let mut put = |x: u64| b.extend_from_slice(&x.to_le_bytes());
    for p in products {
        put(p.step() as u64);
        match p {
            Product::PowerSpectrum { bins, .. } => {
                for (k, pk) in bins {
                    put(k.to_bits());
                    put(pk.to_bits());
                }
            }
            Product::Halos { catalog, .. } => {
                for h in &catalog.halos {
                    put(h.id);
                    put(h.count() as u64);
                    for c in h.mbp_center.unwrap_or([f64::NAN; 3]) {
                        put(c.to_bits());
                    }
                }
            }
            Product::Subhalos { counts, .. } => {
                for (id, n) in counts {
                    put(*id);
                    put(*n as u64);
                }
            }
            Product::SoMasses { masses, .. } => {
                for (id, m) in masses {
                    put(*id);
                    put(m.to_bits());
                }
            }
            Product::Image { frame, .. } => put(cosmotools::image_digest(frame).0 as u64),
        }
    }
    cache::digest_bytes(&b).to_string()
}

/// One verified campaign.
struct Campaign {
    wall: f64,
    /// Benchmark spans: simulation set-up and steps, and verification.
    nbody: f64,
    verify: f64,
    records: Vec<cosmotools::ExecutionRecord>,
    halos: usize,
    frames: usize,
    digest: String,
    ok: bool,
}

fn campaign(seed: u64, backend: &dyn Backend, refs: &Refs) -> Campaign {
    let cfg = SimConfig {
        np: NP,
        ng: NP,
        nsteps: STEPS,
        seed,
        ..SimConfig::default()
    };
    let box_size = cfg.cosmology.box_size;
    let t0 = Instant::now();
    let mut mgr = manager();
    let (mut sim, mut nbody) = timed(|| Simulation::new(backend, cfg));
    while !sim.finished() {
        nbody += timed(|| sim.step(backend)).1;
        mgr.execute_at(
            sim.step_index(),
            sim.total_steps(),
            sim.redshift(),
            sim.particles(),
            box_size,
            backend,
        );
    }
    let products = mgr.take_products();
    let ((digest, ok), verify) = timed(|| {
        let d = digest(&products);
        let ok = refs.matches(&key(backend.concurrency()), seed, &d);
        (d, ok)
    });
    let halos = products
        .iter()
        .rev()
        .find_map(|p| match p {
            Product::Halos { catalog, .. } => Some(catalog.len()),
            _ => None,
        })
        .unwrap_or(0);
    let frames = products
        .iter()
        .filter(|p| matches!(p, Product::Image { .. }))
        .count();
    Campaign {
        wall: t0.elapsed().as_secs_f64(),
        nbody,
        verify,
        records: mgr.records().to_vec(),
        halos,
        frames,
        digest,
        ok,
    }
}

pub fn run(ctx: &Ctx, refs: &Refs) -> Outcome {
    let mut out = Outcome::default();
    let order = pool_order(ctx.seed, &POOL);
    let seed_of = |i: usize| order[i % order.len()];

    let (backend, setups) = set_up(ctx, &mut out, |k, b| campaign(seed_of(k), b, refs).ok);

    let mut walls = Vec::new();
    let mut gaps = Vec::new();
    let mut l = Layers::default();
    let (mut halos, mut frames) = (0usize, 0usize);
    let pool0 = backend.pool_stats().unwrap_or_default();
    let t0 = Instant::now();
    let mut last_end = t0;
    let mut i = setups.len();
    while t0.elapsed().as_secs_f64() < ctx.seconds {
        gaps.push(last_end.elapsed().as_secs_f64());
        let recorder = recorder(ctx.trace);
        let c = campaign(seed_of(i), &backend, refs);
        drop(recorder.map(|g| g.finish()));
        out.op(c.ok);
        walls.push(c.wall);
        // Attribution: the benchmark's spans around the simulation and the
        // verification, and the manager's per-task execution records. Time
        // in the manager outside any task stays unattributed.
        let mut tasks = 0.0;
        for r in &c.records {
            let name = match r.algorithm.as_str() {
                "halofinder" => "cosmotools.halofinder_share",
                "powerspectrum" => "cosmotools.powerspectrum_share",
                "somass" => "cosmotools.somass_share",
                "subhalos" => "cosmotools.subhalos_share",
                "density-render" => "cosmotools.render_share",
                _ => continue,
            };
            l.add(name, r.seconds);
            tasks += r.seconds;
        }
        l.add("nbody.share", c.nbody);
        l.add("bench.verify_share", c.verify);
        l.close_op(c.wall, c.nbody + tasks + c.verify);
        halos += c.halos;
        frames += c.frames;
        last_end = Instant::now();
        i += 1;
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let pool = backend.pool_stats().unwrap_or_default().delta_since(&pool0);

    println!("{}", summary("campaign (start to verified)", &walls));
    closed_loop(
        &mut out,
        &setups,
        &walls,
        loop_s,
        (NP as f64).powi(3) * STEPS as f64,
    );

    if ctx.trace {
        let serial = campaign(seed_of(i), &Serial, refs);
        out.op(serial.ok);
        out.set("dpp.speedup_vs_serial", serial.wall / median(&walls));
        out.set("generator.late_s.max", max(&gaps));
        l.finish(&mut out);
        out.set("halo.halos", halos as f64);
        out.set("cosmotools.frames", frames as f64);
        out.set("dpp.dispatches", pool.dispatches as f64);
        out.set("dpp.dispatch_s", pool.total_dispatch_nanos as f64 * 1e-9);
    }
    out
}

/// Print the reference digests of every pool seed, one per backend
/// concurrency from 1 to 8: the power spectrum's deposit splits its
/// particles by the backend's concurrency, so its bits depend on it.
/// `Serial` must agree with a one-worker pool.
pub fn bless() {
    for seed in POOL {
        let serial = campaign(seed, &Serial, &Refs::default()).digest;
        for workers in 1..=8 {
            let d = campaign(seed, &Threaded::new(workers), &Refs::default()).digest;
            if workers == 1 {
                assert_eq!(d, serial, "seed {seed}: Serial and one worker disagree");
            }
            println!("{} {seed} {d}", key(workers));
        }
    }
}
