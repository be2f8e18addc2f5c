//! Real end-to-end execution of the three workflows (paper §4.2) on an
//! actual (downscaled) simulation: the same algorithms, the same data
//! movement, real files on disk, a real listener — measured in local wall
//! seconds. The `model` module projects the same structure onto the paper's
//! platforms; this module proves the plumbing works and exhibits the same
//! qualitative trade-offs.
//!
//! Every strategy is a composition of the same private stages: rank
//! analysis, the large-halo split into Level 2, and the memoized
//! post-analysis job. The combined variations differ only in how Level 2
//! travels between the last two: as a file, in memory, as streamed chunks,
//! or through a co-scheduled listener.

use crate::cost::PhaseSeconds;
use crate::listener::{CacheGate, Listener, ListenerConfig};
use cache::{ArtifactCache, CacheKey, Digest, Fingerprint, FingerprintBuilder};
use comm::{redistribute, CartDecomp, World};
use cosmotools::{
    centers_from_catalog, centers_from_level2, merge_center_sets, write_level2_container,
    CenterRecord, Container, SnapshotMeta,
};
use dpp::Backend;
use faults::{BackoffPolicy, FaultInjector, FaultKind};
use halo::{fof_and_centers_timed, FofConfig, HaloCatalog, RankTiming};
use nbody::{Particle, SimConfig, Simulation};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The fault site consulted before each in-situ analysis step of the
/// co-scheduled workflow.
pub const RUNNER_FAULT_SITE: &str = "runner.insitu";

/// The fault site consulted before each in-situ visualization frame is
/// rendered and emitted by the co-scheduled workflow.
pub const RENDER_FAULT_SITE: &str = "render.emit";

/// Configuration of a real workflow comparison run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Simulation setup (box, particle count, steps).
    pub sim: SimConfig,
    /// Virtual node (rank) count for the distributed analysis.
    pub nranks: usize,
    /// Post-processing rank count for the combined workflow. It enters the
    /// cache fingerprint only: the post job's parallelism comes from the
    /// backend it runs on (see [`centers_over_ranks`]).
    pub post_ranks: usize,
    /// FOF linking length in mean interparticle spacings.
    pub linking_length: f64,
    /// Minimum halo size kept.
    pub min_size: usize,
    /// In-situ / off-line split threshold (particles).
    pub threshold: usize,
    /// Potential softening.
    pub softening: f64,
    /// Scratch directory for the Level 1/2 files.
    pub workdir: PathBuf,
    /// Fault injector consulted at [`RUNNER_FAULT_SITE`]; `None` falls back
    /// to the globally installed injector (usually none — no faults).
    pub injector: Option<Arc<FaultInjector>>,
    /// Retry policy for transient in-situ analysis failures.
    pub insitu_retry: BackoffPolicy,
    /// Artifact cache for incremental re-execution: off-line analysis steps
    /// are memoized under `(operation, input digest, config fingerprint)`
    /// keys, so re-running a strategy over unchanged inputs reuses the
    /// existing Level 3 products instead of recomputing them. `None`
    /// disables memoization (every run computes from scratch).
    pub cache: Option<Arc<ArtifactCache>>,
    /// In-situ visualization: when set, the co-scheduled workflow renders a
    /// density projection frame at *every* simulation step (the render
    /// workload is bandwidth-bound, not compute-bound) into
    /// `workdir/coscheduled/render/`. `None` disables rendering entirely —
    /// zero behavior change for halo-only runs.
    pub render: Option<cosmotools::RenderParams>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            sim: SimConfig {
                np: 32,
                ng: 32,
                nsteps: 30,
                ..SimConfig::default()
            },
            nranks: 8,
            post_ranks: 2,
            linking_length: 0.2,
            min_size: 20,
            threshold: 200,
            softening: 1e-3,
            workdir: std::env::temp_dir().join(format!("hacc_runner_{}", std::process::id())),
            injector: None,
            insitu_retry: BackoffPolicy {
                base_seconds: 0.001,
                factor: 2.0,
                max_delay_seconds: 0.05,
                max_attempts: 5,
            },
            cache: None,
            render: None,
        }
    }
}

impl RunnerConfig {
    /// FOF configuration derived from the run.
    pub fn fof(&self) -> FofConfig {
        let l = self.sim.cosmology.box_size;
        let np = self.sim.np as f64;
        let link = self.linking_length * l / np;
        FofConfig {
            link_length: link,
            min_size: self.min_size,
            // As wide as feasible: FOF chains can stretch far beyond a
            // virial radius, and the overload shell must cover the largest
            // halo extent (paper §3.3.1).
            overload_width: (25.0 * link).min(0.45 * self.decomp().min_block_width()),
        }
    }

    /// Decide a fault at `site`: the explicit injector when configured,
    /// otherwise the global one.
    fn fault(&self, site: &str) -> Option<FaultKind> {
        match &self.injector {
            Some(inj) => inj.check(site),
            None => faults::poll(site),
        }
    }

    /// Fingerprint of every parameter that shapes an analysis result. Two
    /// configs with the same *input bytes* but, say, a different linking
    /// length or threshold produce disjoint cache keys — changed parameters
    /// can never alias a stale artifact.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = FingerprintBuilder::new();
        fp.push_str("runner-analysis-v1")
            .push_u64(self.sim.np as u64)
            .push_u64(self.sim.ng as u64)
            .push_u64(self.sim.nsteps as u64)
            .push_u64(self.sim.seed)
            .push_f64(self.sim.z_init)
            .push_f64(self.sim.z_final)
            .push_f64(self.sim.cosmology.omega_m)
            .push_f64(self.sim.cosmology.h)
            .push_f64(self.sim.cosmology.ns)
            .push_f64(self.sim.cosmology.sigma_cell)
            .push_f64(self.sim.cosmology.box_size)
            .push_u64(self.nranks as u64)
            .push_u64(self.post_ranks as u64)
            .push_f64(self.linking_length)
            .push_u64(self.min_size as u64)
            .push_u64(self.threshold as u64)
            .push_f64(self.softening);
        // Render parameters shape the frame artifacts; fold them in only
        // when rendering is on so halo-only runs keep their historical keys.
        if let Some(rp) = &self.render {
            fp.push_str("render-v1")
                .push_u64(rp.ng as u64)
                .push_u64(rp.axis.code() as u64)
                .push_u64(rp.byte_budget)
                .push_u64(rp.lod_seed);
        }
        fp.finish()
    }

    /// Cache key for the analysis of one input artifact under this config.
    fn cache_key(&self, op: &str, input: Digest) -> CacheKey {
        CacheKey::compose(op, input, self.fingerprint())
    }

    fn decomp(&self) -> CartDecomp {
        CartDecomp::new(self.nranks, self.sim.cosmology.box_size)
    }

    /// Rank-local particle sets: each particle on its spatial owner.
    fn distribute(&self, particles: &[Particle]) -> Vec<Vec<Particle>> {
        let decomp = self.decomp();
        let mut per_rank: Vec<Vec<Particle>> = vec![Vec::new(); self.nranks];
        for p in particles {
            per_rank[decomp.owner_of(p.pos_f64())].push(*p);
        }
        per_rank
    }

    /// The rank-analysis stage: distributed FOF + centers up to `threshold`
    /// over rank-local particle sets, one [`World`] rank each. Returns the
    /// per-rank catalogs and timings.
    fn analyze_ranks(
        &self,
        per_rank: &[Vec<Particle>],
        threshold: usize,
        backend: &dyn Backend,
    ) -> (Vec<HaloCatalog>, Vec<RankTiming>) {
        let decomp = self.decomp();
        let fof = self.fof();
        let results = World::new(self.nranks).run(|c| {
            fof_and_centers_timed(
                c,
                &decomp,
                &per_rank[c.rank()],
                &fof,
                backend,
                self.softening,
                threshold,
            )
        });
        results.into_iter().unzip()
    }

    /// Consult `site` under the in-situ retry policy. A stall sleeps, then
    /// proceeds; a transient fault backs off and polls again, each retry
    /// counted in `retries`. A crash, or a transient fault on the last
    /// allowed attempt, returns `false`: the caller degrades.
    fn consult_with_retry(&self, site: &'static str, retries: &mut u64) -> bool {
        let mut attempt: u32 = 0;
        loop {
            match self.fault(site) {
                None => return true,
                Some(FaultKind::Stall(d)) => {
                    telemetry::instant!("faults", site, 2);
                    std::thread::sleep(d);
                    return true;
                }
                Some(FaultKind::Crash) => {
                    telemetry::instant!("faults", site, 1);
                    return false;
                }
                Some(FaultKind::Transient) => {
                    telemetry::instant!("faults", site, 0);
                    attempt += 1;
                    *retries += 1;
                    telemetry::count!("runner", "insitu_retries", 1);
                    if attempt >= self.insitu_retry.max_attempts {
                        return false;
                    }
                    std::thread::sleep(self.insitu_retry.delay(attempt - 1));
                }
            }
        }
    }
}

/// Serialize a memoized analysis result: the wall seconds the original
/// computation took (so a hit can be credited as saved node-seconds in the
/// cost report) followed by the fixed-width center records.
fn encode_memo(seconds: f64, centers: &[CenterRecord]) -> Vec<u8> {
    let mut out = seconds.to_bits().to_le_bytes().to_vec();
    out.extend_from_slice(&cosmotools::encode_centers(centers));
    out
}

/// Inverse of [`encode_memo`]; `None` on a malformed payload (the caller
/// falls back to recomputing — a bad memo must never poison a catalog).
fn decode_memo(bytes: &[u8]) -> Option<(f64, Vec<CenterRecord>)> {
    let secs_bytes: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    let seconds = f64::from_bits(u64::from_le_bytes(secs_bytes));
    Some((seconds, cosmotools::decode_centers(&bytes[8..])?))
}

/// Look up and decode a memo; a verified hit with an undecodable payload is
/// treated as a miss (the artifact belongs to something else entirely).
fn memo_lookup(cache: &ArtifactCache, key: CacheKey) -> Option<(f64, Vec<CenterRecord>)> {
    cache.lookup(key).and_then(|bytes| decode_memo(&bytes))
}

/// Result of executing one workflow for real.
#[derive(Debug, Clone, Default)]
pub struct WorkflowRun {
    /// Strategy label.
    pub strategy: String,
    /// Measured phase wall seconds (local machine).
    pub phases: PhaseSeconds,
    /// The complete, merged center set (Level 3 output).
    pub centers: Vec<CenterRecord>,
    /// Per-rank find/center timings of the main analysis.
    pub rank_timings: Vec<RankTiming>,
    /// For co-scheduled runs: analysis jobs that started before the
    /// simulation finished.
    pub overlapped_jobs: usize,
    /// Analysis steps where in-situ processing failed and the workflow fell
    /// back to re-shipping the last good Level-2 output (graceful
    /// degradation; zero on a fault-free run).
    pub degraded_steps: usize,
    /// Transient faults at [`RUNNER_FAULT_SITE`] and [`RENDER_FAULT_SITE`],
    /// one retry each, counting the one that exhausts the retry policy.
    pub insitu_retries: u64,
    /// Thread-pool dispatches issued while this strategy ran (zero for
    /// pool-less backends such as `dpp::Serial`).
    pub pool_dispatches: u64,
    /// Wall seconds spent inside pool dispatches while this strategy ran —
    /// the measured counterpart of the cost model's analysis phase, fed by
    /// the pool's `dispatches` / `dispatch_nanos` counters.
    pub dispatch_overhead_seconds: f64,
    /// Off-line analysis steps answered from the artifact cache.
    pub cache_hits: u64,
    /// Off-line analysis steps that had to compute (and, with a cache
    /// configured, were memoized for next time).
    pub cache_misses: u64,
    /// Wall seconds of analysis the cache hits replaced — what the original
    /// computation of each reused artifact cost when it first ran. Reported
    /// to the cost model as saved node-seconds.
    pub saved_analysis_seconds: f64,
    /// Wall seconds spent rendering and emitting visualization frames
    /// (zero unless [`RunnerConfig::render`] is set on a co-scheduled run).
    pub render_seconds: f64,
    /// Bytes of encoded image frames emitted (HCIM header + PGM payload).
    pub render_bytes: u64,
    /// Visualization frames emitted (computed + cache-replayed).
    pub frames_rendered: u64,
    /// Frames whose encoded bytes were replayed from the artifact cache
    /// instead of being re-rendered.
    pub render_cache_hits: u64,
}

/// Close a strategy's run record: its label, the simulation seconds it is
/// charged, and the pool dispatches issued (and wall seconds spent inside
/// them) since `pool0` was snapshotted.
fn finish(
    mut run: WorkflowRun,
    strategy: &str,
    sim: f64,
    backend: &dyn Backend,
    pool0: dpp::PoolStats,
) -> WorkflowRun {
    let d = backend.pool_stats().unwrap_or_default().delta_since(&pool0);
    run.strategy = strategy.into();
    run.phases.sim = sim;
    run.pool_dispatches = d.dispatches;
    run.dispatch_overhead_seconds = d.total_dispatch_nanos as f64 * 1e-9;
    run
}

/// The shared testbed: one finished simulation reused by every strategy.
pub struct TestBed {
    /// Configuration.
    pub cfg: RunnerConfig,
    /// Final-step particles (Level 1 in memory).
    pub particles: Vec<Particle>,
    /// Wall seconds the simulation itself took.
    pub sim_seconds: f64,
    /// Snapshot metadata.
    pub meta: SnapshotMeta,
}

impl TestBed {
    /// Run the simulation once.
    pub fn create(cfg: RunnerConfig, backend: &dyn Backend) -> TestBed {
        std::fs::create_dir_all(&cfg.workdir).expect("create workdir");
        let t0 = Instant::now();
        let mut sim = Simulation::new(backend, cfg.sim.clone());
        sim.run(backend);
        let sim_seconds = t0.elapsed().as_secs_f64();
        let meta = SnapshotMeta {
            step: sim.step_index() as u64,
            redshift: sim.redshift(),
            box_size: cfg.sim.cosmology.box_size,
        };
        TestBed {
            particles: sim.particles().to_vec(),
            cfg,
            sim_seconds,
            meta,
        }
    }

    /// Rank-local particle sets (the "already distributed in memory" state).
    pub fn distributed(&self) -> Vec<Vec<Particle>> {
        self.cfg.distribute(&self.particles)
    }

    /// The in-situ stage on the final snapshot: rank analysis of the
    /// distributed particles, centering halos up to `threshold`. Charges
    /// the analysis phase and records the rank timings; returns the merged
    /// in-situ centers and the per-rank catalogs.
    fn in_situ(
        &self,
        threshold: usize,
        run: &mut WorkflowRun,
        backend: &dyn Backend,
    ) -> (Vec<CenterRecord>, Vec<HaloCatalog>) {
        let per_rank = self.distributed();
        let t0 = Instant::now();
        let (catalogs, timings) = self.cfg.analyze_ranks(&per_rank, threshold, backend);
        run.phases.analysis = t0.elapsed().as_secs_f64();
        run.rank_timings = timings;
        (collect_centers(&catalogs), catalogs)
    }

    /// The large-halo split: every rank's halos above the in-situ threshold,
    /// merged into one Level 2 container.
    fn level2(&self, catalogs: Vec<HaloCatalog>, meta: SnapshotMeta) -> Container {
        let mut large = HaloCatalog::new();
        for cat in catalogs {
            large.merge(cat.split_by_size(self.cfg.threshold).1);
        }
        write_level2_container(&large, meta)
    }

    /// The memoized post-analysis stage: the centers of input `input` under
    /// operation `op`, replayed from the artifact cache when a verified memo
    /// exists, otherwise computed by `compute` and memoized. `compute`
    /// charges its own phases and returns the centers with the seconds a
    /// future hit will credit as saved.
    fn memoized(
        &self,
        op: &str,
        input: Digest,
        run: &mut WorkflowRun,
        compute: impl FnOnce(&mut WorkflowRun) -> (Vec<CenterRecord>, f64),
    ) -> Vec<CenterRecord> {
        let key = self.cfg.cache_key(op, input);
        let cache = self.cfg.cache.as_deref();
        if let Some((saved, centers)) = cache.and_then(|c| memo_lookup(c, key)) {
            run.cache_hits += 1;
            run.saved_analysis_seconds += saved;
            return centers;
        }
        let (centers, seconds) = compute(run);
        if let Some(c) = cache {
            run.cache_misses += 1;
            c.insert(key, &encode_memo(seconds, &centers))
                .expect("cache insert");
        }
        centers
    }

    /// The post-analysis job of the combined workflow: centers for the
    /// Level 2 container with content digest `digest`, memoized under
    /// `l2_centers`. On a miss `load` delivers the container (charging any
    /// read it does), and the memo credits that read plus the centering.
    fn l2_centers(
        &self,
        digest: Digest,
        run: &mut WorkflowRun,
        backend: &dyn Backend,
        load: impl FnOnce(&mut PhaseSeconds) -> Container,
    ) -> Vec<CenterRecord> {
        self.memoized("l2_centers", digest, run, |run| {
            let container = load(&mut run.phases);
            let t1 = Instant::now();
            let centers =
                centers_over_ranks(&container, self.cfg.post_ranks, self.cfg.softening, backend);
            let analysis_post = t1.elapsed().as_secs_f64();
            run.phases.analysis += analysis_post;
            (centers, run.phases.read + analysis_post)
        })
    }

    /// Strategy 1: everything in situ (no I/O, no redistribution).
    pub fn run_in_situ_only(&self, backend: &dyn Backend) -> WorkflowRun {
        let _span = telemetry::span!("runner", "in_situ_only");
        let pool0 = backend.pool_stats().unwrap_or_default();
        let mut run = WorkflowRun::default();
        run.centers = self.in_situ(usize::MAX, &mut run, backend).0;
        finish(run, "in-situ", self.sim_seconds, backend, pool0)
    }

    /// Strategy 2: write Level 1 to disk, read it back, redistribute, then
    /// analyze everything off-line.
    ///
    /// With [`RunnerConfig::cache`] set, the whole post-processing stage is
    /// memoized under the Level 1 file's content digest: a re-run over
    /// unchanged inputs skips read, redistribution, and analysis entirely
    /// and reuses the stored Level 3 centers.
    pub fn run_offline_only(&self, backend: &dyn Backend) -> WorkflowRun {
        let _span = telemetry::span!("runner", "offline_only");
        let pool0 = backend.pool_stats().unwrap_or_default();
        let mut run = WorkflowRun::default();
        let path = self.cfg.workdir.join("level1.hcio");
        // Simulation side: write Level 1 (one block per rank), stamped with
        // its content digest — the cache identity of this input.
        let t_w = Instant::now();
        let container = Container {
            meta: self.meta.clone(),
            blocks: self.distributed(),
        };
        let l1_digest = cosmotools::write_file_digest(&path, &container).expect("write level 1");
        run.phases.write = t_w.elapsed().as_secs_f64();

        // Post-processing job: read, redistribute, analyze — the whole job is
        // what a cache hit skips.
        run.centers = self.memoized("offline_analysis", l1_digest, &mut run, |run| {
            let t_r = Instant::now();
            let blocks = cosmotools::read_file(&path)
                .expect("io")
                .expect("valid level 1 container")
                .blocks;
            run.phases.read = t_r.elapsed().as_secs_f64();

            // The file's blocks land on ranks round-robin (as if freshly read
            // by a different job), then get redistributed to spatial owners.
            let t_d = Instant::now();
            let decomp = self.cfg.decomp();
            let nranks = self.cfg.nranks;
            let per_rank: Vec<Vec<Particle>> = World::new(nranks).run(|c| {
                let mine: Vec<Particle> = blocks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % nranks == c.rank())
                    .flat_map(|(_, b)| b.iter().copied())
                    .collect();
                redistribute(c, &decomp, mine)
            });
            run.phases.redistribute = t_d.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let (catalogs, timings) = self.cfg.analyze_ranks(&per_rank, usize::MAX, backend);
            run.phases.analysis = t0.elapsed().as_secs_f64();
            run.rank_timings = timings;
            let p = run.phases;
            (
                collect_centers(&catalogs),
                p.read + p.redistribute + p.analysis,
            )
        });
        finish(run, "off-line", self.sim_seconds, backend, pool0)
    }

    /// Strategy 3 (simple variation): in-situ find + small centers, Level 2
    /// to disk, off-line centers for the large halos, merge.
    pub fn run_combined_simple(&self, backend: &dyn Backend) -> WorkflowRun {
        let _span = telemetry::span!("runner", "combined_simple");
        let pool0 = backend.pool_stats().unwrap_or_default();
        let mut run = WorkflowRun::default();
        let (small_centers, catalogs) = self.in_situ(self.cfg.threshold, &mut run, backend);
        // Large halos → Level 2 file.
        let t_w = Instant::now();
        let l2 = self.level2(catalogs, self.meta.clone());
        let path = self.cfg.workdir.join("level2.hcio");
        let l2_digest = cosmotools::write_file_digest(&path, &l2).expect("write level 2");
        run.phases.write = t_w.elapsed().as_secs_f64();

        // Off-line stage: read Level 2, center each block in a small job —
        // or reuse the memoized centers for exactly these Level 2 bytes.
        let large_centers = self.l2_centers(l2_digest, &mut run, backend, |phases| {
            let t_r = Instant::now();
            let l2_back = cosmotools::read_file(&path)
                .expect("io")
                .expect("valid level 2 container");
            phases.read = t_r.elapsed().as_secs_f64();
            l2_back
        });
        run.centers = merge_center_sets(small_centers, large_centers);
        finish(run, "combined (simple)", self.sim_seconds, backend, pool0)
    }

    /// Strategy 3 (in-transit variation, §4.2's hypothetical third option):
    /// the Level 2 data never touches the file system — it is handed to the
    /// analysis stage through shared memory, paying only the redistribution.
    pub fn run_combined_intransit(&self, backend: &dyn Backend) -> WorkflowRun {
        let _span = telemetry::span!("runner", "combined_intransit");
        let pool0 = backend.pool_stats().unwrap_or_default();
        let mut run = WorkflowRun::default();
        let (small_centers, catalogs) = self.in_situ(self.cfg.threshold, &mut run, backend);

        // Level 2 stays in memory ("Level 2 in external memory" in Table 4):
        // no write, no read — only the redistribution of halo blocks onto
        // the analysis ranks, here a hand-off of the container itself.
        let t_d = Instant::now();
        let container = self.level2(catalogs, self.meta.clone());
        run.phases.redistribute = t_d.elapsed().as_secs_f64();

        // Same serialized bytes as the simple variation's Level 2 file, so
        // the two variations share memoized center sets.
        let digest = cosmotools::container_digest(&container);
        let large_centers = self.l2_centers(digest, &mut run, backend, |_| container);
        run.centers = merge_center_sets(small_centers, large_centers);
        finish(
            run,
            "combined (in-transit)",
            self.sim_seconds,
            backend,
            pool0,
        )
    }

    /// Strategy 3 (in-transit, **streamed** variation): like
    /// [`TestBed::run_combined_intransit`], but the Level-2 container is
    /// split into per-block chunks that travel through a small replicated
    /// [`cache::DistributedStore`] (3 nodes, 2 replicas, under the workdir)
    /// instead of being handed over whole: the emitter side publishes each
    /// chunk as produced, the analysis side fetches the set back (replica
    /// routing applies — one node is killed between publish and fetch to
    /// prove the chunks stay reachable) and reassembles the container
    /// byte-exactly. Because the chunk protocol is lossless, the reassembled
    /// digest equals the whole-container digest and the memoized center set
    /// is shared with the simple and plain in-transit variations.
    pub fn run_combined_intransit_streamed(&self, backend: &dyn Backend) -> WorkflowRun {
        use cache::{DistributedConfig, DistributedStore};
        use cosmotools::{assemble_chunks, chunk_container};

        let _span = telemetry::span!("runner", "combined_intransit_streamed");
        let pool0 = backend.pool_stats().unwrap_or_default();
        let mut run = WorkflowRun::default();
        let (small_centers, catalogs) = self.in_situ(self.cfg.threshold, &mut run, backend);

        let t_d = Instant::now();
        let container = self.level2(catalogs, self.meta.clone());
        // Emitter side: publish the chunk set into a replicated store.
        let store_dir = self.cfg.workdir.join("stream_store");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = DistributedStore::open(
            &store_dir,
            DistributedConfig {
                nodes: 3,
                replicas: 2,
                ..DistributedConfig::default()
            },
        )
        .expect("open stream store");
        let fp = self.cfg.fingerprint();
        let keys: Vec<CacheKey> = chunk_container(&container)
            .iter()
            .map(|chunk| {
                let key = CacheKey::compose("l2chunk", cache::digest_bytes(chunk), fp);
                store.insert(key, chunk).expect("publish chunk");
                key
            })
            .collect();
        // A replica-holding node dies between publish and ingest; every
        // chunk must still be reachable through its surviving replica.
        store.kill_node(0);
        let fetched: Vec<Vec<u8>> = keys
            .iter()
            .map(|&k| store.lookup(k).expect("chunk lost with one dead node"))
            .collect();
        let container = assemble_chunks(&fetched).expect("reassemble streamed Level 2");
        run.phases.redistribute = t_d.elapsed().as_secs_f64();

        // Identical bytes ⇒ identical digest ⇒ the memoized center set is
        // shared with the simple / in-transit variations.
        let digest = cosmotools::container_digest(&container);
        let large_centers = self.l2_centers(digest, &mut run, backend, |_| container);
        run.centers = merge_center_sets(small_centers, large_centers);
        let label = "combined (in-transit, streamed)";
        finish(run, label, self.sim_seconds, backend, pool0)
    }

    /// Strategy 3 (co-scheduled variation): the simulation re-runs with an
    /// in-situ hook that emits a Level 2 file every `emit_every` steps; a
    /// listener submits a real analysis job (thread) per file while the
    /// simulation is still stepping.
    pub fn run_combined_coscheduled(
        &self,
        backend: &dyn Backend,
        emit_every: usize,
    ) -> WorkflowRun {
        use parking_lot::Mutex;

        let _span = telemetry::span!("runner", "combined_coscheduled");
        let pool0 = backend.pool_stats().unwrap_or_default();
        let mut run = WorkflowRun::default();
        let cfg = &self.cfg;
        let dir = cfg.workdir.join("coscheduled");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Visualization frames live in a subdirectory with their own suffix,
        // invisible to the `.hcio` listener sweep.
        let render_dir = dir.join("render");
        if cfg.render.is_some() {
            std::fs::create_dir_all(&render_dir).expect("mkdir render");
        }

        // The analysis-job launcher the listener drives: each file becomes a
        // center-finding job on `post_ranks` ranks.
        type JobResult = (PathBuf, Vec<CenterRecord>, f64);
        let results: Arc<Mutex<Vec<JobResult>>> = Arc::new(Mutex::new(Vec::new()));
        let handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&results);
        let h2 = Arc::clone(&handles);
        let post_ranks = cfg.post_ranks;
        let softening = cfg.softening;
        let fingerprint = cfg.fingerprint();
        // The listener consults the cache before submitting: a file whose
        // analysis artifact already exists and verifies is recorded as
        // handled without spawning a job (crash-restart and duplicate scans
        // never re-submit completed work). Each job that does run memoizes
        // its result, so the *next* co-scheduled run over identical Level 2
        // bytes skips it.
        let gate = cfg.cache.clone().map(|c| {
            CacheGate::new(move |p: &std::path::Path| {
                let Ok(digest) = cosmotools::file_digest(p) else {
                    return false;
                };
                c.contains_verified(CacheKey::compose("l2_centers", digest, fingerprint))
            })
        });
        let job_cache = cfg.cache.clone();
        let sim_start = Instant::now();
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                suffix: ".hcio".into(),
                cache_gate: gate,
                ..Default::default()
            },
            move |path| {
                let path = path.to_path_buf();
                let r3 = Arc::clone(&r2);
                let job_cache = job_cache.clone();
                let handle = std::thread::spawn(move || {
                    // Job start time in the shared epoch, before any work.
                    let started_at = sim_start.elapsed().as_secs_f64();
                    let bytes = std::fs::read(&path).expect("io");
                    let input_digest = cache::digest_bytes(&bytes);
                    let container = cosmotools::read_container(&bytes).expect("valid container");
                    let t_job = Instant::now();
                    let centers =
                        centers_over_ranks(&container, post_ranks, softening, &dpp::Serial);
                    let job_seconds = t_job.elapsed().as_secs_f64();
                    if let Some(c) = &job_cache {
                        let key = CacheKey::compose("l2_centers", input_digest, fingerprint);
                        c.insert(key, &encode_memo(job_seconds, &centers))
                            .expect("cache insert");
                    }
                    r3.lock().push((path, centers, started_at));
                });
                h2.lock().push(handle);
            },
        );

        // Re-run the simulation with the in-situ hook.
        let mut sim = Simulation::new(backend, cfg.sim.clone());
        let mut last_good: Option<PathBuf> = None;
        let mut small_centers: Vec<CenterRecord> = Vec::new();
        let mut emitted = 0usize;
        sim.run_with_hook(backend, |step, sim| {
            let last = step == sim.total_steps();
            // In-situ visualization: one frame per step, independent of the
            // Level-2 emit cadence. A memoized frame's encoded bytes replay
            // without touching the renderer, so warm re-runs recompute
            // nothing; rendering precedes the halo stage so an analysis
            // fault can never drop a frame.
            if let Some(rp) = cfg.render {
                let _render_span = telemetry::span!("render", "emit", step);
                let t_r = Instant::now();
                let frame_path = render_dir.join(format!("frame_step{step:04}.hcim"));
                let key = CacheKey::compose(
                    "render_frame",
                    cache::digest_bytes(&(step as u64).to_le_bytes()),
                    fingerprint,
                );
                let cached = cfg.cache.as_deref().and_then(|c| c.lookup(key));
                if let Some(bytes) = cached {
                    std::fs::write(&frame_path, &bytes).expect("write cached frame");
                    run.render_cache_hits += 1;
                    run.frames_rendered += 1;
                    run.render_bytes += bytes.len() as u64;
                    telemetry::count!("render", "cache_hits", 1);
                } else if cfg.consult_with_retry(RENDER_FAULT_SITE, &mut run.insitu_retries) {
                    let frame = cosmotools::render_frame(
                        backend,
                        sim.particles(),
                        cfg.sim.cosmology.box_size,
                        &rp,
                        step as u64,
                    );
                    let bytes = cosmotools::write_image(&frame);
                    std::fs::write(&frame_path, bytes.as_ref()).expect("write frame");
                    if let Some(c) = &cfg.cache {
                        c.insert(key, bytes.as_ref()).expect("cache insert");
                    }
                    run.frames_rendered += 1;
                    run.render_bytes += bytes.len() as u64;
                } else {
                    // This attempt loses the step's frame; a re-run recovers
                    // it (every earlier frame replays from the cache, and the
                    // injector's crash budget is spent).
                    run.degraded_steps += 1;
                    telemetry::count!("runner", "render_failures", 1);
                }
                run.render_seconds += t_r.elapsed().as_secs_f64();
            }
            if !(step % emit_every == 0 || last) {
                return;
            }
            let _step_span = telemetry::span!("runner", "in_situ_step", step);
            let path = dir.join(format!("l2_step{step:04}.hcio"));
            let meta = SnapshotMeta {
                step: step as u64,
                redshift: sim.redshift(),
                box_size: cfg.sim.cosmology.box_size,
            };
            emitted += 1;
            // Fault-aware in-situ stage: a transient failure retries under
            // the configured policy; a crash (or exhausted retries) degrades
            // gracefully — the last good Level-2 output is re-shipped for
            // off-line analysis instead, and the step is recorded as
            // degraded in the cost model's `fallback` phase.
            if !cfg.consult_with_retry(RUNNER_FAULT_SITE, &mut run.insitu_retries) {
                let tf = Instant::now();
                run.degraded_steps += 1;
                telemetry::count!("runner", "degraded_steps", 1);
                match &last_good {
                    Some(prev) => {
                        std::fs::copy(prev, &path).expect("fallback copy");
                    }
                    None => {
                        // Nothing good yet: an empty Level-2 container keeps
                        // the downstream pipeline shape intact.
                        let container = write_level2_container(&HaloCatalog::new(), meta);
                        cosmotools::write_file(&path, &container).expect("write fallback level 2");
                    }
                }
                run.phases.fallback += tf.elapsed().as_secs_f64();
                return;
            }
            let ta = Instant::now();
            let per_rank = cfg.distribute(sim.particles());
            let (catalogs, _) = cfg.analyze_ranks(&per_rank, cfg.threshold, backend);
            if last {
                small_centers = collect_centers(&catalogs);
            }
            let container = self.level2(catalogs, meta);
            run.phases.analysis += ta.elapsed().as_secs_f64();
            // Emit the Level 2 file at every analysis step (possibly empty —
            // the listener and downstream jobs handle that), exactly like
            // the per-timestep outputs of the paper's co-scheduled runs.
            cosmotools::write_file(&path, &container).expect("write level 2");
            last_good = Some(path);
        });
        // Simulation end in the same epoch as the job start times.
        let sim_end = sim_start.elapsed().as_secs_f64();

        // Main job done: stop the listener (final sweep) and join jobs.
        let report = listener.stop_report();
        for h in std::mem::take(&mut *handles.lock()) {
            h.join().expect("analysis job panicked");
        }
        let job_results = std::mem::take(&mut *results.lock());
        assert_eq!(
            report.submitted.len() + report.cache_skipped.len(),
            emitted,
            "every emitted file gets a job or a verified cache hit"
        );

        // Credit the cache hits: what each reused artifact cost when it was
        // first computed, read back from the memo payloads.
        let mut skipped_last_centers: Option<Vec<CenterRecord>> = None;
        let last_file = dir.join(format!("l2_step{:04}.hcio", cfg.sim.nsteps));
        if let Some(c) = &cfg.cache {
            for p in &report.cache_skipped {
                let Ok(digest) = cosmotools::file_digest(p) else {
                    continue;
                };
                if let Some((saved, centers)) = memo_lookup(c, cfg.cache_key("l2_centers", digest))
                {
                    run.saved_analysis_seconds += saved;
                    if *p == last_file {
                        skipped_last_centers = Some(centers);
                    }
                }
            }
            run.cache_misses = report.submitted.len() as u64;
        }
        run.cache_hits = report.cache_skipped.len() as u64;

        // Reconcile: the final step's large-halo centers + in-situ centers.
        // A gate-skipped final file takes its centers from the cache; if the
        // entry vanished between the gate and here (eviction, poisoning),
        // recompute — degrade to work, never to a wrong catalog.
        let large_centers = match job_results.iter().find(|(p, _, _)| *p == last_file) {
            Some((_, c, _)) => c.clone(),
            None if report.cache_skipped.contains(&last_file) => skipped_last_centers
                .unwrap_or_else(|| {
                    let container = cosmotools::read_file(&last_file)
                        .expect("io")
                        .expect("valid container");
                    centers_over_ranks(&container, post_ranks, softening, &dpp::Serial)
                }),
            None => Vec::new(),
        };
        run.overlapped_jobs = job_results
            .iter()
            .filter(|(_, _, started_at)| *started_at < sim_end)
            .count();
        run.centers = merge_center_sets(small_centers, large_centers);
        finish(run, "combined (co-scheduled)", sim_end, backend, pool0)
    }
}

/// One measured Table 2 row: per-rank analysis extremes at a given epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredEpoch {
    /// Step index.
    pub step: usize,
    /// Redshift.
    pub redshift: f64,
    /// Slowest rank's FOF seconds.
    pub find_max: f64,
    /// Fastest rank's FOF seconds.
    pub find_min: f64,
    /// Slowest rank's center seconds.
    pub center_max: f64,
    /// Fastest rank's center seconds.
    pub center_min: f64,
    /// Halos found at this epoch.
    pub n_halos: usize,
    /// Largest halo (particles).
    pub largest: usize,
}

/// The measured analog of the paper's Table 2: run the simulation once and
/// execute the full distributed halo analysis at each step in `at_steps`,
/// recording per-rank find/center extremes. Shows identification staying
/// balanced while center finding grows imbalanced as structure forms.
pub fn measured_table2(
    cfg: &RunnerConfig,
    backend: &dyn Backend,
    at_steps: &[usize],
) -> Vec<MeasuredEpoch> {
    let mut rows = Vec::new();
    let mut sim = Simulation::new(backend, cfg.sim.clone());
    sim.run_with_hook(backend, |step, sim| {
        if !at_steps.contains(&step) {
            return;
        }
        // Ranks are the parallelism; each rank analyzes serially.
        let per_rank = cfg.distribute(sim.particles());
        let (catalogs, timings) = cfg.analyze_ranks(&per_rank, usize::MAX, &dpp::Serial);
        let find = timings.iter().map(|t| t.find_seconds);
        let center = timings.iter().map(|t| t.center_seconds);
        rows.push(MeasuredEpoch {
            step,
            redshift: sim.redshift(),
            find_max: find.clone().fold(0.0f64, f64::max),
            find_min: find.fold(f64::INFINITY, f64::min),
            center_max: center.clone().fold(0.0f64, f64::max),
            center_min: center.fold(f64::INFINITY, f64::min),
            n_halos: catalogs.iter().map(|c| c.len()).sum(),
            largest: catalogs
                .iter()
                .flat_map(|c| c.halos.iter().map(|h| h.count()))
                .max()
                .unwrap_or(0),
        });
    });
    rows
}

/// Merge per-rank catalogs into one center list.
fn collect_centers(catalogs: &[HaloCatalog]) -> Vec<CenterRecord> {
    let mut out = Vec::new();
    for cat in catalogs {
        out.extend(centers_from_catalog(cat));
    }
    out.sort_by_key(|r| r.halo_id);
    out
}

/// Center every block of a Level 2 container (the small off-line or
/// co-scheduled job), sorted by halo id. The job's parallelism is the
/// `backend` the MBP searches run on; `post_ranks` does not split the work
/// and enters only the cache fingerprint (see [`RunnerConfig::post_ranks`]).
pub fn centers_over_ranks(
    container: &Container,
    post_ranks: usize,
    softening: f64,
    backend: &dyn Backend,
) -> Vec<CenterRecord> {
    let _ = post_ranks;
    let mut centers = centers_from_level2(backend, container, softening);
    centers.sort_by_key(|r| r.halo_id);
    centers
}

/// Run every strategy and verify they produce identical Level 3 outputs.
pub fn compare_all(cfg: RunnerConfig, backend: &dyn Backend) -> Vec<WorkflowRun> {
    let bed = TestBed::create(cfg, backend);
    let a = bed.run_in_situ_only(backend);
    let b = bed.run_offline_only(backend);
    let c = bed.run_combined_simple(backend);
    assert_same_centers(&a.centers, &b.centers);
    assert_same_centers(&a.centers, &c.centers);
    vec![a, b, c]
}

/// Every workflow must find the same halos with the same centers.
pub fn assert_same_centers(x: &[CenterRecord], y: &[CenterRecord]) {
    assert_eq!(x.len(), y.len(), "workflows disagree on halo count");
    for (a, b) in x.iter().zip(y) {
        assert_eq!(a.halo_id, b.halo_id, "halo sets differ");
        assert_eq!(a.count, b.count, "halo {} membership differs", a.halo_id);
        for d in 0..3 {
            assert!(
                (a.center[d] - b.center[d]).abs() < 1e-6,
                "halo {} center differs: {:?} vs {:?}",
                a.halo_id,
                a.center,
                b.center
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Threaded;

    fn tiny_cfg(name: &str) -> RunnerConfig {
        RunnerConfig {
            sim: SimConfig {
                np: 16,
                ng: 16,
                nsteps: 30,
                seed: 4242,
                ..SimConfig::default()
            },
            nranks: 4,
            post_ranks: 2,
            linking_length: 0.28,
            threshold: 60,
            min_size: 12,
            workdir: std::env::temp_dir()
                .join(format!("hacc_runner_test_{name}_{}", std::process::id())),
            ..Default::default()
        }
    }

    #[test]
    fn all_strategies_agree_on_level3_output() {
        let backend = Threaded::new(4);
        let runs = compare_all(tiny_cfg("agree"), &backend);
        assert_eq!(runs.len(), 3);
        // Some halos must actually exist for the comparison to mean anything.
        assert!(
            !runs[0].centers.is_empty(),
            "the toy run must form at least one halo"
        );
        // Off-line pays I/O + redistribution the in-situ run does not.
        assert_eq!(runs[0].phases.read, 0.0);
        assert!(runs[1].phases.read > 0.0);
        assert!(runs[1].phases.write > 0.0);
    }

    #[test]
    fn combined_produces_level2_file_only_for_large_halos() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("level2");
        let workdir = cfg.workdir.clone();
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_simple(&backend);
        let l2 = cosmotools::read_file(&workdir.join("level2.hcio"))
            .expect("io")
            .expect("valid");
        for block in &l2.blocks {
            assert!(
                block.len() > bed.cfg.threshold,
                "only large halos belong in Level 2"
            );
        }
        // Merged output covers every centered halo exactly once.
        let ids: Vec<u64> = run.centers.iter().map(|c| c.halo_id).collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
    }

    #[test]
    fn coscheduled_jobs_overlap_the_simulation() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("cosched");
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_coscheduled(&backend, 3);
        // Files were emitted during the run and analyzed by listener jobs;
        // at least one job must have started before the simulation ended
        // (the entire point of co-scheduling).
        assert!(
            run.overlapped_jobs >= 1,
            "no analysis job overlapped the simulation"
        );
        assert!(!run.centers.is_empty());
    }

    #[test]
    fn measured_table2_shows_growing_center_imbalance() {
        let backend = Threaded::new(4);
        let cfg = RunnerConfig {
            sim: SimConfig {
                np: 32,
                ng: 32,
                nsteps: 30,
                seed: 20150715,
                ..SimConfig::default()
            },
            nranks: 8,
            threshold: usize::MAX,
            min_size: 20,
            workdir: std::env::temp_dir()
                .join(format!("hacc_runner_test_t2_{}", std::process::id())),
            ..Default::default()
        };
        let rows = measured_table2(&cfg, &backend, &[20, 30]);
        assert_eq!(rows.len(), 2);
        // Redshift decreases across epochs; structure (largest halo) grows.
        assert!(rows[0].redshift > rows[1].redshift);
        assert!(rows[1].largest >= rows[0].largest);
        assert!(rows[1].n_halos > 0);
        // The z = 0 epoch: identification balanced, centers not (Table 2's
        // pattern — a toy box has few halos per rank, so the center spread
        // is extreme).
        let last = &rows[1];
        let find_ratio = last.find_max / last.find_min.max(1e-12);
        let center_ratio = last.center_max / last.center_min.max(1e-12);
        assert!(find_ratio < 3.0, "find imbalance {find_ratio}");
        assert!(
            center_ratio > find_ratio,
            "center ratio {center_ratio} must exceed find ratio {find_ratio}"
        );
    }

    #[test]
    fn intransit_matches_simple_combined_without_files() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("intransit");
        let bed = TestBed::create(cfg, &backend);
        let simple = bed.run_combined_simple(&backend);
        let transit = bed.run_combined_intransit(&backend);
        assert_same_centers(&simple.centers, &transit.centers);
        // No file I/O phases at all.
        assert_eq!(transit.phases.read, 0.0);
        assert_eq!(transit.phases.write, 0.0);
    }

    #[test]
    fn streamed_intransit_matches_simple_and_shares_the_memo() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("intransit_stream");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed = TestBed::create(cfg, &backend);
        let simple = bed.run_combined_simple(&backend);
        assert_eq!((simple.cache_hits, simple.cache_misses), (0, 1));
        // The streamed variation reassembles byte-identical Level 2, so it
        // reuses the simple variation's memoized center set — despite the
        // chunks having crossed a replicated store with one node killed.
        let streamed = bed.run_combined_intransit_streamed(&backend);
        assert_same_centers(&simple.centers, &streamed.centers);
        assert_eq!(
            (streamed.cache_hits, streamed.cache_misses),
            (1, 0),
            "streamed in-transit must share the whole-container artifact"
        );
        // No Level-2 file I/O phases.
        assert_eq!(streamed.phases.read, 0.0);
        assert_eq!(streamed.phases.write, 0.0);
    }

    #[test]
    fn coscheduled_final_centers_match_simple_combined() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("coschedmatch");
        let bed = TestBed::create(cfg, &backend);
        let simple = bed.run_combined_simple(&backend);
        let cosched = bed.run_combined_coscheduled(&backend, 4);
        assert_same_centers(&simple.centers, &cosched.centers);
    }

    #[test]
    fn pool_dispatch_totals_are_attributed_per_run() {
        let backend = Threaded::new(4);
        let bed = TestBed::create(tiny_cfg("pooldelta"), &backend);
        // The simulation in `create` already issued dispatches; the per-run
        // delta must count only the strategy's own.
        let run = bed.run_in_situ_only(&backend);
        assert!(run.pool_dispatches > 0, "analysis dispatches were counted");
        assert!(run.dispatch_overhead_seconds > 0.0);
        // A pool-less backend reports zero rather than another pool's totals.
        let serial = bed.run_in_situ_only(&dpp::Serial);
        assert_eq!(serial.pool_dispatches, 0);
        assert_eq!(serial.dispatch_overhead_seconds, 0.0);
    }

    #[test]
    fn warm_rerun_reuses_offline_artifacts_across_strategies() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("cachewarm");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed = TestBed::create(cfg, &backend);

        // Off-line: the second run answers the whole post job from cache.
        let cold = bed.run_offline_only(&backend);
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 1));
        assert!(cold.phases.analysis > 0.0);
        let warm = bed.run_offline_only(&backend);
        assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0));
        assert_eq!(warm.phases.analysis, 0.0, "no recompute on a warm run");
        assert_eq!(warm.phases.read, 0.0);
        assert!(warm.saved_analysis_seconds > 0.0);
        assert_same_centers(&cold.centers, &warm.centers);

        // Combined: the in-transit variation serializes identical Level 2
        // bytes, so it reuses the simple variation's artifact directly.
        let simple = bed.run_combined_simple(&backend);
        assert_eq!((simple.cache_hits, simple.cache_misses), (0, 1));
        let simple_warm = bed.run_combined_simple(&backend);
        assert_eq!((simple_warm.cache_hits, simple_warm.cache_misses), (1, 0));
        let transit = bed.run_combined_intransit(&backend);
        assert_eq!(
            (transit.cache_hits, transit.cache_misses),
            (1, 0),
            "in-transit must reuse the simple variation's Level 2 artifact"
        );
        assert_same_centers(&simple.centers, &transit.centers);

        // The survival is on disk, not in memory: a fresh handle over the
        // same directory still hits.
        let mut cfg2 = tiny_cfg("cachewarm");
        cfg2.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed2 = TestBed::create(cfg2, &backend);
        let reopened = bed2.run_offline_only(&backend);
        assert_eq!((reopened.cache_hits, reopened.cache_misses), (1, 0));
        assert_same_centers(&cold.centers, &reopened.centers);
    }

    #[test]
    fn coscheduled_warm_rerun_submits_no_jobs() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("cachecosched");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed = TestBed::create(cfg, &backend);
        let cold = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(cold.cache_hits, 0, "cold run has nothing to reuse");
        assert!(cold.cache_misses > 0);
        // The re-run emits byte-identical Level 2 files (same seed, same
        // analysis), so the listener's cache gate skips every submission.
        let warm = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(warm.cache_misses, 0, "warm re-run must submit zero jobs");
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert!(warm.saved_analysis_seconds > 0.0);
        assert_same_centers(&cold.centers, &warm.centers);
    }

    /// Transient faults at both retried sites, either absorbed by the retry
    /// policy or exhausting it. Each row schedules transient faults at exact
    /// hit indices of one site; with `emit_every = 4` the in-situ site is
    /// polled at steps 4, 8, 12, … and the render site once per step.
    #[test]
    fn transient_fault_retries_absorb_or_exhaust() {
        let backend = Threaded::new(4);
        let max = RunnerConfig::default().insitu_retry.max_attempts as u64;
        let hits = |r: std::ops::Range<u64>| r.collect::<Vec<u64>>();
        // (site, faulted hits, failing steps, render frames lost)
        let rows: [(&str, Vec<u64>, usize, bool); 4] = [
            // Absorbed: the first step fails twice, the third poll passes.
            (RUNNER_FAULT_SITE, hits(0..2), 0, false),
            (RENDER_FAULT_SITE, hits(0..2), 0, true),
            // Exhausted: step 4 fails with nothing shipped yet (an empty
            // container goes out), step 8 succeeds, step 12 fails and
            // re-ships step 8's file.
            (
                RUNNER_FAULT_SITE,
                [hits(0..max), hits(max + 1..2 * max + 1)].concat(),
                2,
                false,
            ),
            // Exhausted: step 1's frame is lost.
            (RENDER_FAULT_SITE, hits(0..max), 1, true),
        ];
        for (i, (site, at_hits, failing, render)) in rows.into_iter().enumerate() {
            let mut cfg = tiny_cfg(&format!("retry_table{i}"));
            if render {
                cfg.render = Some(cosmotools::RenderParams {
                    ng: 12,
                    ..Default::default()
                });
            }
            let nfaults = at_hits.len() as u64;
            cfg.injector = Some(
                faults::FaultPlan::new(11)
                    .with_site(faults::SiteSpec {
                        at_hits,
                        ..faults::SiteSpec::transient(site, 0.0)
                    })
                    .build(),
            );
            let bed = TestBed::create(cfg, &backend);
            let baseline = bed.run_combined_simple(&backend);
            let run = bed.run_combined_coscheduled(&backend, 4);
            let row = format!("row {i} ({site}, {failing} failing)");
            assert_eq!(run.degraded_steps, failing, "{row}");
            assert_eq!(run.insitu_retries, nfaults, "{row}: one retry per fault");
            if failing > 0 {
                assert_eq!(run.insitu_retries, failing as u64 * max, "{row}");
            }
            let dir = bed.cfg.workdir.join("coscheduled");
            if site == RUNNER_FAULT_SITE && failing > 0 {
                let l2 = |step: usize| std::fs::read(dir.join(format!("l2_step{step:04}.hcio")));
                let empty = cosmotools::read_file(&dir.join("l2_step0004.hcio"))
                    .expect("io")
                    .expect("valid container");
                assert!(empty.blocks.is_empty(), "{row}: empty container shipped");
                assert_eq!(
                    l2(12).unwrap(),
                    l2(8).unwrap(),
                    "{row}: last good re-shipped"
                );
            }
            if render {
                let total = bed.cfg.sim.nsteps as u64;
                assert_eq!(run.frames_rendered, total - failing as u64, "{row}");
                let first = dir.join("render").join("frame_step0001.hcim");
                assert_eq!(first.exists(), failing == 0, "{row}: frame lost");
            }
            assert_same_centers(&baseline.centers, &run.centers);
        }
    }

    /// Read every frame file in a co-scheduled run's render directory as
    /// `(file name, encoded bytes)`, sorted by name.
    fn frame_catalog(workdir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let rdir = workdir.join("coscheduled").join("render");
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(&rdir)
            .expect("render dir exists")
            .map(|e| {
                let p = e.expect("dir entry").path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).expect("read frame"),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn coscheduled_render_emits_every_step_and_replays_warm() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("render_warm");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        cfg.render = Some(cosmotools::RenderParams {
            ng: 12,
            ..Default::default()
        });
        let bed = TestBed::create(cfg, &backend);
        let cold = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(
            cold.frames_rendered, bed.cfg.sim.nsteps as u64,
            "one frame per simulation step"
        );
        assert_eq!(cold.render_cache_hits, 0, "cold run has nothing to replay");
        assert!(cold.render_bytes > 0);
        assert!(cold.render_seconds > 0.0);
        let cold_frames = frame_catalog(&bed.cfg.workdir);
        assert_eq!(cold_frames.len() as u64, cold.frames_rendered);
        // Every emitted frame decodes as a valid HCIM image.
        for (name, bytes) in &cold_frames {
            let frame = cosmotools::read_image(bytes).expect("valid frame");
            assert_eq!(frame.width as usize, 12, "frame {name}");
        }
        // Warm re-run: every frame replays from the artifact cache, and the
        // recovered catalog is byte-identical.
        let warm = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(warm.frames_rendered, cold.frames_rendered);
        assert_eq!(
            warm.render_cache_hits, warm.frames_rendered,
            "warm re-run must recompute no frames"
        );
        assert_eq!(frame_catalog(&bed.cfg.workdir), cold_frames);
        // The render knob leaves the halo pipeline untouched.
        let baseline = bed.run_combined_simple(&backend);
        assert_same_centers(&baseline.centers, &warm.centers);
    }

    #[test]
    fn render_disabled_runs_exactly_as_before() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("render_off");
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(run.frames_rendered, 0);
        assert_eq!(run.render_bytes, 0);
        assert_eq!(run.render_seconds, 0.0);
        assert!(!bed.cfg.workdir.join("coscheduled").join("render").exists());
    }

    #[test]
    fn render_fingerprints_are_disjoint_per_parameter_set() {
        let base = tiny_cfg("render_fp");
        let mut with_render = base.clone();
        with_render.render = Some(cosmotools::RenderParams::default());
        let mut other_axis = with_render.clone();
        other_axis.render = Some(cosmotools::RenderParams {
            axis: cosmotools::Axis::X,
            ..cosmotools::RenderParams::default()
        });
        assert_ne!(base.fingerprint(), with_render.fingerprint());
        assert_ne!(with_render.fingerprint(), other_axis.fingerprint());
    }

    #[test]
    fn crashed_render_step_loses_one_frame_and_rerun_recovers_it() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("render_crash");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        cfg.render = Some(cosmotools::RenderParams {
            ng: 12,
            ..Default::default()
        });
        cfg.injector = Some(
            faults::FaultPlan::new(9)
                .with_site(faults::SiteSpec::crash_at(RENDER_FAULT_SITE, 3))
                .build(),
        );
        let bed = TestBed::create(cfg, &backend);
        let crashed = bed.run_combined_coscheduled(&backend, 4);
        let total = bed.cfg.sim.nsteps as u64;
        assert_eq!(crashed.frames_rendered, total - 1, "one frame was lost");
        assert_eq!(crashed.degraded_steps, 1);
        // The crash budget is spent; the re-run replays every survivor from
        // the cache and computes only the one missing frame.
        let recovered = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(recovered.frames_rendered, total);
        assert_eq!(recovered.render_cache_hits, total - 1);
        assert_eq!(recovered.degraded_steps, 0);
        assert_eq!(frame_catalog(&bed.cfg.workdir).len() as u64, total);
    }

    #[test]
    fn crashed_insitu_step_degrades_to_last_good_output() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("insitu_crash");
        // The second analysis step's in-situ stage crashes outright.
        cfg.injector = Some(
            faults::FaultPlan::new(5)
                .with_site(faults::SiteSpec::crash_at(RUNNER_FAULT_SITE, 2))
                .build(),
        );
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(run.degraded_steps, 1, "one step fell back");
        assert!(
            run.phases.fallback > 0.0,
            "degradation must be charged to the fallback phase"
        );
        // The workflow still completes with a full catalog: the final step
        // is unaffected, so Level 3 output matches the fault-free runs.
        let baseline = bed.run_combined_simple(&backend);
        assert_same_centers(&baseline.centers, &run.centers);
    }
}
