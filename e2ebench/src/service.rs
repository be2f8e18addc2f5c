//! `service-openloop`: campaigns submitted to a [`WorkflowService`] on a
//! fixed schedule from one generator thread (open loop).
//!
//! A run is a sequence of short phases of [`PHASE_S`] seconds, each against
//! a fresh service. A service's registry and shard journals grow with every
//! campaign it has seen, and so does the cost of a submission, so fixing
//! the phase length and rate fixes the service age each campaign meets.
//! Phases at [`NOMINAL_RATE`] yield the latency and throughput figures.
//! Between them, probe phases climb [`LADDER`] and yield `sustained_per_s`:
//! the highest offered rate whose `latency_s.p90` stays within
//! [`P90_LIMIT_S`] with every campaign admitted and completed. The climb
//! stops at the first rate that misses.
//!
//! Latency runs from a campaign's *due* time, not from when the generator
//! got round to submitting it, to the generator observing `Completed`, so a
//! stalled generator shows up as latency; its lateness is reported too.

use crate::stats::{max, median, percentile, summary};
use crate::{timed, Ctx, Layers, Outcome};
use cosmotools::CenterRecord;
use hacc_core::service::{
    reference_catalog, CampaignId, CampaignReport, CampaignSpec, CampaignStatus, ServiceConfig,
    ServiceError, ServiceReport, WorkflowService,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Offered rate of the main phases, campaigns per second.
pub const NOMINAL_RATE: f64 = 50.0;
/// Offered rates of the probe phases, lowest first.
pub const LADDER: &[f64] = &[75.0, 150.0, 300.0];
/// Limit on `latency_s.p90` for a rate to count as sustained.
pub const P90_LIMIT_S: f64 = 0.25;
/// Length of every phase's submission schedule.
pub const PHASE_S: f64 = 1.5;
/// Share of the measured window given to main phases.
const NOMINAL_SHARE: f64 = 0.6;
/// How long past its last due time a phase waits for stragglers before
/// counting them as never completed.
const DRAIN_S: f64 = 3.0;
/// How often the generator polls outstanding campaigns' status. Between
/// polls it busy-waits rather than sleeps, so due times are met to the
/// microsecond and its own wake-ups do not depend on the scheduler.
const POLL: Duration = Duration::from_millis(1);

/// One campaign as the generator saw it.
struct Sent {
    spec: CampaignSpec,
    due: Instant,
    /// `None` when refused or not completed within the drain window.
    latency: Option<f64>,
}

/// Everything one phase measured.
struct Phase {
    setup_s: f64,
    wall_s: f64,
    warmup: CampaignSpec,
    sent: Vec<Sent>,
    refusals: u64,
    late: Vec<f64>,
    submit: Vec<f64>,
    report: ServiceReport,
    journal_bytes: u64,
    trace: Option<telemetry::Trace>,
}

impl Phase {
    /// Latencies, with a refused or unfinished campaign counted as the
    /// whole phase it waited through (it missed any limit).
    fn latencies(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.latency.unwrap_or(self.wall_s))
            .collect()
    }

    fn completed(&self) -> usize {
        self.sent.iter().filter(|s| s.latency.is_some()).count()
    }

    fn meets_limit(&self) -> bool {
        self.refusals == 0
            && self.completed() == self.sent.len()
            && percentile(&self.latencies(), 0.9) <= P90_LIMIT_S
    }

    /// From the first due time to the last completion.
    fn busy_s(&self) -> f64 {
        let first = self.sent.first().map(|s| s.due);
        let last = self
            .sent
            .iter()
            .filter_map(|s| s.latency.map(|l| s.due + Duration::from_secs_f64(l)))
            .max();
        match (first, last) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => self.wall_s,
        }
    }
}

/// The campaign specs of one phase. Seeds derive from the workload seed;
/// steps cycle through 2, 3 and 4, and whole-file and streamed campaigns
/// alternate, so every phase offers the same mix whatever the seed.
fn specs(seed: u64, phase: u64, n: usize) -> Vec<CampaignSpec> {
    (0..n as u64)
        .map(|i| {
            let s = crate::splitmix(seed ^ (phase << 40) ^ i);
            let name = format!("p{phase}-c{i}");
            let steps = 2 + (i % 3) as usize;
            if i % 2 == 1 {
                CampaignSpec::streamed(name, s, steps)
            } else {
                CampaignSpec::new(name, s, steps)
            }
        })
        .collect()
}

/// Run one phase: start a service under `root`, run a warm-up campaign
/// (set-up), then offer `rate` campaigns per second for [`PHASE_S`].
fn phase(root: &Path, workers: usize, rate: f64, seed: u64, index: u64, traced: bool) -> Phase {
    let mut cfg = ServiceConfig::new(root);
    cfg.shards = 2;
    cfg.pool_workers = workers;
    let warmup = CampaignSpec::new("warmup", crate::splitmix(seed ^ index), 2);
    let (svc, setup_s) = timed(|| {
        let svc = WorkflowService::start(cfg).expect("start service");
        let id = svc
            .submit_campaign(warmup.clone())
            .expect("warm-up admitted");
        svc.wait(id).expect("warm-up registered");
        svc
    });
    let tracer = crate::recorder(traced);

    let n = ((rate * PHASE_S).round() as usize).max(1);
    let mut specs = specs(seed, index, n).into_iter();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(2);
    let deadline = t0 + interval * n as u32 + Duration::from_secs_f64(DRAIN_S);
    let mut sent: Vec<Sent> = Vec::with_capacity(n);
    let mut outstanding: Vec<(CampaignId, usize)> = Vec::new();
    let (mut refusals, mut late, mut submit) = (0u64, Vec::new(), Vec::new());
    let mut next_poll = t0;
    loop {
        let now = Instant::now();
        let next_due = t0 + interval * sent.len() as u32;
        if sent.len() < n && now >= next_due {
            let spec = specs.next().expect("one spec per due time");
            late.push((now - next_due).as_secs_f64());
            let (res, secs) = timed(|| svc.submit_campaign(spec.clone()));
            submit.push(secs);
            match res {
                Ok(id) => outstanding.push((id, sent.len())),
                Err(ServiceError::Saturated { .. }) => refusals += 1,
                Err(e) => panic!("submission failed: {e}"),
            }
            sent.push(Sent {
                spec,
                due: next_due,
                latency: None,
            });
            continue;
        }
        if now >= next_poll {
            outstanding.retain(|&(id, k)| match svc.status(id) {
                Ok(CampaignStatus::Running) => true,
                Ok(CampaignStatus::Completed) => {
                    sent[k].latency = Some((now - sent[k].due).as_secs_f64());
                    false
                }
                _ => false,
            });
            if (sent.len() == n && outstanding.is_empty()) || now >= deadline {
                break;
            }
            next_poll = now + POLL;
        }
        std::hint::spin_loop();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let trace = tracer.map(|g| g.finish());
    let report = svc.shutdown();
    let journal_bytes = (0..2)
        .filter_map(|k| std::fs::metadata(root.join(format!("shard{k}.journal"))).ok())
        .map(|m| m.len())
        .sum();
    Phase {
        setup_s,
        wall_s,
        warmup,
        sent,
        refusals,
        late,
        submit,
        report,
        journal_bytes,
        trace,
    }
}

/// The centers of a catalog: its length-framed per-step payloads decoded.
fn catalog_centers(mut bytes: &[u8]) -> Vec<CenterRecord> {
    let mut out = Vec::new();
    while bytes.len() >= 8 {
        let len = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let Some(payload) = bytes.get(8..8 + len) else {
            break;
        };
        out.extend(cosmotools::decode_centers(payload).unwrap_or_default());
        bytes = &bytes[8 + len..];
    }
    out
}

/// Check every registered campaign of a phase, warm-up included: completed,
/// and its catalog byte-equal to `service::reference_catalog`. Returns
/// `(checked, wrong)`.
fn verify(p: &Phase) -> (u64, u64) {
    let specs = std::iter::once(&p.warmup).chain(p.sent.iter().map(|s| &s.spec));
    let (mut checked, mut wrong) = (0, 0);
    for spec in specs {
        let Some(c) = p.report.campaigns.values().find(|c| c.name == spec.name) else {
            continue; // refused: never registered
        };
        checked += 1;
        let ok = c.status == CampaignStatus::Completed
            && c.catalog.as_deref() == Some(reference_catalog(spec).as_slice());
        wrong += u64::from(!ok);
    }
    (checked, wrong)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mains = ((ctx.seconds * NOMINAL_SHARE / PHASE_S).round() as usize).max(1);
    let root = |name: String| ctx.workdir.join(name);
    let mut nominal: Vec<Phase> = Vec::new();
    let mut probes: Vec<(f64, Phase)> = Vec::new();
    let mut climbing = true;
    let mut index = 0u64;
    for i in 0..mains {
        index += 1;
        let p = phase(
            &root(format!("main{i}")),
            ctx.threads,
            NOMINAL_RATE,
            ctx.seed,
            index,
            ctx.trace,
        );
        climbing &= p.meets_limit();
        nominal.push(p);
        // One probe after each main phase while the climb lasts.
        if let Some(&rate) = LADDER.get(probes.len()).filter(|_| climbing) {
            index += 1;
            let p = phase(
                &root(format!("probe{i}")),
                ctx.threads,
                rate,
                ctx.seed,
                index,
                false,
            );
            climbing = p.meets_limit();
            println!(
                "probe {rate:>6.1}/s  p90 {:.4} s  refused {}  completed {}/{}  {}",
                percentile(&p.latencies(), 0.9),
                p.refusals,
                p.completed(),
                p.sent.len(),
                if climbing { "meets" } else { "misses" }
            );
            probes.push((rate, p));
        }
    }
    // Single-threaded baseline for `dpp.speedup_vs_serial`: one main phase
    // on a one-worker pool.
    let serial = ctx.trace.then(|| {
        phase(
            &root("serial".into()),
            1,
            NOMINAL_RATE,
            ctx.seed,
            999,
            false,
        )
    });

    // Verification (untimed). A refusal at the nominal rate is a failure;
    // on a probe it is the probe's answer (the rate is not sustained).
    for p in nominal.iter().chain(serial.iter()) {
        let (checked, wrong) = verify(p);
        out.attempted += checked + p.refusals;
        out.failed += wrong + p.refusals;
    }
    for (_, p) in &probes {
        let (checked, wrong) = verify(p);
        out.attempted += checked;
        out.failed += wrong;
    }

    let all = |f: &dyn Fn(&Phase) -> Vec<f64>| -> Vec<f64> { nominal.iter().flat_map(f).collect() };
    let lat = all(&|p| p.latencies());
    let late = all(&|p| p.late.clone());
    let submit = all(&|p| p.submit.clone());
    let busy: f64 = nominal.iter().map(Phase::busy_s).sum();
    let completed: usize = nominal.iter().map(Phase::completed).sum();
    let reports: Vec<&CampaignReport> = nominal
        .iter()
        .flat_map(|p| p.report.campaigns.values())
        .filter(|c| c.name != "warmup")
        .collect();
    let centers: Vec<CenterRecord> = reports
        .iter()
        .flat_map(|c| catalog_centers(c.catalog.as_deref().unwrap_or_default()))
        .collect();
    let particles: u64 = centers.iter().map(|c| c.count).sum();
    let sustained = if !nominal.iter().all(Phase::meets_limit) {
        0.0
    } else {
        probes
            .iter()
            .take_while(|(_, p)| p.meets_limit())
            .map(|(r, _)| *r)
            .fold(NOMINAL_RATE, f64::max)
    };
    println!("{}", summary("latency (from due)", &lat));
    println!("{}", summary("service.submit", &submit));
    println!("{}", summary("generator lateness", &late));
    println!(
        "offered {NOMINAL_RATE}/s in {mains} phases of {PHASE_S} s: {} sent, {completed} completed, \
         {} refused; p90 limit {P90_LIMIT_S} s; ladder {LADDER:?}",
        lat.len(),
        nominal.iter().map(|p| p.refusals).sum::<u64>(),
    );
    let setups: Vec<f64> = nominal.iter().map(|p| p.setup_s).collect();
    out.set("setup_s", median(&setups));
    out.set("latency_s.p50", median(&lat));
    out.set("latency_s.p90", percentile(&lat, 0.9));
    out.set("campaigns_per_s", completed as f64 / busy);
    out.set("particle_steps_per_s", particles as f64 / busy);
    out.set("sustained_per_s", sustained);

    let Some(serial) = serial else {
        return out;
    };
    // Per-layer numbers. Shares are of the summed main-phase latency; the
    // spans come from the traced build's recorder over the main phases.
    let mut l = Layers::default();
    let spans: Vec<telemetry::SpanRecord> = nominal
        .iter()
        .filter_map(|p| p.trace.as_ref())
        .flat_map(|t| t.spans())
        .collect();
    let secs = |pred: &dyn Fn(&telemetry::SpanRecord) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.dur as f64 * 1e-6)
            .sum()
    };
    let jobs: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.layer == "listener" && s.name == "submit")
        .map(|s| s.id)
        .collect();
    let analysis = secs(&|s| s.layer == "listener" && s.name == "submit");
    let store = secs(&|s| s.layer == "store" && !jobs.contains(&s.parent));
    let (late_s, submit_s): (f64, f64) = (late.iter().sum(), submit.iter().sum());
    l.add("service.submit_share", submit_s);
    l.add("post.centers_share", analysis);
    l.add("store.chunk_roundtrip_share", store);
    l.close_op(lat.iter().sum(), late_s + submit_s + analysis + store);
    l.finish(&mut out);

    let sum = |f: &dyn Fn(&CampaignReport) -> f64| reports.iter().map(|c| f(c)).sum::<f64>();
    let sum_phases = |f: &dyn Fn(&Phase) -> f64| nominal.iter().map(f).sum::<f64>();
    out.set("generator.late_s.max", max(&late));
    out.set(
        "listener.submitted",
        sum(&|c| c.listener.submitted.len() as f64),
    );
    out.set(
        "listener.cache_skipped",
        sum(&|c| c.listener.cache_skipped.len() as f64),
    );
    out.set(
        "listener.submit_retries",
        sum(&|c| c.listener.submit_retries as f64),
    );
    out.set("store.assembly_misses", sum(&|c| c.assembly_misses as f64));
    out.set("service.scans", sum_phases(&|p| p.report.scans as f64));
    out.set("service.steals", sum_phases(&|p| p.report.steals as f64));
    out.set(
        "service.refusals",
        sum_phases(&|p| p.refusals as f64)
            + probes.iter().map(|(_, p)| p.refusals as f64).sum::<f64>(),
    );
    out.set("journal.bytes", sum_phases(&|p| p.journal_bytes as f64));
    out.set("dpp.dispatches", sum(&|c| c.pool.dispatches as f64));
    out.set(
        "dpp.dispatch_s",
        sum(&|c| c.pool.total_dispatch_nanos as f64 * 1e-9),
    );
    out.set(
        "dpp.speedup_vs_serial",
        median(&serial.latencies()) / median(&lat),
    );
    out.set("halo.halos", centers.len() as f64);
    out
}
