//! Execute one (scenario, seed) pair on the virtual clock.
//!
//! Each run projects the campaign's phase costs through the Titan-frame
//! model, then drives the whole job stream — the simulation job, the
//! strategy-dependent analysis jobs, and a seeded background mix — through a
//! [`simhpc::BatchSimulator`] under the scenario's queue discipline and
//! fault plan. Everything is deterministic per (scenario, seed).

use crate::grammar::{FaultPlanKind, MachineKind, Scenario, SchedulerKind, Strategy, WorkloadKind};
use crate::workload::{self, Workload};
use faults::{BackoffPolicy, FaultPlan, SiteSpec};
use hacc_core::cost::WorkflowCost;
use hacc_core::model::{RenderProfile, TitanFrame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simhpc::{
    machine, BatchSimulator, JobRequest, MachineSpec, QosClass, QueuePolicy, SCHEDULER_FAULT_SITE,
};

/// Facilities are capped at this many nodes on the virtual clock — large
/// enough for real queue contention, small enough that a 1000-run sweep
/// stays instant (the same cap `campaign_mean_result_time` uses).
const NODE_CAP: usize = 2_048;

/// Image edge (pixels) of the per-step density projection when the
/// scenario's workload is [`WorkloadKind::Render`].
const RENDER_NG: usize = 512;

/// Simulation steps — and therefore rendered frames — per snapshot under
/// the render workload.
const RENDER_STEPS_PER_SNAPSHOT: u64 = 50;

impl MachineKind {
    /// The `simhpc` machine preset, capped at `NODE_CAP` nodes.
    pub fn spec(self) -> MachineSpec {
        let mut m = match self {
            MachineKind::Titan => machine::titan(),
            MachineKind::TitanBb => machine::titan_with_burst_buffer(),
            MachineKind::Rhea => machine::rhea(),
            MachineKind::Moonlight => machine::moonlight(),
        };
        m.total_nodes = m.total_nodes.min(NODE_CAP);
        m
    }
}

impl SchedulerKind {
    /// The queue policy for this discipline. Synthetic base waits are zeroed
    /// everywhere so queueing emerges from simulated contention, not from
    /// the calibration constant — the Titan policy keeps its largest-first
    /// ordering and two-small-jobs cap, which is what the paper fought.
    pub fn policy(self) -> QueuePolicy {
        match self {
            SchedulerKind::TitanPolicy => {
                let mut p = QueuePolicy::titan();
                p.base_wait = 0.0;
                p
            }
            SchedulerKind::Fcfs => QueuePolicy::ideal(),
            SchedulerKind::Easy => QueuePolicy::easy(),
            SchedulerKind::Conservative => QueuePolicy::conservative(),
            SchedulerKind::PriorityQos => QueuePolicy::priority_qos(),
            SchedulerKind::FairShare => QueuePolicy::fair_share(),
        }
    }
}

impl FaultPlanKind {
    /// Transient-failure probability at the scheduler fault site.
    fn probability(self) -> f64 {
        match self {
            FaultPlanKind::None => 0.0,
            FaultPlanKind::Transient => 0.12,
            FaultPlanKind::Storm => 0.30,
        }
    }
}

/// Per-run metric vector. Field order matches [`METRIC_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Last completion among the science jobs (seconds from campaign start).
    pub makespan_seconds: f64,
    /// Mean completion time of the analysis results — the paper's
    /// time-to-science.
    pub mean_result_seconds: f64,
    /// Mean queue wait over every completed job (background included).
    pub mean_wait_seconds: f64,
    /// 95th-percentile queue-wait bucket bound.
    pub p95_wait_seconds: f64,
    /// Busy node-seconds over machine capacity × makespan.
    pub utilization: f64,
    /// Projected analysis core-hours (Table 3 convention).
    pub analysis_core_hours: f64,
    /// Node-seconds burnt by failed or cancelled attempts.
    pub wasted_node_seconds: f64,
    /// Jobs that completed.
    pub completed_jobs: f64,
    /// Jobs that exhausted their retry budget.
    pub exhausted_jobs: f64,
}

/// Names of the metrics, in [`RunMetrics::values`] order.
pub const METRIC_NAMES: [&str; 9] = [
    "makespan_seconds",
    "mean_result_seconds",
    "mean_wait_seconds",
    "p95_wait_seconds",
    "utilization",
    "analysis_core_hours",
    "wasted_node_seconds",
    "completed_jobs",
    "exhausted_jobs",
];

impl RunMetrics {
    /// The metric vector, ordered like [`METRIC_NAMES`].
    pub fn values(&self) -> [f64; 9] {
        [
            self.makespan_seconds,
            self.mean_result_seconds,
            self.mean_wait_seconds,
            self.p95_wait_seconds,
            self.utilization,
            self.analysis_core_hours,
            self.wasted_node_seconds,
            self.completed_jobs,
            self.exhausted_jobs,
        ]
    }
}

/// Pick the scenario's workflow cost projection, adapting post-processing
/// kernel time when the analysis runs on a slower (or GPU-less) machine and
/// adding the per-step frame stream when the workload is visualization.
fn projected_cost(frame: &TitanFrame, w: &Workload, scenario: &Scenario) -> WorkflowCost {
    let all = frame.workflow_costs_all(&w.spec);
    let idx = match scenario.strategy {
        Strategy::InSitu => 0,
        Strategy::OffLine => 1,
        Strategy::Simple => 2,
        Strategy::CoScheduled => 3,
        // Streaming is a transport change, not a cost-table change: both
        // in-transit variants share the Table 3/4 projection.
        Strategy::InTransit | Strategy::InTransitStream => 4,
    };
    let mut cost = all.into_iter().nth(idx).expect("five strategies");
    let target = scenario.machine.spec();
    if scenario.workload == WorkloadKind::Render {
        // The render workload ships one image per simulation step off the
        // compute partition: bandwidth-bound time on the interconnect,
        // charged to the simulation job's write phase.
        let profile = RenderProfile::every_step(RENDER_NG, RENDER_STEPS_PER_SNAPSHOT);
        cost.simulation.phases.write += profile.stream_seconds(&target.net);
    }
    let speed_ratio = frame.titan.analysis_speed() / target.analysis_speed();
    if (speed_ratio - 1.0).abs() > 1e-9 {
        for post in &mut cost.post {
            post.machine = target.name.clone();
            post.charge_factor = target.charge_factor;
            post.phases.analysis *= speed_ratio;
        }
    }
    cost
}

/// Run one scenario under one seed and collect its metric vector.
pub fn execute(scenario: &Scenario, seed: u64) -> RunMetrics {
    let w = workload::synthesize(scenario.load, seed);
    let frame = TitanFrame::default();
    let cost = projected_cost(&frame, &w, scenario);

    let n_snaps = w.n_snapshots;
    // One snapshot's simulation job phases (queuing is zero by construction).
    let per_snap_sim = cost.simulation.phases.total();
    let sim_total = per_snap_sim * n_snaps as f64;
    // `PhaseSeconds::total()` already excludes queue wait, which the
    // simulator supplies for real.
    let (post_nodes, per_snap_post) = cost
        .post
        .first()
        .map(|p| (p.nodes, p.phases.total()))
        .unwrap_or((0, 0.0));

    let machine_spec = scenario.machine.spec();
    let total_nodes = machine_spec.total_nodes;
    let mut sim = BatchSimulator::new(machine_spec, scenario.scheduler.policy());
    if scenario.faults != FaultPlanKind::None {
        let injector = FaultPlan::new(seed)
            .with_site(SiteSpec::transient(
                SCHEDULER_FAULT_SITE,
                scenario.faults.probability(),
            ))
            .build();
        sim.inject_faults(
            injector,
            BackoffPolicy {
                base_seconds: 30.0,
                factor: 2.0,
                max_delay_seconds: 600.0,
                max_attempts: 4,
            },
        );
    }

    // The science campaign: simulation job plus strategy-dependent analysis.
    sim.submit(
        JobRequest::new("science-sim", w.spec.sim_nodes, sim_total, 0.0).with_qos(QosClass::Gold),
    );
    match scenario.strategy {
        Strategy::InSitu => {} // analysis rides inside the simulation job
        Strategy::OffLine => {
            // One full-width post job over the whole campaign, queued once
            // the Level 1 data is all on disk.
            sim.submit(
                JobRequest::new(
                    "science-post",
                    post_nodes,
                    per_snap_post * n_snaps as f64,
                    sim_total,
                )
                .with_qos(QosClass::Gold),
            );
        }
        Strategy::Simple => {
            for i in 0..n_snaps {
                sim.submit(
                    JobRequest::new(
                        format!("science-post{i}"),
                        post_nodes,
                        per_snap_post,
                        sim_total,
                    )
                    .with_qos(QosClass::Gold),
                );
            }
        }
        Strategy::CoScheduled | Strategy::InTransit => {
            for i in 0..n_snaps {
                let ready = per_snap_sim * (i as f64 + 1.0);
                sim.submit(
                    JobRequest::new(format!("science-post{i}"), post_nodes, per_snap_post, ready)
                        .with_qos(QosClass::Gold),
                );
            }
        }
        Strategy::InTransitStream => {
            // Chunks stream into the store as they are produced, so a post
            // job is admissible once the bulk of its snapshot's chunks are
            // published — halfway through the producing step — instead of
            // waiting for the whole file.
            for i in 0..n_snaps {
                let ready = per_snap_sim * (i as f64 + 0.5);
                sim.submit(
                    JobRequest::new(format!("science-post{i}"), post_nodes, per_snap_post, ready)
                        .with_qos(QosClass::Gold),
                );
            }
        }
    }

    // The competing background mix (seeded separately from the halo
    // population so the two samplings cannot alias).
    let horizon = sim_total + per_snap_post * n_snaps as f64 + 600.0;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB5C0_FBCF_A390_21D3);
    for job in workload::background_jobs(&w, total_nodes, horizon, &mut rng) {
        sim.submit(job);
    }

    let recs = sim.run_to_completion();
    let science: Vec<_> = recs
        .iter()
        .filter(|r| r.name.starts_with("science"))
        .collect();
    let sim_end = science
        .iter()
        .find(|r| r.name == "science-sim")
        .map(|r| r.end_time);
    let result_times: Vec<f64> = if scenario.strategy == Strategy::InSitu {
        sim_end.into_iter().collect()
    } else {
        science
            .iter()
            .filter(|r| r.name.starts_with("science-post"))
            .map(|r| r.end_time)
            .collect()
    };
    let makespan = science
        .iter()
        .map(|r| r.end_time)
        .fold(0.0, f64::max)
        .max(sim_end.unwrap_or(0.0));
    let mean_result = if result_times.is_empty() {
        // Every analysis attempt exhausted (fault storm): time-to-science is
        // the end of whatever science survived.
        makespan
    } else {
        result_times.iter().sum::<f64>() / result_times.len() as f64
    };

    let m = sim.queue_metrics();
    RunMetrics {
        makespan_seconds: makespan,
        mean_result_seconds: mean_result,
        mean_wait_seconds: m.mean_wait_seconds(),
        p95_wait_seconds: m.wait_quantile_bound(0.95) as f64,
        utilization: m.utilization(),
        analysis_core_hours: cost.analysis_core_hours(),
        wasted_node_seconds: m.wasted_node_seconds,
        completed_jobs: m.completed as f64,
        exhausted_jobs: m.exhausted as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{LoadRegime, MachineKind};

    fn scenario(strategy: Strategy, scheduler: SchedulerKind) -> Scenario {
        Scenario {
            machine: MachineKind::Titan,
            load: LoadRegime::Light,
            workload: WorkloadKind::Halos,
            strategy,
            faults: FaultPlanKind::None,
            scheduler,
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let s = scenario(Strategy::CoScheduled, SchedulerKind::Easy);
        assert_eq!(execute(&s, 11), execute(&s, 11));
        assert_ne!(
            execute(&s, 11).makespan_seconds,
            execute(&s, 12).makespan_seconds
        );
    }

    #[test]
    fn co_scheduling_beats_simple_on_time_to_science() {
        let cosched = execute(&scenario(Strategy::CoScheduled, SchedulerKind::Easy), 5);
        let simple = execute(&scenario(Strategy::Simple, SchedulerKind::Easy), 5);
        assert!(
            cosched.mean_result_seconds < simple.mean_result_seconds,
            "co-scheduled {} vs simple {}",
            cosched.mean_result_seconds,
            simple.mean_result_seconds
        );
    }

    #[test]
    fn every_strategy_and_discipline_produces_finite_metrics() {
        for &strategy in crate::grammar::Strategy::ALL {
            for &scheduler in crate::grammar::SchedulerKind::ALL {
                let m = execute(&scenario(strategy, scheduler), 3);
                for (name, v) in METRIC_NAMES.iter().zip(m.values()) {
                    assert!(v.is_finite(), "{strategy:?}/{scheduler:?} {name} = {v}");
                    assert!(v >= 0.0, "{strategy:?}/{scheduler:?} {name} = {v}");
                }
                assert!(m.makespan_seconds > 0.0);
                assert!(m.completed_jobs > 0.0);
            }
        }
    }

    #[test]
    fn faults_waste_node_seconds() {
        let quiet = execute(&scenario(Strategy::Simple, SchedulerKind::Easy), 9);
        let mut stormy = scenario(Strategy::Simple, SchedulerKind::Easy);
        stormy.faults = FaultPlanKind::Storm;
        let storm = execute(&stormy, 9);
        assert_eq!(quiet.wasted_node_seconds, 0.0);
        assert!(storm.wasted_node_seconds > 0.0);
    }

    #[test]
    fn render_workload_pays_for_the_frame_stream() {
        let halos = scenario(Strategy::CoScheduled, SchedulerKind::Easy);
        let mut render = halos;
        render.workload = WorkloadKind::Render;
        let h = execute(&halos, 7);
        let r = execute(&render, 7);
        // Same jobs, same queue, but every simulation step also streams a
        // frame across the interconnect — the campaign must take longer.
        assert!(
            r.makespan_seconds > h.makespan_seconds,
            "render {} vs halos {}",
            r.makespan_seconds,
            h.makespan_seconds
        );
        assert!(r.mean_result_seconds > h.mean_result_seconds);
        // The write phase is charged as analysis output (Table 3
        // convention), so the frame stream shows up in core-hours too.
        assert!(r.analysis_core_hours > h.analysis_core_hours);
    }

    #[test]
    fn slower_analysis_machines_cost_more_kernel_time() {
        let mut on_moonlight = scenario(Strategy::Simple, SchedulerKind::Fcfs);
        on_moonlight.machine = MachineKind::Moonlight;
        let titan = execute(&scenario(Strategy::Simple, SchedulerKind::Fcfs), 4);
        let moon = execute(&on_moonlight, 4);
        assert!(moon.makespan_seconds > titan.makespan_seconds);
    }
}
