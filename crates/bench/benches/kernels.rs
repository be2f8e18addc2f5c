//! Kernel microbenchmarks for the substrates: FFT, CIC deposit, power
//! spectrum, k-d tree construction/queries, the message-passing layer, and
//! the batch-queue simulator — plus the **layout trajectory**: self-timed
//! before/after measurements of every kernel rewritten for the SoA/column
//! layout, written to `BENCH_kernels.json` when `BENCH_KERNELS_JSON=<path>`
//! is set (`just bench-kernels`). `BENCH_QUICK=1` trims repetitions and
//! problem sizes for the CI regression gate (`bench_check`).

use bench::{blob, snapshot_32};
use comm::World;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpp::{ops, Serial, Threaded};
use fft::{Complex, Fft3d, Grid3};
use halo::Coords;
use nbody::ParticleSoA;
use simhpc::{machine, BatchSimulator, JobRequest, QueuePolicy};
use std::time::Instant;

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(300))
}

fn bench_fft(c: &mut Criterion) {
    let threaded = Threaded::with_available_parallelism();
    let dims = [64, 64, 64];
    let plan = Fft3d::new(dims).unwrap();
    let data: Vec<Complex> = (0..dims.iter().product::<usize>())
        .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
        .collect();
    c.bench_function("fft3d_64_roundtrip_threaded", |b| {
        b.iter(|| {
            let mut g = Grid3::from_vec(dims, data.clone());
            plan.forward(&threaded, &mut g).unwrap();
            plan.inverse(&threaded, &mut g).unwrap();
            g
        })
    });
}

fn bench_cic_and_power(c: &mut Criterion) {
    let threaded = Threaded::with_available_parallelism();
    let (particles, box_size) = snapshot_32();
    c.bench_function("cic_deposit_32k_particles", |b| {
        b.iter(|| nbody::cic_deposit(&threaded, particles, 32, *box_size))
    });
    c.bench_function("power_spectrum_32", |b| {
        b.iter(|| cosmotools::compute_power_spectrum(&threaded, particles, 32, *box_size, 16))
    });
}

fn bench_kdtree(c: &mut Criterion) {
    let parts = blob([0.0; 3], 20_000, 50.0, 0);
    let coords = Coords::from_particles(&parts);
    c.bench_function("kdtree_build_20k", |b| {
        b.iter(|| halo::KdTree::build(&coords, None))
    });
    let tree = halo::KdTree::build(&coords, None);
    c.bench_function("kdtree_knn_20k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in (0..coords.len()).step_by(100) {
                acc += tree.k_nearest(&coords, coords.get(i), 24).len();
            }
            acc
        })
    });
}

fn bench_comm(c: &mut Criterion) {
    c.bench_function("comm_allreduce_8_ranks", |b| {
        b.iter(|| {
            let world = World::new(8);
            world.run(|comm| comm.allreduce_sum_f64(comm.rank() as f64))
        })
    });
    c.bench_function("comm_alltoallv_8_ranks_64k", |b| {
        b.iter(|| {
            let world = World::new(8);
            world.run(|comm| {
                let sends: Vec<Vec<u64>> = (0..8).map(|d| vec![d as u64; 8192]).collect();
                comm.alltoallv(sends).len()
            })
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("batch_simulator_1000_jobs", |b| {
        b.iter(|| {
            let mut m = machine::titan();
            m.total_nodes = 1024;
            let mut policy = QueuePolicy::titan();
            policy.base_wait = 0.0;
            let mut sim = BatchSimulator::new(m, policy);
            for i in 0..1000 {
                sim.submit(JobRequest::new(
                    format!("j{i}"),
                    1 + (i * 37) % 200,
                    10.0 + (i % 17) as f64,
                    (i / 4) as f64,
                ));
            }
            sim.run_to_completion().len()
        })
    });
}

// ---------------------------------------------------------------------------
// Layout trajectory: row/scalar reference vs SoA/column rewrite, self-timed
// ---------------------------------------------------------------------------

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Minimum wall time over `reps` calls, in milliseconds. The minimum (not
/// the mean) is the standard microbenchmark statistic for a deterministic
/// kernel: every source of noise only adds time.
fn time_ms<T, F: FnMut() -> T>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct KernelRow {
    kernel: &'static str,
    n: usize,
    before_ms: f64,
    after_ms: f64,
}

fn trajectory_rows(quick: bool) -> Vec<KernelRow> {
    let reps = if quick { 2 } else { 5 };
    let mut rows = Vec::new();

    // CIC deposit at the paper's 128³ particle scale. Each kernel runs on
    // its native layout (the AoS→SoA conversion is a one-time migration
    // cost at store creation, not a per-deposit cost — timing it here would
    // measure the allocator, not the kernel). The mesh is 64³ so the local
    // grid stays cache-resident and the measurement tracks the rewritten
    // transform path; on a 128³ mesh both layouts converge on DRAM scatter
    // latency and the ratio measures the memory system instead.
    {
        let n = if quick { 1 << 18 } else { 128 * 128 * 128 };
        let parts = blob([64.0; 3], n, 120.0, 0);
        let soa = ParticleSoA::from_aos(&parts);
        let ng = 64;
        let before = time_ms(reps, || nbody::cic_deposit(&Serial, &parts, ng, 128.0));
        let after = time_ms(reps, || nbody::cic_deposit_soa(&Serial, &soa, ng, 128.0));
        rows.push(KernelRow {
            kernel: "cic",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    // FOF over a clustered cloud: the row traversal kept as the conformance
    // reference vs the production packed-leaf-lane engine.
    {
        let n = if quick { 20_000 } else { 60_000 };
        let mut positions: Vec<[f64; 3]> = Vec::with_capacity(n);
        for (i, c) in [[10.0; 3], [30.0, 12.0, 40.0], [44.0, 44.0, 8.0]]
            .iter()
            .enumerate()
        {
            positions.extend(
                blob(*c, n / 3, 12.0, (i * n) as u64)
                    .iter()
                    .map(|p| p.pos_f64()),
            );
        }
        let cols = Coords::from_rows(&positions);
        let link = 0.4;
        let before = time_ms(reps, || {
            conformance::reference::fof_kdtree_rows(&positions, link)
        });
        let after = time_ms(reps, || halo::fof_kdtree(&cols, link));
        rows.push(KernelRow {
            kernel: "fof",
            n: positions.len(),
            before_ms: before,
            after_ms: after,
        });
    }

    // MBP potential sums: O(n²), so this runs at halo scale, not box scale.
    {
        let n = if quick { 4_096 } else { 16_384 };
        let parts = blob([0.0; 3], n, 3.0, 7);
        let coords = Coords::from_particles(&parts);
        let masses: Vec<f64> = parts.iter().map(|p| p.mass as f64).collect();
        let soft = 1e-3;
        let mreps = if quick { 1 } else { 3 };
        let before = time_ms(mreps, || {
            let idx: Vec<usize> = (0..parts.len()).collect();
            let pots = ops::map(&Serial, &idx, |&i| halo::mbp::potential_of(&parts, i, soft));
            ops::argmin_by(&Serial, &pots, |&p| p)
        });
        let after = time_ms(mreps, || {
            halo::mbp_brute_cols(&Serial, &coords, &masses, soft)
        });
        rows.push(KernelRow {
            kernel: "mbp",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    // Radix sort at 128³ keys: generic clone-based engine vs the
    // specialized flat-u64 engine.
    {
        let n = if quick { 1 << 18 } else { 128 * 128 * 128 };
        let keys: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let before = time_ms(reps, || {
            let mut v = keys.clone();
            ops::radix_sort_by_key(&Serial, &mut v, |&k| k);
            v
        });
        let after = time_ms(reps, || {
            let mut v = keys.clone();
            ops::radix_sort_u64(&Serial, &mut v);
            v
        });
        rows.push(KernelRow {
            kernel: "radix",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    // Histogram at 128³ values: scalar loop vs the two-phase blocked sweep.
    {
        let n = if quick { 1 << 18 } else { 128 * 128 * 128 };
        let values: Vec<f64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let before = time_ms(reps, || {
            // The pre-blocking scalar loop, inline as the reference.
            let (lo, width, nbins) = (0.0f64, 1.0 / 64.0, 64usize);
            let mut bins = vec![0u64; nbins];
            let mut skipped = 0u64;
            for &v in &values {
                if v.is_nan() {
                    skipped += 1;
                    continue;
                }
                let b = ((v - lo) / width).floor();
                let b = if b < 0.0 {
                    0
                } else if b as usize >= nbins {
                    nbins - 1
                } else {
                    b as usize
                };
                bins[b] += 1;
            }
            (bins, skipped)
        });
        let after = time_ms(reps, || {
            ops::histogram_counted(&Serial, &values, 0.0, 1.0, 64)
        });
        rows.push(KernelRow {
            kernel: "histogram",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    rows
}

/// Per-dispatch cost ladder around [`dpp::SMALL_N_THRESHOLD`]: a trivial
/// map at each n on Serial vs Threaded. Below the threshold the Threaded
/// dispatch runs inline (no pool), so its cost tracks Serial; above it the
/// pool round-trip appears. The committed JSON is the measurement that
/// justifies the threshold constant.
fn pool_ladder(quick: bool) -> Vec<(usize, f64, f64)> {
    let reps = if quick { 200 } else { 2000 };
    let threaded = Threaded::with_available_parallelism();
    let mut out = Vec::new();
    for n in [256usize, 512, 1024, 2048, 2304, 4096, 8192, 16_384] {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let serial_us = {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(ops::map(&Serial, &xs, |x| x + 1.0));
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        };
        let threaded_us = {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(ops::map(&threaded, &xs, |x| x + 1.0));
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        };
        out.push((n, serial_us, threaded_us));
    }
    out
}

fn bench_layout_trajectory(_c: &mut Criterion) {
    let quick = quick_mode();
    let rows = trajectory_rows(quick);
    let ladder = pool_ladder(quick);
    let mode = if quick { "quick" } else { "full" };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench-kernels-v1\",\n");
    json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    json.push_str(&format!(
        "  \"small_n_threshold\": {},\n",
        dpp::SMALL_N_THRESHOLD
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.before_ms / r.after_ms;
        println!(
            "layout-trajectory/{}: n={} before={:.3}ms after={:.3}ms speedup={:.2}x",
            r.kernel, r.n, r.before_ms, r.after_ms, speedup
        );
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"before_ms\": {:.4}, \"after_ms\": {:.4}, \"speedup\": {:.4}}}{}\n",
            r.kernel,
            r.n,
            r.before_ms,
            r.after_ms,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"pool_small_n\": [\n");
    for (i, (n, s, t)) in ladder.iter().enumerate() {
        println!("pool-small-n/{n}: serial={s:.2}us threaded={t:.2}us");
        json.push_str(&format!(
            "    {{\"n\": {n}, \"serial_us\": {s:.3}, \"threaded_us\": {t:.3}}}{}\n",
            if i + 1 < ladder.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Ok(path) = std::env::var("BENCH_KERNELS_JSON") {
        std::fs::write(&path, &json).expect("write BENCH_KERNELS_JSON");
        println!("layout-trajectory: wrote {path}");
    }
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_fft, bench_cic_and_power, bench_kdtree, bench_comm, bench_scheduler,
        bench_layout_trajectory
}
criterion_main!(benches);
