//! Fleet scaling benchmark: wall-clock of a multi-plant campaign as the
//! fleet grows from 1 to 16 plants, at 1 thread vs a pooled thread
//! count — the speedup of the worker pool is the headline number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use temspc::{CalibrationConfig, DualMspc};
use temspc_fleet::{FleetConfig, FleetEngine};

fn quick_monitor() -> DualMspc {
    DualMspc::calibrate(&CalibrationConfig {
        runs: 2,
        duration_hours: 0.5,
        record_every: 10,
        base_seed: 100,
        threads: 0,
    })
    .unwrap()
}

fn fleet_config(plants: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        plants,
        threads,
        hours: 0.25,
        onset_hour: 0.05,
        attack_fraction: 0.25,
        fleet_seed: 7,
        checkpoint_every: 0,
        ..FleetConfig::default()
    }
}

fn bench_campaigns(c: &mut Criterion) {
    let monitor = quick_monitor();
    let mut group = c.benchmark_group("micro_fleet");
    group.sample_size(10);

    // Engines are built *outside* the timing loop: each holds its
    // persistent worker pool, so the iterations measure the steady-state
    // campaign cost a long-lived service pays — not thread spawning and
    // cold per-thread caches, which the old per-run pool re-paid every
    // iteration.
    for &plants in &[1usize, 2, 4, 8, 16] {
        let one_thread = FleetEngine::new(&monitor, fleet_config(plants, 1));
        group.bench_with_input(
            BenchmarkId::new("plants_1thread", plants),
            &plants,
            |b, _| b.iter(|| black_box(&one_thread).run().unwrap()),
        );
        let four_threads = FleetEngine::new(&monitor, fleet_config(plants, 4));
        group.bench_with_input(
            BenchmarkId::new("plants_4threads", plants),
            &plants,
            |b, _| b.iter(|| black_box(&four_threads).run().unwrap()),
        );
    }

    // The pooled calibration path vs the sequential one, same campaign.
    let calib = CalibrationConfig {
        runs: 4,
        duration_hours: 0.25,
        record_every: 10,
        base_seed: 500,
        threads: 4,
    };
    group.bench_function("calibration_sequential_4runs", |b| {
        b.iter(|| temspc::collect_calibration_data(black_box(&calib)).unwrap())
    });
    group.bench_function("calibration_pooled_4runs", |b| {
        b.iter(|| temspc_fleet::collect_calibration_data_pooled(black_box(&calib)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_campaigns);
criterion_main!(benches);
