//! Criterion micro-benchmarks for the substrates: STM operations, sketch
//! updates, logger throughput. These complement the figure benches with
//! statistically rigorous per-operation numbers.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use streammine_common::rng::DetRng;
use streammine_sketch::{CountMinSketch, CountSketch};
use streammine_stm::{Serial, StmRuntime};
use streammine_storage::disk::DiskSpec;
use streammine_storage::log::StableLog;

fn bench_stm(c: &mut Criterion) {
    let mut group = c.benchmark_group("stm");
    group.bench_function("txn_rw_commit_1var", |b| {
        let rt = StmRuntime::new();
        let var = rt.new_var(0i64);
        let mut serial = 0u64;
        b.iter(|| {
            let (h, ()) = rt
                .execute(Serial(serial), |txn| txn.update(&var, |v| v + 1))
                .expect("not shut down");
            h.authorize();
            h.wait_committed();
            serial += 1;
        });
    });
    for vars in [8usize, 64] {
        group.bench_with_input(BenchmarkId::new("txn_rw_commit", vars), &vars, |b, &vars| {
            let rt = StmRuntime::new();
            let cells: Vec<_> = (0..vars).map(|_| rt.new_var(0i64)).collect();
            let mut serial = 0u64;
            b.iter(|| {
                let (h, ()) = rt
                    .execute(Serial(serial), |txn| {
                        for cell in &cells {
                            txn.update(cell, |v| v + 1)?;
                        }
                        Ok(())
                    })
                    .expect("not shut down");
                h.authorize();
                h.wait_committed();
                serial += 1;
            });
        });
    }
    group.finish();
}

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketch");
    group.bench_function("count_sketch_update", |b| {
        let mut cs = CountSketch::new(1024, 5, 1);
        let mut rng = DetRng::seed_from(2);
        b.iter(|| cs.update(rng.next_below(10_000), 1));
    });
    group.bench_function("count_sketch_estimate", |b| {
        let mut cs = CountSketch::new(1024, 5, 1);
        for k in 0..10_000u64 {
            cs.update(k % 997, 1);
        }
        let mut rng = DetRng::seed_from(3);
        b.iter(|| cs.estimate(rng.next_below(997)));
    });
    group.bench_function("count_min_update", |b| {
        let mut cm = CountMinSketch::new(1024, 4, 1);
        let mut rng = DetRng::seed_from(4);
        b.iter(|| cm.update(rng.next_below(10_000), 1));
    });
    group.finish();
}

fn bench_logger(c: &mut Criterion) {
    let mut group = c.benchmark_group("logger");
    group.sample_size(20);
    for devices in [1usize, 3] {
        group.bench_with_input(
            BenchmarkId::new("append_100_stable", devices),
            &devices,
            |b, &devices| {
                b.iter(|| {
                    let log = StableLog::new(vec![
                        DiskSpec::simulated(Duration::from_micros(100));
                        devices
                    ]);
                    let tickets: Vec<_> =
                        (0..100u64).map(|i| log.append(i.to_le_bytes())).collect();
                    for t in tickets {
                        t.wait();
                    }
                    log.shutdown();
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_stm, bench_sketch, bench_logger
}
criterion_main!(benches);
