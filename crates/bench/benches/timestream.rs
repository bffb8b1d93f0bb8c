//! Timestream substrate benches: ingest (dense vs change-point — the
//! DESIGN.md §5 storage ablation), range and limited queries, windowed aggregation,
//! and the durability path (WAL append + crash recovery).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spotlake_timestream::{
    recover, Aggregate, Database, Query, Record, TableOptions, Wal, WriteMode,
};

fn records(n: usize, changing: bool) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let value = if changing { (i % 7) as f64 } else { 3.0 };
            Record::new(i as u64 * 600, "sps", value)
                .dimension("instance_type", format!("m5.{}", i % 50))
                .dimension("az", format!("us-east-1{}", (b'a' + (i % 6) as u8) as char))
        })
        .collect()
}

fn ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("timestream_ingest");
    let batch = records(10_000, true);
    let steady = records(10_000, false);

    group.bench_function("dense_10k", |b| {
        b.iter_batched(
            || {
                let mut db = Database::new();
                db.create_table("t", TableOptions::default()).unwrap();
                db
            },
            |mut db| db.write("t", &batch).unwrap(),
            BatchSize::LargeInput,
        )
    });
    // Change-point mode on a barely-changing series: most writes skipped —
    // the storage ablation for the sticky price/advisor datasets.
    group.bench_function("changepoint_10k_steady", |b| {
        b.iter_batched(
            || {
                let mut db = Database::new();
                db.create_table(
                    "t",
                    TableOptions {
                        mode: WriteMode::ChangePoint,
                        retention: None,
                    },
                )
                .unwrap();
                db
            },
            |mut db| db.write("t", &steady).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn query(c: &mut Criterion) {
    let mut db = Database::new();
    db.create_table("t", TableOptions::default()).unwrap();
    db.write("t", &records(100_000, true)).unwrap();

    let mut group = c.benchmark_group("timestream_query");
    let q = Query::measure("sps").filter("instance_type", "m5.7");
    group.bench_function("filtered_scan", |b| b.iter(|| db.query("t", &q).unwrap()));
    group.bench_function("windowed_mean", |b| {
        b.iter(|| db.query_window("t", &q, 86_400, Aggregate::Mean).unwrap())
    });
    group.bench_function("latest", |b| b.iter(|| db.latest("t", &q).unwrap()));
    // Every series, capped at 10 rows: the merge stops at the limit, so
    // this prices one heap entry per series instead of every point.
    let unfiltered = Query::measure("sps").limit(10);
    group.bench_function("unfiltered_limit_10", |b| {
        b.iter(|| db.query("t", &unfiltered).unwrap())
    });
    // The profiled path tallies per-stage cost counters and records the
    // query histograms; benched against filtered_scan it bounds the
    // observability overhead on the hot read path.
    group.bench_function("filtered_scan_profiled", |b| {
        b.iter(|| {
            db.query_profiled("t", &q, spotlake_obs::QueryCtx::default())
                .unwrap()
        })
    });
    group.finish();
}

/// The durability tax and the recovery bill: one fsynced WAL append of a
/// 1k-record batch (what each committed dataset batch costs on top of
/// the in-memory write), and a full crash recovery replaying 20 such
/// frames from a cold directory.
fn durability(c: &mut Criterion) {
    let mut group = c.benchmark_group("timestream_durability");
    group.sample_size(20);
    let batch = records(1_000, true);
    let mut dir = std::env::temp_dir();
    dir.push(format!("spotlake-bench-wal-{}", std::process::id()));

    group.bench_function("wal_append_1k_fsync", |b| {
        b.iter_batched(
            || {
                std::fs::remove_dir_all(&dir).ok();
                Wal::open(&dir).unwrap()
            },
            |mut wal| {
                wal.append("t", TableOptions::default(), 1, &batch).unwrap();
                wal
            },
            BatchSize::LargeInput,
        )
    });

    std::fs::remove_dir_all(&dir).ok();
    let mut wal = Wal::open(&dir).unwrap();
    for tick in 1..=20u64 {
        wal.append("t", TableOptions::default(), tick, &batch)
            .unwrap();
    }
    drop(wal);
    group.bench_function("recover_20_frames_of_1k", |b| {
        b.iter(|| recover(&dir).unwrap())
    });
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

criterion_group!(benches, ingest, query, durability);
criterion_main!(benches);
