//! The `ingest` workload: durable collection of the full catalog into a
//! sharded archive, starting from an empty directory.
//!
//! The measured run drives the product's own loop (`SimCloud::step`, then
//! `CollectorService::collect_round`) with the default flush policy: an
//! fsync per WAL frame and a checkpoint every 8 rounds. The traced run
//! rebuilds the same seeded rounds from the layer entry points — step,
//! the three dataset collectors, one `ShardedArchive::commit` per table,
//! then `ShardedArchive::maintain` — and times each call from outside.

use crate::recover;
use crate::report::Report;
use crate::stats::{self, Samples};
use crate::sys;
use crate::trace::Tracer;
use crate::Args;
use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_collector::{
    AccountPool, AdvisorCollector, CollectorConfig, CollectorService, PlannerStrategy,
    PriceCollector, QueryPlanner, SpsCollector, ADVISOR_TABLE, PRICE_TABLE, SPS_TABLE,
};
use spotlake_timestream::{
    fsck_shards, Database, ShardKey, ShardedArchive, TableOptions, TsError, WriteMode,
};
use spotlake_types::{Catalog, SimDuration};
use std::path::Path;
use std::time::{Duration, Instant};

/// The product's default checkpoint cadence, in rounds.
const CHECKPOINT_EVERY: u64 = 8;
/// Tail percentile reported as `op_tail_ms`.
pub const TAIL_PERCENTILE: f64 = 90.0;
/// Set-up is measured this many times at the start of the rounds and at
/// each checkpoint-cycle boundary. It takes tens of milliseconds, mostly
/// fsyncs, while the machine's disk and CPU speed drift over seconds, so
/// its median needs many samples spread over the whole run.
const SETUPS_PER_CYCLE: usize = 3;
/// How many times the traced run repeats planning and reopen; their
/// medians are reported.
const REPEATS: usize = 7;
/// Reopens of the finished archive, each in a fresh process. One takes a
/// third of a second while the machine's speed drifts over seconds, so
/// the median needs samples spread over several seconds.
const RECOVERS: usize = 17;
/// Stop issuing rounds after this long whatever else holds, so the run
/// ends well inside its time limit on a slow machine.
const HARD_STOP: Duration = Duration::from_secs(100);

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        tick: SimDuration::from_mins(30),
        ..SimConfig::with_seed(seed)
    }
}

fn durable_config(dir: &Path) -> CollectorConfig {
    CollectorConfig {
        wal_dir: Some(dir.to_owned()),
        shards: true,
        checkpoint_every: CHECKPOINT_EVERY,
        ..CollectorConfig::default()
    }
}

/// Fewest rounds that put at least ten samples beyond the tail
/// percentile, rounded up to whole checkpoint cycles so the one-in-8
/// checkpoint rounds hold the tail.
fn min_rounds() -> u64 {
    let n = stats::samples_for_tail(TAIL_PERCENTILE, 10) as u64;
    n.div_ceil(CHECKPOINT_EVERY) * CHECKPOINT_EVERY
}

/// What the measured run leaves for the traced run to compare against.
struct Untraced {
    rounds: u64,
    round_p50_ms: f64,
    records_written: usize,
}

/// Runs the workload and records its metrics into `report`.
pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let catalog = Catalog::aws_2022();
    let untraced = run_untraced(args, &catalog, work, report)?;
    if args.trace {
        run_traced(args, &catalog, work, &untraced, report)?;
    }
    Ok(())
}

fn run_untraced(
    args: &Args,
    catalog: &Catalog,
    work: &Path,
    report: &mut Report,
) -> Result<Untraced, String> {
    // Set-up: a ready service over an empty sharded archive (planning,
    // account assignment, shard creation), repeated for a steady median.
    let mut setup = Samples::new();
    let set_up = |setup: &mut Samples, name: String| -> Result<CollectorService, String> {
        let dir = work.join(name);
        let t0 = Instant::now();
        let s = CollectorService::new(catalog, durable_config(&dir)).map_err(|e| e.to_string())?;
        setup.push(t0.elapsed().as_secs_f64());
        Ok(s)
    };
    let mut service = set_up(&mut setup, "archive".to_owned())?;
    let dir = work.join("archive");
    let plan = service.plan_stats();
    report.info(format!(
        "ingest: full catalog, {} SPS queries per round, 30-minute tick, sharded archive \
         (fsync per WAL frame, checkpoint every {CHECKPOINT_EVERY} rounds)",
        plan.planned_queries
    ));

    let mut cloud = SimCloud::new(catalog.clone(), sim_config(args.seed));
    sys::reset_peak_rss().map_err(|e| format!("cannot reset peak RSS: {e}"))?;
    let min_rounds = min_rounds();
    let budget = Duration::from_secs(args.seconds);
    let mut rounds = Samples::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut records_written = 0usize;
    // Time spent on set-ups between rounds, left out of the throughput.
    let mut paused = Duration::ZERO;
    let ticks = sys::cpu_ticks().ok();
    let started = Instant::now();
    loop {
        let n = attempted;
        if n.is_multiple_of(CHECKPOINT_EVERY) {
            let t0 = Instant::now();
            for _ in 0..SETUPS_PER_CYCLE {
                let name = format!("setup-{}", setup.len());
                drop(set_up(&mut setup, name)?);
            }
            paused += t0.elapsed();
        }
        let elapsed = started.elapsed() - paused;
        let enough = n >= min_rounds && elapsed >= budget && n.is_multiple_of(CHECKPOINT_EVERY);
        if enough || elapsed >= HARD_STOP {
            break;
        }
        attempted += 1;
        let t0 = Instant::now();
        cloud.step();
        let result = service.collect_round(&cloud);
        rounds.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(r) => {
                records_written += r.stats.records_written;
                if r.health.is_degraded() || r.health.shards_failed > 0 {
                    failed += 1;
                }
            }
            Err(e) => {
                failed += 1;
                report.fail(format!("round {attempted} failed: {e}"));
                break;
            }
        }
    }
    let wall = (started.elapsed() - paused).as_secs_f64();
    if let (Some(before), Ok(after)) = (ticks, sys::cpu_ticks()) {
        report.info(format!(
            "host: {:.1}% of the machine's CPU time stolen by the hypervisor during the rounds",
            sys::steal_percent(before, after)
        ));
    }
    let peak_rss = sys::peak_rss_mb().map_err(|e| e.to_string())?;
    let acked = service.database().point_count();
    let wal = service.sharded_archive().map(|a| a.wal_stats());
    drop(service);

    let disk = sys::file_bytes(&dir, None).map_err(|e| e.to_string())?;
    let fsck = fsck_shards(&dir).map_err(|e| e.to_string())?;
    report.check(
        fsck.clean(),
        format!("fsck_shards: {} shards clean", fsck.rows.len()),
    );
    let mut recover = Samples::new();
    let mut reopened = Vec::new();
    for _ in 0..RECOVERS {
        let r = recover::reopen(
            recover::Archive::Sharded {
                checkpoint_every: CHECKPOINT_EVERY,
            },
            &dir,
        )?;
        recover.push(r.secs);
        reopened.push((r.points, r.healthy, r.total));
    }
    let bad: Vec<_> = reopened
        .iter()
        .filter(|&&(points, healthy, total)| points != acked || healthy != total)
        .collect();
    report.check(
        bad.is_empty(),
        format!(
            "{} of {RECOVERS} reopens yield the acked {acked} points with every shard healthy{}",
            RECOVERS - bad.len(),
            bad.first().map_or(String::new(), |(p, h, t)| format!(
                "; first bad reopen: {p} points, {h} of {t} shards healthy"
            ))
        ),
    );

    let n = rounds.len();
    report.attempted = attempted;
    report.failed = failed;
    if let Some(w) = &wal {
        report.info(format!(
            "archive: {acked} points, {disk} bytes on disk, {} WAL frames ({} bytes), {} checkpoints",
            w.frames_appended, w.bytes_appended, w.checkpoints
        ));
    }
    let p50 = rounds.median().unwrap_or(0.0);
    let tail = rounds.percentile(TAIL_PERCENTILE).unwrap_or(0.0);
    report.info(format!("end-to-end (untraced, {n} rounds):"));
    report.metric(
        "setup_s",
        setup.median().unwrap_or(0.0),
        "s",
        &format!(
            "median of {} CollectorService::new over an empty archive, {SETUPS_PER_CYCLE} at the \
             start and at each {CHECKPOINT_EVERY}-round boundary, outside the round timings; min {:.4} s, max {:.4} s",
            setup.len(),
            setup.percentile(0.0).unwrap_or(0.0),
            setup.percentile(100.0).unwrap_or(0.0)
        ),
    );
    report.metric(
        "throughput_ops_s",
        n as f64 / wall,
        "1/s",
        &format!("rounds per second over {wall:.1} s"),
    );
    report.metric("op_p50_ms", p50, "ms", &format!("round latency, n={n}"));
    report.metric(
        "op_tail_ms",
        tail,
        "ms",
        &format!(
            "p{TAIL_PERCENTILE}, {} of {n} rounds beyond it",
            stats::beyond(n, TAIL_PERCENTILE)
        ),
    );
    report.metric("peak_rss_mb", peak_rss, "MiB", "timed phase only");
    report.metric(
        "recover_s",
        recover.median().unwrap_or(0.0),
        "s",
        &format!(
            "median of {RECOVERS} ShardedArchive::open of the finished archive, each in a fresh \
             process; min {:.4} s, max {:.4} s",
            recover.percentile(0.0).unwrap_or(0.0),
            recover.percentile(100.0).unwrap_or(0.0)
        ),
    );
    report.metric(
        "disk_bytes_per_point",
        disk as f64 / acked.max(1) as f64,
        "bytes",
        "archive root bytes per stored point",
    );
    report.info(format!(
        "  failed_ratio = {} ratio  ({failed} degraded or failed rounds of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    Ok(Untraced {
        rounds: n as u64,
        round_p50_ms: p50,
        records_written,
    })
}

fn ensure_table(db: &mut Database, name: &str, mode: WriteMode) -> Result<(), TsError> {
    match db.create_table(
        name,
        TableOptions {
            mode,
            retention: None,
        },
    ) {
        Ok(()) | Err(TsError::TableExists(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Per-round timings of each layer in the composed round.
#[derive(Default)]
struct Layers {
    step: Samples,
    sps: Samples,
    advisor: Samples,
    price: Samples,
    commit: Samples,
    maintain: Samples,
    round: Samples,
    overhead: Samples,
    queries: Samples,
    records: Samples,
    frames: Samples,
}

fn run_traced(
    args: &Args,
    catalog: &Catalog,
    work: &Path,
    untraced: &Untraced,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut plan_ms = Samples::new();
    let planner = QueryPlanner::new(PlannerStrategy::default());
    let mut planned = None;
    for _ in 0..REPEATS {
        let span = tracer.begin(0, "collector.plan", None);
        let (plan, _) = planner.plan_with_stats(catalog, None);
        plan_ms.push(tracer.end(span));
        planned = Some(plan);
    }
    let plan = planned.ok_or("no plan")?;
    let pool = AccountPool::with_size(AccountPool::required_accounts(plan.len()));
    let mut sps = SpsCollector::new(plan, &pool, 1).map_err(|e| e.to_string())?;
    let mut advisor = AdvisorCollector::new();
    let mut price = PriceCollector::new();

    let dir = work.join("traced");
    let keys: Vec<ShardKey> = [SPS_TABLE, ADVISOR_TABLE, PRICE_TABLE]
        .iter()
        .flat_map(|t| catalog.regions().iter().map(|r| ShardKey::new(t, r.code())))
        .collect();
    let (mut archive, mut db) =
        ShardedArchive::open(&dir, &keys, CHECKPOINT_EVERY, None).map_err(|e| e.to_string())?;
    let modes = [
        (SPS_TABLE, WriteMode::Dense),
        (ADVISOR_TABLE, WriteMode::ChangePoint),
        (PRICE_TABLE, WriteMode::ChangePoint),
    ];
    for (table, mode) in modes {
        ensure_table(&mut db, table, mode).map_err(|e| e.to_string())?;
    }
    let max_attempts = spotlake_collector::RetryPolicy::default().max_attempts;
    let mut cloud = SimCloud::new(catalog.clone(), sim_config(args.seed));
    let mut l = Layers::default();
    let mut written_total = 0usize;
    let mut records_total = 0usize;
    let mut bytes_total = 0u64;
    let mut commit_failures = 0usize;

    for round in 1..=untraced.rounds {
        let root = tracer.begin(round, "round", None);
        let before = archive.wal_stats();

        let span = tracer.begin(round, "cloud-sim.step", Some(root));
        cloud.step();
        l.step.push(tracer.end(span));
        let tick = cloud.ticks();

        let span = tracer.begin(round, "collector.sps", Some(root));
        let sps_records = sps.collect(&cloud).map_err(|e| e.to_string())?;
        l.sps.push(tracer.end(span));
        let span = tracer.begin(round, "collector.advisor", Some(root));
        let advisor_records = advisor.collect(&cloud).map_err(|e| e.to_string())?;
        l.advisor.push(tracer.end(span));
        let span = tracer.begin(round, "collector.price", Some(root));
        let price_records = price.collect(&cloud).map_err(|e| e.to_string())?;
        l.price.push(tracer.end(span));

        let mut commit_ms = 0.0;
        let batches = [
            (SPS_TABLE, &sps_records),
            (ADVISOR_TABLE, &advisor_records),
            (PRICE_TABLE, &price_records),
        ];
        let mut records = 0;
        for (table, batch) in batches {
            let options = db.table(table).map_err(|e| e.to_string())?.options();
            let span = tracer.begin(round, "timestream.commit", Some(root));
            let out = archive.commit(&mut db, table, options, tick, batch, max_attempts);
            commit_ms += tracer.end(span);
            written_total += out.written;
            records += batch.len();
            commit_failures += out.failures.len();
        }
        l.commit.push(commit_ms);

        let span = tracer.begin(round, "timestream.maintain", Some(root));
        archive.maintain().map_err(|e| e.to_string())?;
        l.maintain.push(tracer.end(span));

        l.round.push(tracer.end(root));
        l.overhead.push(tracer.self_ms(root));
        let after = archive.wal_stats();
        l.queries.push(sps.query_count() as f64);
        l.records.push(records as f64);
        l.frames
            .push(after.frames_appended.saturating_sub(before.frames_appended) as f64);
        bytes_total += after.bytes_appended.saturating_sub(before.bytes_appended);
        records_total += records;
    }
    drop(archive);
    drop(db);
    let checkpoint_bytes =
        sys::file_bytes(&dir, Some("checkpoint.db")).map_err(|e| e.to_string())?;
    let mut recover = Samples::new();
    for _ in 0..REPEATS {
        let span = tracer.begin(0, "timestream.recover", None);
        let opened = ShardedArchive::open(&dir, &[], CHECKPOINT_EVERY, None);
        recover.push(tracer.end(span));
        opened.map_err(|e| e.to_string())?;
    }
    report.check(
        commit_failures == 0,
        format!("traced rounds: {commit_failures} shard commit failures"),
    );
    report.check(
        written_total == untraced.records_written,
        format!(
            "composed traced rounds store the untraced record count ({written_total} vs {})",
            untraced.records_written
        ),
    );

    let med = |s: &mut Samples| s.median().unwrap_or(0.0);
    let (step, sps_ms, adv_ms, price_ms) = (
        med(&mut l.step),
        med(&mut l.sps),
        med(&mut l.advisor),
        med(&mut l.price),
    );
    let (commit, maintain) = (med(&mut l.commit), med(&mut l.maintain));
    let composed = step + sps_ms + adv_ms + price_ms + commit + maintain;
    let service_self = untraced.round_p50_ms - composed;
    let n = l.round.len();
    report.info(format!(
        "per-layer (traced, {n} composed rounds; per-round medians):"
    ));
    report.metric("cloud-sim.step_ms", step, "ms", "SimCloud::step");
    report.metric(
        "collector.plan_ms",
        med(&mut plan_ms),
        "ms",
        &format!("QueryPlanner::plan_with_stats, median of {REPEATS}"),
    );
    report.metric("collector.sps_ms", sps_ms, "ms", "SpsCollector::collect");
    report.metric(
        "collector.advisor_ms",
        adv_ms,
        "ms",
        "AdvisorCollector::collect",
    );
    report.metric(
        "collector.price_ms",
        price_ms,
        "ms",
        "PriceCollector::collect",
    );
    report.metric(
        "collector.queries_per_round",
        med(&mut l.queries),
        "count",
        "SPS queries",
    );
    report.metric(
        "collector.records_per_round",
        med(&mut l.records),
        "count",
        "records handed to commit, all tables",
    );
    report.metric(
        "timestream.commit_ms",
        commit,
        "ms",
        "ShardedArchive::commit, three tables",
    );
    report.metric(
        "timestream.wal_frames_per_round",
        med(&mut l.frames),
        "count",
        "",
    );
    report.metric(
        "timestream.wal_bytes_per_record",
        bytes_total as f64 / records_total.max(1) as f64,
        "bytes",
        &format!("{bytes_total} WAL bytes over {records_total} records"),
    );
    report.metric(
        "timestream.maintain_ms",
        maintain,
        "ms",
        "ShardedArchive::maintain",
    );
    report.metric(
        "timestream.maintain_tail_ms",
        l.maintain.percentile(TAIL_PERCENTILE).unwrap_or(0.0),
        "ms",
        &format!("p{TAIL_PERCENTILE}: the checkpoint rounds"),
    );
    report.metric(
        "timestream.checkpoint_bytes",
        checkpoint_bytes as f64,
        "bytes",
        "checkpoint.db files after the last checkpoint round",
    );
    report.metric(
        "collector.service_self_ms",
        service_self,
        "ms",
        "untraced round p50 minus the composed layers",
    );
    report.metric(
        "timestream.recover_ms",
        med(&mut recover),
        "ms",
        &format!("ShardedArchive::open, median of {REPEATS}"),
    );
    report.metric(
        "trace.overhead_ms",
        med(&mut l.overhead),
        "ms",
        "composed round wall time not covered by a layer span",
    );
    report.metric("trace.ops_traced", n as f64, "count", "rounds");
    report.info(format!(
        "  accounting: step {step:.3} + sps {sps_ms:.3} + advisor {adv_ms:.3} + price {price_ms:.3} \
         + commit {commit:.3} + maintain {maintain:.3} + service_self {service_self:.3} \
         = {:.3} ms = untraced round p50 {:.3} ms",
        composed + service_self,
        untraced.round_p50_ms
    ));
    report.info(format!(
        "  traced composed round p50 {:.3} ms vs untraced round p50 {:.3} ms (difference {:.3} ms)",
        med(&mut l.round),
        untraced.round_p50_ms,
        med(&mut l.round) - untraced.round_p50_ms
    ));
    let spans = work.with_extension("spans.jsonl");
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    report.info(format!("  {} spans -> {}", tracer.len(), spans.display()));
    Ok(())
}
