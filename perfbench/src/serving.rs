//! The `scan` and `lookup` workloads: a closed loop of clients sending
//! history queries over real TCP to the shipped server configuration.
//!
//! The fixture archive (full catalog, one simulated day at a 60-minute
//! tick) is collected from the seed by the product's own collector and
//! saved with its codec. The server runs as a child process of this
//! benchmark (`perfbench serve-child`) so its peak RSS is its own, reset
//! once it is ready. Each client sends its next request only after the
//! previous reply. The traced run replays the same request plan
//! in-process and times each layer call from outside.

use crate::plan::{is_row_route, Plan, SeriesKey, Universe};
use crate::recover;
use crate::report::Report;
use crate::stats::{self, Samples};
use crate::sys;
use crate::trace::Tracer;
use crate::{Args, Workload};
use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_collector::{CollectorConfig, CollectorService};
use spotlake_obs::{QueryCtx, Registry};
use spotlake_serving::server::loadgen;
use spotlake_serving::server::wire::{self, WireLimits};
use spotlake_serving::{
    Gateway, HttpRequest, OpsContext, Server, ServerConfig, ServerHandle, SharedArchive,
};
use spotlake_timestream::{Aggregate, Database, Query, QueryProfile};
use spotlake_types::{Catalog, SimDuration};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// First argument that turns the binary into the server child.
pub const CHILD_COMMAND: &str = "serve-child";
/// Threads that compute the in-process answers for the correctness check.
const CHECK_THREADS: usize = 2;
/// Set-ups (archive load plus server start) are measured this many times
/// before the timed phase and again after it, so their median spans the
/// run instead of one moment of it.
const HALF_REPEATS: usize = 5;
/// The timed phase runs in this many equal segments. The machine's speed
/// drifts over seconds, so reopens are measured in the gaps between
/// segments (and before the first and after the last), where they see the
/// same stretches of the run as the requests do.
const SEGMENTS: u32 = 5;
/// Reopens measured in each gap between segments.
const REOPENS_PER_GAP: usize = 3;
/// The timed phase stops issuing requests after this long whatever else
/// holds, so the run ends well inside its time limit on a slow machine.
const HARD_STOP: Duration = Duration::from_secs(90);
/// Simulated days and tick of the fixture archive.
const FIXTURE_ROUNDS: u64 = 24;
const FIXTURE_TICK_MINUTES: u64 = 60;
/// Client socket timeout: far beyond the server's own 2 s deadline.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Closed-loop clients on each workload. A `scan` client spends its time
/// waiting for a heavy query, so two clients keep the reference machine's
/// two cores busy with server work. A `lookup` request takes about a
/// millisecond and its client works about as hard as the server, so two
/// clients would put four busy threads on the two cores and the figures
/// would follow where the scheduler placed them; one client keeps the run
/// steady.
fn clients(workload: Workload) -> usize {
    match workload {
        Workload::Lookup => 1,
        _ => 2,
    }
}

/// The tail percentile reported as `op_tail_ms` on each workload.
pub fn tail_percentile(workload: Workload) -> f64 {
    match workload {
        Workload::Lookup => 99.0,
        _ => 85.0,
    }
}

/// Requests per client whose row-route bodies feed the output digest.
fn digest_prefix(workload: Workload) -> usize {
    match workload {
        Workload::Lookup => 1000,
        _ => 10,
    }
}

struct Fixture {
    path: std::path::PathBuf,
    points: usize,
    series: usize,
    bytes: u64,
    universe: Universe,
}

fn series_keys(db: &Database, table: &str) -> Result<Vec<SeriesKey>, String> {
    let t = db.table(table).map_err(|e| e.to_string())?;
    let mut keys = Vec::new();
    for (_measure, dims) in t.series_dimension_sets() {
        let dim = |k: &str| dims.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        if let (Some(instance_type), Some(region)) = (dim("instance_type"), dim("region")) {
            keys.push(SeriesKey {
                instance_type,
                region,
                az: dim("az"),
            });
        }
    }
    if keys.is_empty() {
        return Err(format!("fixture table {table} has no series"));
    }
    Ok(keys)
}

/// Collects the fixture archive from the seed and saves it.
fn build_fixture(seed: u64, work: &Path) -> Result<Fixture, String> {
    let catalog = Catalog::aws_2022();
    let config = SimConfig {
        tick: SimDuration::from_mins(FIXTURE_TICK_MINUTES),
        ..SimConfig::with_seed(seed)
    };
    let mut cloud = SimCloud::new(catalog.clone(), config);
    let mut service =
        CollectorService::new(&catalog, CollectorConfig::default()).map_err(|e| e.to_string())?;
    service
        .run(&mut cloud, FIXTURE_ROUNDS)
        .map_err(|e| e.to_string())?;
    let db = service.into_database();
    let path = work.join("archive.db");
    db.save(&path).map_err(|e| e.to_string())?;
    let sps = series_keys(&db, "sps")?;
    let mut regions: Vec<String> = sps.iter().map(|s| s.region.clone()).collect();
    regions.sort();
    regions.dedup();
    let mut types: Vec<String> = sps.iter().map(|s| s.instance_type.clone()).collect();
    types.sort();
    types.dedup();
    let series = db
        .table_names()
        .iter()
        .filter_map(|t| db.table(t).ok())
        .map(|t| t.series_count())
        .sum();
    let universe = Universe {
        price: series_keys(&db, "price")?,
        advisor: series_keys(&db, "advisor")?,
        sps,
        regions,
        types,
        t_max: cloud.now().as_secs(),
    };
    Ok(Fixture {
        bytes: std::fs::metadata(&path).map_err(|e| e.to_string())?.len(),
        points: db.point_count(),
        series,
        path,
        universe,
    })
}

/// One request of the measured closed loop.
struct Sample {
    client: usize,
    index: usize,
    path: String,
    ms: f64,
    status: u16,
    len: usize,
    hash: u64,
    error: Option<String>,
}

/// Runs one segment of the closed loop: each client issues its plan from
/// `next[client]` on until `budget` has passed and, together, the clients
/// have completed at least `min_requests`, or `HARD_STOP` has passed.
/// Advances `next` past the requests made and returns them with the wall
/// time until the last reply.
fn run_clients(
    addr: SocketAddr,
    plan: &Plan,
    next: &mut [usize],
    budget: Duration,
    min_requests: usize,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let completed = AtomicUsize::new(0);
    let keep_going = || {
        let elapsed = started.elapsed();
        (elapsed < budget || completed.load(Ordering::Relaxed) < min_requests)
            && elapsed < HARD_STOP
    };
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = next
            .iter()
            .enumerate()
            .map(|(client, &first)| {
                let (keep_going, completed) = (&keep_going, &completed);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut index = first;
                    while keep_going() {
                        let path = plan.request(client, index);
                        let t0 = Instant::now();
                        let result = loadgen::fetch(addr, &path, IO_TIMEOUT);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        completed.fetch_add(1, Ordering::Relaxed);
                        let (status, len, hash, error) = match result {
                            Ok((status, body)) => {
                                (status, body.len(), sys::fnv64(body.as_bytes()), None)
                            }
                            Err(e) => (0, 0, 0, Some(e.to_string())),
                        };
                        out.push(Sample {
                            client,
                            index,
                            path,
                            ms,
                            status,
                            len,
                            hash,
                            error,
                        });
                        index += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    for s in &samples {
        next[s.client] = next[s.client].max(s.index + 1);
    }
    (samples, wall)
}

/// What the server child reports when it stops.
struct ServerStats {
    peak_rss_mb: f64,
    served: u64,
    shed: u64,
    deadline_exceeded: u64,
    worker_panics: u64,
    queue_wait_p90_ms: f64,
    /// Set-up times (seconds) measured after the timed phase.
    later_setups: Vec<f64>,
}

/// The server child process. Dropping it kills and reaps the process.
struct ServerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Starts the child and waits until it serves; returns it with its
    /// address and the set-up times (seconds) it measured.
    fn spawn(archive: &Path) -> Result<(ServerProc, SocketAddr, Vec<f64>), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(CHILD_COMMAND)
            .arg(archive)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server child: {e}"))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server child has no pipes".into());
        };
        let mut proc = ServerProc {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        };
        let line = proc.read_line()?;
        let mut words = line.split_whitespace();
        if words.next() != Some("ready") {
            return Err(format!("server child said {line:?}"));
        }
        let addr: SocketAddr = words
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("bad ready line {line:?}"))?;
        let setups = words.filter_map(|w| w.parse().ok()).collect();
        Ok((proc, addr, setups))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server child exited".into()),
            Ok(_) => Ok(line.trim().to_owned()),
            Err(e) => Err(format!("reading from the server child: {e}")),
        }
    }

    fn command(&mut self, cmd: &str) -> Result<String, String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to the server child: {e}"))?;
        self.read_line()
    }

    /// Drains the server, collects its report, and reaps the process.
    fn stop(mut self) -> Result<ServerStats, String> {
        let line = self.command("stop")?;
        let v: Vec<f64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|w| w.parse().ok())
            .collect();
        if !line.starts_with("stopped") || v.len() != 6 + HALF_REPEATS {
            return Err(format!("bad stop reply {line:?}"));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server child exited with {status}"));
        }
        Ok(ServerStats {
            peak_rss_mb: v[0],
            served: v[1] as u64,
            shed: v[2] as u64,
            deadline_exceeded: v[3] as u64,
            worker_panics: v[4] as u64,
            queue_wait_p90_ms: v[5],
            later_setups: v[6..].to_vec(),
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Already reaped after a clean stop; otherwise make sure the
        // child does not outlive the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Entry point of the server child: set up `HALF_REPEATS` times (archive
/// load plus server start until `/health` answers), then serve with the
/// last one. `reset` on stdin resets the peak RSS; `stop` drains the
/// server, sets up `HALF_REPEATS` more times, and prints its report.
pub fn child_main(args: &[String]) -> ExitCode {
    match child(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench serve-child: {e}");
            ExitCode::from(1)
        }
    }
}

/// One set-up: load the archive, start the server, and wait until
/// `/health` answers 200. Returns the running server and the seconds it
/// took.
fn set_up(archive: &str) -> Result<(ServerHandle, f64), String> {
    let t0 = Instant::now();
    let db = Database::load(archive).map_err(|e| e.to_string())?;
    let handle = Server::start(SharedArchive::new(db), ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let (status, _) =
        loadgen::fetch(handle.addr(), "/health", IO_TIMEOUT).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/health answered {status} after start"));
    }
    Ok((handle, t0.elapsed().as_secs_f64()))
}

fn child(args: &[String]) -> Result<(), String> {
    let archive = args.first().ok_or("missing archive path")?;
    let mut setups = Vec::new();
    let mut handle: Option<ServerHandle> = None;
    for _ in 0..HALF_REPEATS {
        if let Some(old) = handle.take() {
            old.shutdown();
        }
        let (h, secs) = set_up(archive)?;
        setups.push(secs.to_string());
        handle = Some(h);
    }
    let handle = handle.ok_or("no set-up ran")?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {} {}", handle.addr(), setups.join(" ")).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        match line.trim() {
            "reset" => {
                sys::reset_peak_rss().map_err(|e| format!("cannot reset peak RSS: {e}"))?;
                writeln!(out, "reset-ok").map_err(|e| e.to_string())?;
                out.flush().map_err(|e| e.to_string())?;
            }
            "stop" => break,
            _ if n == 0 => {
                handle.shutdown();
                return Err("stdin closed before stop".into());
            }
            other => return Err(format!("unknown command {other:?}")),
        }
    }
    let report = handle.shutdown();
    let peak = sys::peak_rss_mb().map_err(|e| e.to_string())?;
    let queue_wait_ms = report
        .phases
        .iter()
        .find(|p| p.phase == "queue_wait")
        .map_or(0.0, |p| p.p90_micros as f64 / 1e3);
    let t = report.totals;
    let mut later = Vec::new();
    for _ in 0..HALF_REPEATS {
        let (h, secs) = set_up(archive)?;
        h.shutdown();
        later.push(secs.to_string());
    }
    writeln!(
        out,
        "stopped {peak} {} {} {} {} {queue_wait_ms} {}",
        t.served,
        t.shed,
        t.deadline_exceeded,
        t.worker_panics,
        later.join(" ")
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// Status, body length and body digest of one response.
type Answer = (u16, usize, u64);

/// The in-process gateway's answers, memoised by path.
#[derive(Default)]
struct Expected {
    by_path: HashMap<String, Answer>,
}

impl Expected {
    /// Answers every path in `paths` not yet memoised, spread over one
    /// of `CHECK_THREADS` threads.
    fn fill(&mut self, db: &Database, paths: Vec<String>) -> Result<(), String> {
        let mut todo: Vec<String> = paths
            .into_iter()
            .filter(|p| !self.by_path.contains_key(p))
            .collect();
        todo.sort();
        todo.dedup();
        let chunk = todo.len().div_ceil(CHECK_THREADS).max(1);
        let answers: Vec<Result<Vec<(String, Answer)>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|paths| {
                    scope.spawn(move || {
                        let gateway = Gateway::new();
                        paths
                            .iter()
                            .map(|p| Ok((p.clone(), answer(&gateway, db, p)?)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check thread panicked"))
                .collect()
        });
        for batch in answers {
            self.by_path.extend(batch?);
        }
        Ok(())
    }

    fn get(&mut self, db: &Database, path: &str) -> Result<Answer, String> {
        if let Some(e) = self.by_path.get(path) {
            return Ok(*e);
        }
        let e = answer(&Gateway::new(), db, path)?;
        self.by_path.insert(path.to_owned(), e);
        Ok(e)
    }
}

/// The in-process gateway's answer to `path`.
fn answer(gateway: &Gateway, db: &Database, path: &str) -> Result<Answer, String> {
    let request = HttpRequest::get(path).map_err(|e| format!("{path}: {e}"))?;
    let response = gateway.handle(db, &request, &OpsContext::none());
    Ok((
        response.status,
        response.body.len(),
        sys::fnv64(&response.body),
    ))
}

/// Runs a serving workload and records its metrics into `report`.
pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let workload = args.workload;
    let t0 = Instant::now();
    let fixture = build_fixture(args.seed, work)?;
    report.info(format!(
        "fixture: full catalog, {FIXTURE_ROUNDS} rounds at a {FIXTURE_TICK_MINUTES}-minute tick: \
         {} points, {} series, {} archive bytes ({} sps series) in {:.1} s",
        fixture.points,
        fixture.series,
        fixture.bytes,
        fixture.universe.sps.len(),
        t0.elapsed().as_secs_f64()
    ));
    let defaults = ServerConfig::default();
    report.info(format!(
        "server: shipped config (workers {}, queue depth {}, deadline {} ms, read/write timeout {}/{} ms, \
         telemetry off), own process; {} closed-loop client(s)",
        defaults.workers,
        defaults.queue_depth,
        defaults.deadline.as_millis(),
        defaults.read_timeout.as_millis(),
        defaults.write_timeout.as_millis(),
        clients(workload)
    ));
    let plan = Plan::new(workload, args.seed, fixture.universe.clone());

    // Reopen the archive the way a restarted server would, each time in a
    // fresh process.
    let mut open = Samples::new();
    let reopen = |open: &mut Samples| -> Result<(), String> {
        let r = recover::reopen(recover::Archive::File, &fixture.path)?;
        if r.points != fixture.points {
            return Err(format!(
                "reopened archive holds {} points, saved {}",
                r.points, fixture.points
            ));
        }
        open.push(r.secs);
        Ok(())
    };
    let (mut server, addr, mut setups) = ServerProc::spawn(&fixture.path)?;
    let reply = server.command("reset")?;
    if reply != "reset-ok" {
        return Err(format!(
            "server child could not reset its peak RSS: {reply:?}"
        ));
    }
    // The last segment runs on until the tail percentile has ten requests
    // beyond it.
    let segment = Duration::from_secs(args.seconds) / SEGMENTS;
    let min_requests = stats::samples_for_tail(tail_percentile(workload), 10);
    let mut next = vec![0; clients(workload)];
    let mut samples = Vec::new();
    let mut wall = 0.0;
    let ticks = sys::cpu_ticks().ok();
    for k in 0..SEGMENTS {
        for _ in 0..REOPENS_PER_GAP {
            reopen(&mut open)?;
        }
        let floor = if k + 1 == SEGMENTS {
            min_requests.saturating_sub(samples.len())
        } else {
            0
        };
        let (part, part_wall) = run_clients(addr, &plan, &mut next, segment, floor);
        samples.extend(part);
        wall += part_wall;
    }
    if let (Some(before), Ok(after)) = (ticks, sys::cpu_ticks()) {
        report.info(format!(
            "host: {:.1}% of the machine's CPU time stolen by the hypervisor during the timed phase",
            sys::steal_percent(before, after)
        ));
    }
    samples.sort_by_key(|s| (s.index, s.client));
    let server_stats = server.stop()?;
    setups.extend_from_slice(&server_stats.later_setups);
    for _ in 0..REOPENS_PER_GAP {
        reopen(&mut open)?;
    }
    // This copy serves the correctness checks and the traced replay.
    let db = Database::load(&fixture.path).map_err(|e| e.to_string())?;

    let mut latency = Samples::new();
    let mut failed = 0u64;
    let mut by_status: BTreeMap<String, u64> = BTreeMap::new();
    for s in &samples {
        latency.push(s.ms);
        let label = match &s.error {
            Some(_) => "io-error".to_owned(),
            None => s.status.to_string(),
        };
        *by_status.entry(label).or_default() += 1;
        if s.status != 200 {
            failed += 1;
        }
    }
    let n = samples.len();
    report.attempted = n as u64;
    report.failed = failed;
    let repeats = {
        let mut seen = std::collections::HashSet::new();
        samples
            .iter()
            .filter(|s| !seen.insert(s.path.as_str()))
            .count()
    };
    let row_requests = samples.iter().filter(|s| is_row_route(&s.path)).count();
    report.info(format!(
        "requests: {n} completed in {wall:.2} s, statuses {by_status:?}; {row_requests} row routes; \
         {:.1}% repeat an earlier path",
        100.0 * repeats as f64 / n.max(1) as f64
    ));
    report.info(format!(
        "server report: {} served, {} shed, {} deadline-exceeded, {} worker panics",
        server_stats.served,
        server_stats.shed,
        server_stats.deadline_exceeded,
        server_stats.worker_panics
    ));
    let mut by_shape: BTreeMap<String, Samples> = BTreeMap::new();
    for s in &samples {
        by_shape.entry(shape(&s.path)).or_default().push(s.ms);
    }
    for (shape, mut ms) in by_shape {
        report.info(format!(
            "  {shape}: n={} p50 {:.3} ms max {:.3} ms",
            ms.len(),
            ms.median().unwrap_or(0.0),
            ms.percentile(100.0).unwrap_or(0.0)
        ));
    }
    if let Some(e) = samples.iter().find_map(|s| s.error.as_ref()) {
        report.info(format!("first I/O error: {e}"));
    }

    // Correctness: every row-route body over TCP equals the in-process
    // gateway's; the operator endpoints answer 200 with a body.
    let mut expected = Expected::default();
    expected.fill(
        &db,
        samples
            .iter()
            .filter(|s| s.status == 200 && is_row_route(&s.path))
            .map(|s| s.path.clone())
            .collect(),
    )?;
    let mut mismatches = Vec::new();
    let mut checked = 0;
    let mut empty_ops = 0;
    for s in samples.iter().filter(|s| s.status == 200) {
        if is_row_route(&s.path) {
            checked += 1;
            let (status, len, hash) = expected.get(&db, &s.path)?;
            if (status, len, hash) != (s.status, s.len, s.hash) {
                mismatches.push(s.path.clone());
            }
        } else if s.len == 0 {
            empty_ops += 1;
        }
    }
    report.check(
        mismatches.is_empty(),
        format!(
            "{} of {checked} row-route bodies over TCP equal the in-process Gateway::handle body{}",
            checked - mismatches.len(),
            mismatches
                .first()
                .map_or(String::new(), |p| format!("; first mismatch {p}"))
        ),
    );
    report.check(
        empty_ops == 0,
        format!("operator endpoints answered with non-empty bodies ({empty_ops} empty)"),
    );
    let prefix = digest_prefix(workload);
    let mut digest = 0u64;
    for index in 0..prefix {
        for client in 0..clients(workload) {
            let path = plan.request(client, index);
            if is_row_route(&path) {
                let (_, _, hash) = expected.get(&db, &path)?;
                digest = sys::fnv_extend(
                    sys::fnv_extend(digest, path.as_bytes()),
                    &hash.to_le_bytes(),
                );
            }
        }
    }
    report.info(format!(
        "output digest: {digest:016x} (row-route bodies of the first {prefix} requests per client)"
    ));

    let tail_p = tail_percentile(workload);
    let p50 = latency.median().unwrap_or(0.0);
    let tail = latency.percentile(tail_p).unwrap_or(0.0);
    let mut setup: Samples = setups.iter().copied().collect();
    report.info(format!("end-to-end (untraced, {n} requests):"));
    report.metric(
        "setup_s",
        setup.median().unwrap_or(0.0),
        "s",
        &format!(
            "median of {} archive loads plus server start until /health answers, half before \
             and half after the timed phase",
            setups.len()
        ),
    );
    report.metric(
        "throughput_ops_s",
        n as f64 / wall,
        "1/s",
        &format!(
            "completed requests per second, {} closed-loop client(s)",
            clients(workload)
        ),
    );
    report.metric("op_p50_ms", p50, "ms", &format!("request latency, n={n}"));
    report.metric(
        "op_tail_ms",
        tail,
        "ms",
        &format!(
            "p{tail_p}, {} of {n} requests beyond it",
            stats::beyond(n, tail_p)
        ),
    );
    report.metric(
        "peak_rss_mb",
        server_stats.peak_rss_mb,
        "MiB",
        "server process, timed phase only",
    );
    report.metric(
        "recover_s",
        open.median().unwrap_or(0.0),
        "s",
        &format!(
            "median of {} Database::load of the archive, each in a fresh process, in the gaps \
             between {SEGMENTS} segments of the timed phase; min {:.4} s, max {:.4} s",
            open.len(),
            open.percentile(0.0).unwrap_or(0.0),
            open.percentile(100.0).unwrap_or(0.0)
        ),
    );
    report.metric(
        "disk_bytes_per_point",
        fixture.bytes as f64 / fixture.points.max(1) as f64,
        "bytes",
        "archive file bytes per stored point",
    );
    report.info(format!(
        "  failed_ratio = {} ratio  ({failed} non-200 or I/O errors of {n})",
        failed as f64 / n.max(1) as f64
    ));

    if args.trace {
        let traced = Traced {
            plan: &plan,
            db: &db,
            samples: &samples,
            open_ms: open.median().unwrap_or(0.0) * 1e3,
            queue_wait_ms: server_stats.queue_wait_p90_ms,
            untraced_p50_ms: p50,
            untraced_tail_ms: tail,
        };
        traced.run(args, work, &mut expected, report)?;
    }
    Ok(())
}

/// A request's shape: its route, table and parameter names, without
/// values (`/query?table=sps&region&limit`).
fn shape(path: &str) -> String {
    let (route, query) = path.split_once('?').unwrap_or((path, ""));
    let params: Vec<&str> = query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            if p.starts_with("table=") {
                p
            } else {
                p.split('=').next().unwrap_or(p)
            }
        })
        .collect();
    if params.is_empty() {
        route.to_owned()
    } else {
        format!("{route}?{}", params.join("&"))
    }
}

/// The scan-side profile of one row request, from the same `*_profiled`
/// store call the gateway makes.
fn store_call(db: &Database, request: &HttpRequest) -> Option<(QueryProfile, usize)> {
    let table = request.param("table")?;
    let measure = request.param("measure").or(match table {
        "sps" => Some("sps"),
        "advisor" => Some("if_score"),
        "price" => Some("spot_price"),
        _ => None,
    })?;
    let mut q = Query::measure(measure);
    for key in ["instance_type", "region", "az"] {
        if let Some(v) = request.param(key) {
            q = q.filter(key, v);
        }
    }
    let from = request.param("from").map_or(Some(0), |s| s.parse().ok())?;
    let to = request
        .param("to")
        .map_or(Some(u64::MAX), |s| s.parse().ok())?;
    let q = q.between(from, to);
    let ctx = QueryCtx::default();
    let limit = request
        .param("limit")
        .map_or(Some(10_000), |s| s.parse::<usize>().ok())?;
    match request.path() {
        "/query" => {
            let (rows, p) = db.query_profiled(table, &q, ctx).ok()?;
            Some((p, rows.len().min(limit)))
        }
        "/latest" => {
            let (rows, p) = db.latest_profiled(table, &q, ctx).ok()?;
            Some((p, rows.len().min(limit)))
        }
        "/at" => {
            let at = request.param("timestamp")?.parse().ok()?;
            let (rows, p) = db.value_at_profiled(table, &q, at, ctx).ok()?;
            Some((p, rows.len().min(limit)))
        }
        "/window" => {
            let window = request
                .param("window")
                .map_or(Some(86_400), |s| s.parse().ok())?;
            let agg = match request.param("agg").unwrap_or("mean") {
                "mean" => Aggregate::Mean,
                "min" => Aggregate::Min,
                "max" => Aggregate::Max,
                "count" => Aggregate::Count,
                "sum" => Aggregate::Sum,
                "last" => Aggregate::Last,
                _ => return None,
            };
            let (rows, p) = db.query_window_profiled(table, &q, window, agg, ctx).ok()?;
            let n = rows.len();
            Some((p, n))
        }
        _ => None,
    }
}

/// Inputs of the traced in-process replay.
struct Traced<'a> {
    plan: &'a Plan,
    db: &'a Database,
    samples: &'a [Sample],
    open_ms: f64,
    queue_wait_ms: f64,
    untraced_p50_ms: f64,
    untraced_tail_ms: f64,
}

impl Traced<'_> {
    /// Replays the request plan in-process, in the order the clients
    /// interleave, for `--seconds`: wire parse, the store call, the
    /// gateway, wire encode, and the gateway's metric recording, each a
    /// span, with the EXPLAIN work counts of every store call.
    fn run(
        &self,
        args: &Args,
        work: &Path,
        expected: &mut Expected,
        report: &mut Report,
    ) -> Result<(), String> {
        let tail_p = tail_percentile(args.workload);
        let tcp: HashMap<(usize, usize), &Sample> = self
            .samples
            .iter()
            .map(|s| ((s.client, s.index), s))
            .collect();
        let gateway = Gateway::new();
        let registry = Registry::new();
        let limits = WireLimits::default();
        let ops = OpsContext::none();
        let mut tracer = Tracer::new();
        let mut totals = Samples::new();
        let (mut query, mut gateway_self, mut wire_ms, mut record, mut render, mut overhead) = (
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
        );
        let (mut decoded, mut returned, mut scanned, mut row_n, mut bytes) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut mismatches = 0;
        let budget = Duration::from_secs(args.seconds);
        let started = Instant::now();
        let mut step = 0usize;
        let clients = clients(args.workload);
        while started.elapsed() < budget {
            let (client, index) = (step % clients, step / clients);
            let op = step as u64;
            step += 1;
            let path = self.plan.request(client, index);
            let head =
                format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n");
            let root = tracer.begin(op, "request", None);

            let span = tracer.begin(op, "serving.wire.parse", Some(root));
            let parsed = wire::parse_head(head.as_bytes(), &limits);
            let parse_ms = tracer.end(span);
            let request = parsed.map_err(|e| format!("{path}: {e:?}"))?;

            let mut store_ms = 0.0;
            if is_row_route(&path) {
                let span = tracer.begin(op, "timestream.query", Some(root));
                let profiled = std::hint::black_box(store_call(self.db, &request));
                store_ms = tracer.end(span);
                let (profile, rows) =
                    profiled.ok_or_else(|| format!("store call failed for {path}"))?;
                query.push(store_ms);
                decoded += profile.rows_decoded;
                returned += rows as u64;
                scanned += profile.series_scanned;
                row_n += 1;
            }

            let span = tracer.begin(op, "serving.gateway.handle", Some(root));
            let response = gateway.handle(self.db, &request, &ops);
            let handle_ms = tracer.end(span);
            gateway_self.push(handle_ms - store_ms);
            if request.path() == "/metrics" {
                render.push(handle_ms);
            }

            let span = tracer.begin(op, "serving.wire.encode", Some(root));
            let encoded = std::hint::black_box(wire::encode_response(
                &response,
                &[("x-spotlake-request-id", op.to_string())],
            ));
            let encode_ms = tracer.end(span);
            wire_ms.push(parse_ms + encode_ms);

            let status = response.status.to_string();
            let route = request.path();
            let span = tracer.begin(op, "obs.record", Some(root));
            registry.counter_add(
                "spotlake_http_requests_total",
                "Requests served per endpoint and status.",
                &[("path", route), ("status", &status)],
                1,
            );
            registry.histogram_record(
                "spotlake_http_response_bytes",
                "Response body size per endpoint (deterministic latency proxy).",
                &[("path", route)],
                response.body.len() as f64,
            );
            record.push(tracer.end(span) * 1e3);
            totals.push(tracer.end(root));
            overhead.push(tracer.self_ms(root));
            bytes += response.body.len() as u64;
            drop(encoded);

            if is_row_route(&path) {
                let mine = (
                    response.status,
                    response.body.len(),
                    sys::fnv64(&response.body),
                );
                let want = match tcp.get(&(client, index)) {
                    Some(s) if s.status == 200 => Some((s.status, s.len, s.hash)),
                    _ => None,
                };
                if want.is_some_and(|w| w != mine) {
                    mismatches += 1;
                }
                expected.by_path.entry(path).or_insert(mine);
            }
        }
        report.check(
            mismatches == 0,
            format!("traced replay bodies equal the TCP bodies ({mismatches} mismatches)"),
        );
        let n = step;
        let med = |s: &mut Samples| s.median().unwrap_or(0.0);
        report.info(format!(
            "per-layer (traced in-process replay, {n} requests, {row_n} row routes):"
        ));
        report.metric(
            "timestream.open_ms",
            self.open_ms,
            "ms",
            "Database::load of the archive, median as in recover_s",
        );
        report.metric(
            "timestream.query_ms",
            med(&mut query),
            "ms",
            "*_profiled store call per row request, median",
        );
        report.metric(
            "timestream.query_tail_ms",
            query.percentile(tail_p).unwrap_or(0.0),
            "ms",
            &format!("p{tail_p} of the store call"),
        );
        report.metric(
            "timestream.rows_decoded",
            decoded as f64 / row_n.max(1) as f64,
            "count",
            "per row request",
        );
        report.metric(
            "timestream.rows_returned",
            returned as f64 / row_n.max(1) as f64,
            "count",
            "per row request",
        );
        let dpr = decoded as f64 / returned.max(1) as f64;
        report.metric(
            "timestream.decoded_per_returned",
            dpr,
            "ratio",
            &format!("{decoded} rows decoded / {returned} returned"),
        );
        report.metric(
            "timestream.series_scanned_per_request",
            scanned as f64 / row_n.max(1) as f64,
            "count",
            "per row request",
        );
        report.metric(
            "serving.gateway_self_ms",
            med(&mut gateway_self),
            "ms",
            "Gateway::handle minus the store call, median",
        );
        report.metric(
            "serving.gateway_self_tail_ms",
            gateway_self.percentile(tail_p).unwrap_or(0.0),
            "ms",
            &format!("p{tail_p}"),
        );
        report.metric(
            "serving.response_bytes",
            bytes as f64 / n.max(1) as f64,
            "bytes",
            "body bytes per request",
        );
        report.metric(
            "serving.wire_ms",
            med(&mut wire_ms),
            "ms",
            "wire::parse_head + wire::encode_response, median",
        );
        report.metric(
            "serving.queue_wait_ms",
            self.queue_wait_ms,
            "ms",
            "p90 from the untraced run's ServerReport phase stats",
        );
        report.metric(
            "obs.record_us",
            med(&mut record),
            "us",
            "Registry counter + histogram with the gateway's labels, median",
        );
        report.metric(
            "obs.metrics_render_ms",
            med(&mut render),
            "ms",
            &format!("/metrics handle time, median of {}", render.len()),
        );
        report.metric(
            "trace.overhead_ms",
            med(&mut overhead),
            "ms",
            "request wall time not covered by a layer span",
        );
        report.metric("trace.ops_traced", n as f64, "count", "requests");
        report.info(format!(
            "  op_tail_ms (untraced p{tail_p}) {:.3} ms next to decoded_per_returned {dpr:.1}",
            self.untraced_tail_ms
        ));
        let traced_p50 = med(&mut totals);
        report.info(format!(
            "  traced in-process request p50 {traced_p50:.3} ms vs untraced TCP p50 {:.3} ms \
             (difference {:.3} ms)",
            self.untraced_p50_ms,
            traced_p50 - self.untraced_p50_ms
        ));
        let spans = work.with_extension("spans.jsonl");
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        report.info(format!("  {} spans -> {}", tracer.len(), spans.display()));
        Ok(())
    }
}
