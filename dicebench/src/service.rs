//! The two service workloads: an open-loop request stream against a
//! `dice-serve` process, or against a `dice-fabric` coordinator with two
//! workers, all on loopback.
//!
//! The load generator is open-loop: request `i` is due at a seeded
//! arrival time whether or not earlier requests have finished, and its
//! latency is measured from that due time, so a stall that delays later
//! sends is counted against them (no coordinated omission). At most two
//! connections are open at once; a request whose connection is still busy
//! when it falls due waits, and that wait is both in its latency and in
//! `loadgen.lag_p95_ms`. The client waits for a sweep on its SSE event
//! stream, so it adds no polling interval of its own.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dice_obs::Json;
use dice_runner::{CellOutcome, Runner, RunnerConfig, SweepResult};
use dice_serve::{http_get, http_post, render_runs, sse_data_lines, SweepSpec};
use dice_sim::{geomean, RunReport, SimConfig, System, WorkloadSet};
use dice_workloads::{spec_table, SplitMix64, Suite};

use crate::stats::{median, percentile};
use crate::sweep::{
    attribute_cells, report_metrics, runner_figures, sim_layer_metrics, SweepStats,
};
use crate::tracer::Tracer;
use crate::{Args, Outcome, LATENCY_LIMIT_MS};

/// Offered load, requests per second.
pub const OFFERED_RPS: f64 = 20.0;
/// Client connections open at once.
const CONNECTIONS: usize = 2;
/// Cell shape of every request: the tiny sweep `dice-serve-loadgen` sends
/// in its load mode (scale 1/4096, 50 warm-up + 150 measured records per
/// core). Its simulation takes a few ms, so a cold request's latency is
/// mostly the service's own path, which is what these workloads measure;
/// the sim layers' host cost is what the sweeps measure.
const SCALE: u64 = 4096;
const WARMUP: u64 = 50;
const MEASURE: u64 = 150;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Which service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve,
    Fabric,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Overlap,
    Repeat,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Overlap => "overlap",
            Class::Repeat => "repeat",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    class: Class,
    spec: String,
    /// Offset of the due time from the start of the window.
    due: Duration,
}

fn spec_text(orgs: &[&str], workload: &str, seed: u64) -> String {
    let orgs = orgs.iter().map(|o| Json::str(*o)).collect();
    Json::Obj(vec![
        ("orgs".into(), Json::Arr(orgs)),
        ("workloads".into(), Json::Arr(vec![Json::str(workload)])),
        ("scale".into(), Json::u64(SCALE)),
        ("warmup".into(), Json::u64(WARMUP)),
        ("measure".into(), Json::u64(MEASURE)),
        ("seed".into(), Json::u64(seed)),
    ])
    .render()
}

/// The class of each request in a block of ten: 10 % cold, 90 % served
/// without simulating (10 % overlap, 80 % repeat). This is the mix of
/// `dice-serve-loadgen`'s default load, 40 requests over 4 distinct
/// seeds, of which the first request of each seed simulates. A fixed
/// pattern keeps the cells per block, and so the work offered, the same
/// for every seed.
const BLOCK: [Class; 10] = [
    Class::Cold,
    Class::Repeat,
    Class::Repeat,
    Class::Overlap,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
];

/// The seeded request stream: `count` requests (rounded up to whole
/// blocks), request `i` due at `(i + u) / OFFERED_RPS` seconds with `u`
/// uniform in [0, 1). Jittered rather than Poisson arrivals keep the
/// offered rate fixed and the queueing seen by p95 from varying with the
/// seed.
///
/// Block `b` sends cold spec `c_b` (both orgs of one workload, new seed;
/// workloads taken in turn from a seeded starting point), an overlap (one
/// org of `c_{b-1}`, whose cells are cached by then), and eight repeats,
/// taking in turn a cold from the last four blocks and an overlap from
/// the last three: 15 cells per block.
fn plan_requests(seed: u64, count: usize) -> Vec<Planned> {
    let names: Vec<&'static str> = spec_table()
        .into_iter()
        .filter(|w| w.suite != Suite::NonMem)
        .map(|w| w.name)
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x10ad_6e17);
    let offset = rng.below(names.len() as u64) as usize;
    let blocks = count.div_ceil(BLOCK.len());
    let mut colds: Vec<(&'static str, u64)> = Vec::with_capacity(blocks);
    let mut overlaps: Vec<String> = Vec::with_capacity(blocks);
    let mut out: Vec<Planned> = Vec::with_capacity(blocks * BLOCK.len());
    let recent = |rng: &mut SplitMix64, len: usize, window: usize| -> usize {
        len - 1 - rng.below(window.min(len) as u64) as usize
    };
    for b in 0..blocks {
        for (k, class) in BLOCK.iter().enumerate() {
            let spec = match class {
                Class::Cold => {
                    let wl = names[(offset + b) % names.len()];
                    let s = rng.next_u64() % 1_000_000_007;
                    colds.push((wl, s));
                    spec_text(&["base", "dice36"], wl, s)
                }
                Class::Overlap => {
                    let (wl, s) = colds[b.saturating_sub(1)];
                    let org = if b % 2 == 0 { "base" } else { "dice36" };
                    let spec = spec_text(&[org], wl, s);
                    overlaps.push(spec.clone());
                    spec
                }
                Class::Repeat if k % 2 == 0 && !overlaps.is_empty() => {
                    overlaps[recent(&mut rng, overlaps.len(), 3)].clone()
                }
                Class::Repeat => {
                    let (wl, s) = colds[recent(&mut rng, colds.len(), 4)];
                    spec_text(&["base", "dice36"], wl, s)
                }
            };
            let i = out.len();
            let due = Duration::from_secs_f64((i as f64 + rng.unit()) / OFFERED_RPS);
            out.push(Planned {
                class: *class,
                spec,
                due,
            });
        }
    }
    out
}

/// CPU placement of the service workloads: the processes under test on
/// CPU 0, the load generator on CPU 1. Left to the scheduler, a client
/// thread sharing a CPU with the server decides whether the server's
/// accept loop sees the next connection before its 10 ms poll sleep, so
/// the same build read 9 ms or 27 ms repeat-request p50 a minute apart.
const SERVER_CPU: &str = "0";
const CLIENT_CPU: &str = "1";

/// Sets the CPU affinity of every thread of this process (threads started
/// later inherit it) with `taskset`. Returns whether it took effect.
fn pin_self(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Every process the benchmark started; killed and reaped on drop.
struct Fleet {
    procs: Vec<Child>,
    /// Start each process on `SERVER_CPU` only.
    pinned: bool,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.kill();
            let _ = p.wait();
        }
    }
}

impl Fleet {
    fn new(pinned: bool) -> Self {
        Self {
            procs: Vec::new(),
            pinned,
        }
    }

    /// Starts `bin` and waits until it reports its address and answers
    /// `/healthz`. Returns the address.
    fn spawn(
        &mut self,
        bin: &Path,
        args: &[&str],
        dir: &Path,
        name: &str,
    ) -> Result<String, String> {
        let out_path = dir.join(format!("{name}.out"));
        let err_path = dir.join(format!("{name}.err"));
        let stdout =
            fs::File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
        let stderr =
            fs::File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
        // `taskset` execs the binary, so the child's pid is the server's.
        let mut cmd = if self.pinned {
            let mut c = Command::new("taskset");
            c.args(["-c", SERVER_CPU]).arg(bin);
            c
        } else {
            Command::new(bin)
        };
        let child = cmd
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        self.procs.push(child);
        let child = self.procs.last_mut().expect("just pushed");
        // The bound address is the first stdout line; it is flushed
        // explicitly, so it appears within milliseconds of binding.
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            let text = fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(addr) = text
                .split_whitespace()
                .find(|w| w.starts_with("127.0.0.1:"))
            {
                break addr.to_owned();
            }
            if let Ok(Some(status)) = child.try_wait() {
                let err = fs::read_to_string(&err_path).unwrap_or_default();
                return Err(format!("{name} exited with {status}: {}", err.trim()));
            }
            if Instant::now() > deadline {
                return Err(format!("{name} never reported its address"));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        while !matches!(http_get(&addr, "/healthz"), Ok(r) if r.status == 200) {
            if Instant::now() > deadline {
                return Err(format!("{name} at {addr} never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(addr)
    }

    /// Summed peak RSS (VmHWM) of every process, in MB.
    fn peak_rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .filter_map(|p| crate::peak_rss_mb(&p.id().to_string()))
            .sum()
    }
}

/// A booted fleet and the address requests go to.
struct Booted {
    fleet: Fleet,
    front: String,
    /// Worker addresses (fabric only).
    workers: Vec<String>,
    journal: Option<PathBuf>,
}

fn boot(kind: Kind, bins: &Path, dir: &Path, pinned: bool) -> Result<Booted, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut fleet = Fleet::new(pinned);
    let path = |p: PathBuf| p.to_string_lossy().into_owned();
    match kind {
        Kind::Serve => {
            let cache = path(dir.join("cache"));
            let front = fleet.spawn(
                &bins.join("dice-serve"),
                &[
                    "--port",
                    "0",
                    "--sweep-workers",
                    "1",
                    "--jobs",
                    "1",
                    "--queue",
                    "256",
                    "--cache",
                    &cache,
                ],
                dir,
                "dice-serve",
            )?;
            Ok(Booted {
                fleet,
                front,
                workers: Vec::new(),
                journal: None,
            })
        }
        Kind::Fabric => {
            let bin = bins.join("dice-fabric");
            let mut workers = Vec::new();
            for i in 0..2 {
                let cache = path(dir.join(format!("cache{i}")));
                workers.push(fleet.spawn(
                    &bin,
                    &["worker", "--port", "0", "--cache", &cache],
                    dir,
                    &format!("worker{i}"),
                )?);
            }
            let journal = dir.join("journal.djr");
            let journal_s = path(journal.clone());
            let mut args = vec![
                "coordinator",
                "--port",
                "0",
                "--capacity",
                "256",
                "--journal",
                &journal_s,
            ];
            for w in &workers {
                args.push("--worker");
                args.push(w);
            }
            let front = fleet.spawn(&bin, &args, dir, "coordinator")?;
            Ok(Booted {
                fleet,
                front,
                workers,
                journal: Some(journal),
            })
        }
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
struct Done {
    /// Due time to report, ms; `None` when the request failed.
    latency_ms: Option<f64>,
    /// Actual send to report, ms.
    service_ms: f64,
    lag_ms: f64,
    post_ms: f64,
    wait_ms: f64,
    report_ms: f64,
    coalesced: bool,
    body: Option<Vec<u8>>,
    error: Option<String>,
}

/// Submit, wait on the event stream, fetch the report.
fn one_request(addr: &str, spec: &str, tracer: Option<(&Tracer, u64, u64)>) -> Done {
    let mut d = Done::default();
    let span = |name: &str, start: Instant| {
        if let Some((t, parent, trace_id)) = tracer {
            t.record(parent, trace_id, name, t.at(start), t.now_ns());
        }
    };
    let t0 = Instant::now();
    let posted = http_post(addr, "/v1/sweeps", spec);
    span("http.post", t0);
    d.post_ms = t0.elapsed().as_secs_f64() * 1e3;
    let id = match posted {
        Ok(r) if r.status == 202 => {
            let doc = Json::parse(&r.text()).ok();
            d.coalesced = doc
                .as_ref()
                .and_then(|j| j.get("coalesced"))
                .is_some_and(|c| matches!(c, Json::Bool(true)));
            match doc
                .as_ref()
                .and_then(|j| j.get("id"))
                .and_then(Json::as_str)
            {
                Some(id) => id.to_owned(),
                None => {
                    d.error = Some("202 without an id".into());
                    return d;
                }
            }
        }
        Ok(r) => {
            d.error = Some(format!("submit refused: {}", r.status));
            return d;
        }
        Err(e) => {
            d.error = Some(format!("submit: {e}"));
            return d;
        }
    };
    let t1 = Instant::now();
    let events = http_get(addr, &format!("/v1/sweeps/{id}/events"));
    span("http.wait", t1);
    d.wait_ms = t1.elapsed().as_secs_f64() * 1e3;
    let state = events.ok().and_then(|r| {
        let last = sse_data_lines(&r.text()).pop()?;
        Json::parse(&last)
            .ok()?
            .get("state")
            .and_then(Json::as_str)
            .map(str::to_owned)
    });
    if state.as_deref() != Some("done") {
        d.error = Some(format!("event stream ended in state {state:?}"));
        return d;
    }
    let t2 = Instant::now();
    let report = http_get(addr, &format!("/v1/sweeps/{id}/report"));
    span("http.report", t2);
    d.report_ms = t2.elapsed().as_secs_f64() * 1e3;
    match report {
        Ok(r) if r.status == 200 => d.body = Some(r.body),
        Ok(r) => d.error = Some(format!("report: status {}", r.status)),
        Err(e) => d.error = Some(format!("report: {e}")),
    }
    d
}

/// Runs the schedule open-loop over `CONNECTIONS` client threads.
fn drive(addr: &str, plan: &[Planned], tracer: Option<&Tracer>) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Done)>> = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(req) = plan.get(i) else {
                    break;
                };
                let due = start + req.due;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ids = tracer.map(|t| (t, t.reserve(), i as u64 + 1));
                let mut d = one_request(addr, &req.spec, ids);
                let end = Instant::now();
                if let Some((t, id, trace)) = ids {
                    t.close(
                        id,
                        0,
                        trace,
                        &format!("request.{}", req.class.name()),
                        t.at(due),
                        t.at(end),
                    );
                }
                d.lag_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
                d.service_ms = (end - sent).as_secs_f64() * 1e3;
                if d.error.is_none() {
                    d.latency_ms = Some(end.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                done.lock().expect("results lock poisoned").push((i, d));
            });
        }
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("results lock poisoned");
    done.sort_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, d)| d).collect(), window_s)
}

/// Records of every cell in a served report (8 cores x warm-up+measure).
fn report_records(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    let cells = Json::parse(&text)
        .ok()
        .and_then(|j| j.get("runs").and_then(Json::as_arr).map(<[Json]>::len))
        .unwrap_or(0);
    cells as u64 * 8 * (WARMUP + MEASURE)
}

/// The direct `Runner` sweep of each distinct spec, rendered the way the
/// services render reports: the reference every served body must equal.
fn direct_reports(specs: &[String]) -> BTreeMap<String, (String, SweepResult)> {
    let queue = Mutex::new(specs.to_vec());
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let Some(spec) = queue.lock().expect("spec queue poisoned").pop() else {
                    break;
                };
                let parsed = SweepSpec::parse(&spec).expect("the benchmark writes valid specs");
                let runner = Runner::new(RunnerConfig {
                    jobs: 1,
                    ..RunnerConfig::default()
                })
                .expect("a runner without a cache directory cannot fail to open");
                let result = runner.run(parsed.to_cells());
                let rendered = render_runs(&result).render();
                out.lock()
                    .expect("direct results poisoned")
                    .insert(spec, (rendered, result));
            });
        }
    });
    out.into_inner().expect("direct results poisoned")
}

/// The unlabeled sample of a Prometheus counter (0 when absent). The
/// coordinator also exports per-node labeled series under some of the
/// same names, so labeled lines are skipped rather than summed.
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .sum()
}

/// One measured pass: a fresh fleet, the schedule, the fleet's figures.
struct Pass {
    done: Vec<Done>,
    window_s: f64,
    rss_mb: f64,
    /// Simulation the processes under test ran in the window: events
    /// (dice-serve) or cells (the fabric's workers), see `simulated`.
    simulated: f64,
    /// Per-layer extras measured after the window (traced pass only).
    extras: BTreeMap<&'static str, f64>,
}

fn measure_pass(
    kind: Kind,
    args: &Args,
    dir: &Path,
    plan: &[Planned],
    tracer: Option<&Tracer>,
    pinned: bool,
) -> Result<Pass, String> {
    let booted = boot(kind, &args.bin_dir, dir, pinned)?;
    // Untimed warm-up: one small request that is not in the schedule.
    let _ = one_request(&booted.front, &spec_text(&["base"], "gcc", 1), None);
    let before = http_get(&booted.front, "/metrics")
        .map(|r| r.text())
        .unwrap_or_default();
    let simulated_before = simulated(kind, &booted);
    let (done, window_s) = drive(&booted.front, plan, tracer);
    let simulated = simulated(kind, &booted) - simulated_before;
    let mut extras = BTreeMap::new();
    if tracer.is_some() {
        let mut healthz = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            let _ = http_get(&booted.front, "/healthz");
            healthz.push(t.elapsed().as_secs_f64() * 1e3);
        }
        extras.insert("serve.healthz_ms", median(&healthz));
        let mut metrics_ms = Vec::new();
        let mut bytes = 0usize;
        let mut after = String::new();
        for _ in 0..5 {
            let t = Instant::now();
            if let Ok(r) = http_get(&booted.front, "/metrics") {
                bytes = r.body.len();
                after = r.text();
            }
            metrics_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        extras.insert("obs.metrics_ms", median(&metrics_ms));
        extras.insert("obs.metrics_bytes", bytes as f64);
        if kind == Kind::Fabric {
            let delta = |family: &str| prom_value(&after, family) - prom_value(&before, family);
            extras.insert("fabric.retries", delta("fabric_rescatter_rounds"));
            extras.insert("fabric.hedges", delta("fabric_hedge_dispatched"));
            extras.insert("fabric.breaker_opened", delta("fabric_breaker_opened"));
            let journal = booted
                .journal
                .as_ref()
                .and_then(|p| fs::metadata(p).ok())
                .map_or(0, |m| m.len());
            extras.insert(
                "fabric.journal_bytes_per_req",
                journal as f64 / (plan.len() + 1) as f64,
            );
            extras.insert("fabric.cell_ms", direct_cell_ms(&booted.workers[0], plan));
        }
    }
    let rss_mb = booted.fleet.peak_rss_mb();
    drop(booted);
    Ok(Pass {
        done,
        window_s,
        rss_mb,
        simulated,
        extras,
    })
}

/// How much the processes under test have simulated so far, from their
/// `/metrics`: dice-serve's simulation events (scheduled and chained), or
/// the cells the fabric's workers simulated rather than loaded.
fn simulated(kind: Kind, booted: &Booted) -> f64 {
    let (addrs, families): (Vec<&String>, &[&str]) = match kind {
        Kind::Serve => (
            vec![&booted.front],
            &["sim_events_scheduled", "sim_events_chained"],
        ),
        Kind::Fabric => (booted.workers.iter().collect(), &["worker_cells_simulated"]),
    };
    addrs
        .iter()
        .filter_map(|a| http_get(a, "/metrics").ok())
        .map(|r| {
            let text = r.text();
            families.iter().map(|f| prom_value(&text, f)).sum::<f64>()
        })
        .sum()
}

/// Median time of a `POST /v1/cells` straight to a worker for a cell it
/// has already cached (each cell is posted twice; the second is timed).
fn direct_cell_ms(worker: &str, plan: &[Planned]) -> f64 {
    let mut times = Vec::new();
    for p in plan.iter().filter(|p| p.class == Class::Cold).take(5) {
        let Ok(spec) = SweepSpec::parse(&p.spec) else {
            continue;
        };
        let body = spec_text(&["dice36"], &spec.workloads[0], spec.seed);
        let _ = http_post(worker, "/v1/cells", &body);
        let t = Instant::now();
        if matches!(http_post(worker, "/v1/cells", &body), Ok(r) if r.status == 200) {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    median(&times)
}

/// Boots and tears down the fleet `SETUPS` times (boot to healthy plus
/// one warm-up request); `setup_s` is the median.
fn setup_times(kind: Kind, args: &Args, work: &Path, pinned: bool) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t = Instant::now();
        let booted = boot(kind, &args.bin_dir, &work.join(format!("setup{i}")), pinned)?;
        let warm = one_request(&booted.front, &spec_text(&["base"], "gcc", 1), None);
        if let Some(e) = warm.error {
            return Err(format!("warm-up request: {e}"));
        }
        times.push(t.elapsed().as_secs_f64());
        drop(booted);
    }
    Ok(median(&times))
}

/// Runs one service workload.
pub fn run(kind: Kind, args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = cpus >= 2 && pin_self(CLIENT_CPU);
    out.note(if pinned {
        format!("processes under test on CPU {SERVER_CPU}, load generator on CPU {CLIENT_CPU}")
    } else {
        "CPU placement left to the scheduler (taskset unavailable or one CPU)".to_owned()
    });
    let setup_s = match setup_times(kind, args, work, pinned) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };

    let tracer = Tracer::new();
    let plan = plan_requests(args.seed, (OFFERED_RPS * args.seconds).round() as usize);
    let traced = args.trace.then_some(&tracer);
    let pass = match measure_pass(kind, args, &work.join("pass"), &plan, traced, pinned) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("pass: {e}"));
            return out;
        }
    };

    // The fleet is gone: verification and attribution may use every CPU.
    if pinned {
        pin_self(&format!("0-{}", cpus - 1));
    }

    // Correctness: every served body equals the direct runner sweep of
    // its spec.
    let mut specs: Vec<String> = plan.iter().map(|p| p.spec.clone()).collect();
    specs.sort();
    specs.dedup();
    let direct = direct_reports(&specs);
    let mut done = pass.done.clone();
    for (req, d) in plan.iter().zip(done.iter_mut()) {
        out.attempted += 1;
        let ok = match (&d.error, &d.body) {
            (None, Some(body)) => direct
                .get(&req.spec)
                .is_some_and(|(want, _)| want.as_bytes() == body.as_slice()),
            _ => false,
        };
        if !ok {
            out.failed += 1;
            let why = d
                .error
                .clone()
                .unwrap_or_else(|| "report differs from the direct runner sweep".into());
            if out.failures.len() < 10 {
                out.failures
                    .push(format!("{} request: {why}", req.class.name()));
            }
            d.latency_ms = None;
        }
    }
    if out.failed > 0 && out.failures.is_empty() {
        out.failures.push(format!("{} requests failed", out.failed));
    }

    let lat: Vec<f64> = done.iter().filter_map(|d| d.latency_ms).collect();
    let lat_opt: Vec<Option<f64>> = done.iter().map(|d| d.latency_ms).collect();
    let records: u64 = done
        .iter()
        .filter(|d| d.latency_ms.is_some())
        .filter_map(|d| d.body.as_deref().map(report_records))
        .sum();
    let speedups: Vec<f64> = plan
        .iter()
        .filter(|p| p.class == Class::Cold)
        .filter_map(|p| speedup_of(&direct.get(&p.spec)?.1))
        .collect();
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    let m = &mut out.metrics;
    m.insert("records_per_s", records as f64 / pass.window_s);
    m.insert("dice_speedup", geomean(&speedups));
    m.insert("req_p50_ms", median(&lat));
    m.insert("req_p95_ms", percentile(&lat, 95.0).unwrap_or(0.0));
    m.insert(
        "goodput_rps",
        crate::stats::goodput(&lat_opt, LATENCY_LIMIT_MS, pass.window_s),
    );
    m.insert("success_rate", 1.0 - failed_share);
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", pass.rss_mb);
    out.samples = lat.len();
    out.note(format!(
        "{} requests at {OFFERED_RPS} req/s offered over {CONNECTIONS} connections, {:.2} s window; latency limit {LATENCY_LIMIT_MS} ms; {} beyond p95",
        plan.len(),
        pass.window_s,
        crate::stats::samples_beyond(&lat, 95.0)
    ));
    sim_share_note(kind, &plan, &done, &pass, &mut out);

    if args.trace {
        layer_metrics(kind, &plan, &pass, &done, &direct, &tracer, &mut out);
        out.trace = Some(tracer);
    }
    out
}

/// How much of each request class's latency is simulation. A cold
/// request's share is the plain `System::run` time of its cells over its
/// latency. Overlap and repeat requests simulate nothing: the note shows
/// it by setting what the processes under test simulated in the window
/// beside what the cold specs' cells make up.
fn sim_share_note(kind: Kind, plan: &[Planned], done: &[Done], pass: &Pass, out: &mut Outcome) {
    let mut shares = Vec::new();
    let mut sim_ms = Vec::new();
    let mut cold_events = 0u64;
    let mut cold_cells = 0u64;
    for (p, d) in plan.iter().zip(done) {
        if p.class != Class::Cold {
            continue;
        }
        let spec = SweepSpec::parse(&p.spec).expect("the benchmark writes valid specs");
        let mut ns = 0.0;
        for c in spec.to_cells() {
            let sys = System::new(c.cfg, &c.workload);
            let t = Instant::now();
            let (_, engine) = sys.run_with_engine_stats();
            ns += t.elapsed().as_nanos() as f64;
            cold_events += engine.events_scheduled + engine.events_chained;
            cold_cells += 1;
        }
        sim_ms.push(ns / 1e6);
        if let Some(l) = d.latency_ms {
            shares.push(ns / 1e6 / l);
        }
    }
    let by_class: Vec<String> = [Class::Cold, Class::Overlap, Class::Repeat]
        .iter()
        .map(|&c| {
            let v: Vec<f64> = plan
                .iter()
                .zip(done)
                .filter(|(p, _)| p.class == c)
                .filter_map(|(_, d)| d.latency_ms)
                .collect();
            format!("{} {} (p50 {:.1} ms)", c.name(), v.len(), median(&v))
        })
        .collect();
    out.note(format!("requests by class: {}", by_class.join(", ")));
    let (what, cold) = match kind {
        Kind::Serve => ("simulation events", cold_events),
        Kind::Fabric => ("simulated cells", cold_cells),
    };
    out.note(format!(
        "simulation share of request time: cold {:.3} (median; {:.2} ms of System::run per cold spec); overlap and repeat 0: {what} in the window {:.0}, of the cold specs' cells {cold}",
        median(&shares),
        median(&sim_ms),
        pass.simulated
    ));
}

fn speedup_of(result: &SweepResult) -> Option<f64> {
    let get = |tag: &str| {
        result.outcomes.iter().find_map(|((t, _), o)| match o {
            CellOutcome::Completed { report, .. } if t == tag => Some(Arc::clone(report)),
            _ => None,
        })
    };
    Some(get("dice36")?.weighted_speedup(&*get("base")?))
}

fn layer_metrics(
    kind: Kind,
    plan: &[Planned],
    pass: &Pass,
    done: &[Done],
    direct: &BTreeMap<String, (String, SweepResult)>,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let ok: Vec<&Done> = done.iter().filter(|d| d.latency_ms.is_some()).collect();
    let class_p50 = |c: Class| -> f64 {
        let v: Vec<f64> = plan
            .iter()
            .zip(done)
            .filter(|(p, d)| p.class == c && d.latency_ms.is_some())
            .filter_map(|(_, d)| d.latency_ms)
            .collect();
        median(&v)
    };
    let pick = |f: &dyn Fn(&Done) -> f64| -> Vec<f64> { ok.iter().map(|d| f(d)).collect() };
    let m = &mut out.metrics;
    m.insert("serve.post_ms", median(&pick(&|d| d.post_ms)));
    m.insert("serve.wait_ms", median(&pick(&|d| d.wait_ms)));
    m.insert("serve.report_ms", median(&pick(&|d| d.report_ms)));
    m.insert("serve.cold_p50_ms", class_p50(Class::Cold));
    m.insert("serve.overlap_p50_ms", class_p50(Class::Overlap));
    m.insert("serve.repeat_p50_ms", class_p50(Class::Repeat));
    m.insert(
        "serve.coalesced_share",
        done.iter().filter(|d| d.coalesced).count() as f64 / done.len().max(1) as f64,
    );
    m.insert(
        "loadgen.lag_p95_ms",
        percentile(&pick(&|d| d.lag_ms), 95.0).unwrap_or(0.0),
    );
    for (k, v) in &pass.extras {
        m.insert(k, *v);
    }
    if kind == Kind::Fabric {
        let overlap_service: Vec<f64> = plan
            .iter()
            .zip(done)
            .filter(|(p, d)| p.class == Class::Overlap && d.latency_ms.is_some())
            .map(|(_, d)| d.service_ms)
            .collect();
        let cell = pass.extras.get("fabric.cell_ms").copied().unwrap_or(0.0);
        m.insert("fabric.hop_overhead_ms", median(&overlap_service) - cell);
    }

    // The sim layers under the service: attribute the first cold spec's
    // cells, and read simulated rates off every direct sweep.
    let mut cells: Vec<(String, SimConfig, WorkloadSet)> = Vec::new();
    for p in plan.iter().filter(|p| p.class == Class::Cold).take(2) {
        let spec = SweepSpec::parse(&p.spec).expect("the benchmark writes valid specs");
        for c in spec.to_cells() {
            cells.push((
                format!("{}/{}#{}", c.tag, c.workload.name, spec.seed),
                c.cfg,
                c.workload,
            ));
        }
    }
    let attributed = attribute_cells(&cells, tracer, out);
    sim_layer_metrics(&attributed, out);
    let profiles: Vec<_> = cells.iter().map(|(_, _, w)| w.specs[0].values).collect();
    let (size_ns, pair_ns) =
        crate::layers::compress_kernels(&profiles, 1, Duration::from_millis(60));
    out.metrics.insert("compress.size_ns_per_line", size_ns);
    out.metrics.insert("compress.pair_ns_per_pair", pair_ns);
    let reports: Vec<Arc<RunReport>> = direct
        .values()
        .flat_map(|(_, r)| r.outcomes.values())
        .filter_map(|o| match o {
            CellOutcome::Completed { report, .. } => Some(Arc::clone(report)),
            _ => None,
        })
        .collect();
    report_metrics(&reports, 8 * MEASURE, out);
    let stats: Vec<SweepStats> = direct.values().map(|(_, r)| SweepStats::of(r)).collect();
    runner_figures(&stats.iter().collect::<Vec<_>>(), out);
}
