//! `dice-serve-loadgen`: a closed-loop load generator and CI probe for
//! `dice-serve`.
//!
//! Modes:
//!
//! ```text
//! # hammer the server with a mixed cold/warm sweep load, append a
//! # serving-throughput entry to BENCH_results.json:
//! dice-serve-loadgen --url 127.0.0.1:PORT [--requests N] [--concurrency C]
//!                    [--distinct D] [--out FILE] [--no-append] [--quiet]
//!
//! # submit one sweep and print the canonical report body (byte-exact):
//! dice-serve-loadgen --url 127.0.0.1:PORT --spec '<json>'
//!
//! # run the same spec directly through dice-runner and print the same
//! # canonical body (byte-exact), for equivalence checks:
//! dice-serve-loadgen --direct '<json>'
//!
//! # fetch /metrics and validate it as Prometheus 0.0.4 exposition:
//! dice-serve-loadgen --url 127.0.0.1:PORT --check-metrics
//!
//! # submit a tiny sweep and validate /v1/sweeps/:id/trace as a Chrome
//! # trace; version-gated, so a server predating the endpoint passes:
//! dice-serve-loadgen --url 127.0.0.1:PORT --check-trace
//!
//! # boot a dice-fabric worker fleet + coordinator per stage and measure
//! # closed-loop throughput at each fleet size, appending a
//! # fabric_scaling entry to BENCH_results.json:
//! dice-serve-loadgen --fabric path/to/dice-fabric [--fabric-workers 1,2,4]
//!                    [--requests N] [--concurrency C] [--out FILE]
//!                    [--no-append] [--quiet]
//! ```
//!
//! The default load is `--requests` submissions of a tiny sweep whose
//! seed cycles over `--distinct` values: the first submission of each
//! seed is cold (simulates), repeats are warm (single-flight coalescing
//! or a finished job), which is exactly the mixed regime a result
//! service sees.

use std::io::Write;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use dice_obs::{validate_chrome_trace, Json};
use dice_runner::{Runner, RunnerConfig};
use dice_serve::{
    http_get, http_post, render_runs, validate_prometheus, wait_sweep_end, SweepSpec,
};

struct Args {
    url: Option<String>,
    requests: usize,
    concurrency: usize,
    distinct: usize,
    out: String,
    append: bool,
    quiet: bool,
    spec: Option<String>,
    direct: Option<String>,
    check_metrics: bool,
    check_trace: bool,
    fabric: Option<String>,
    fabric_workers: Vec<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dice-serve-loadgen --url HOST:PORT [--requests N] [--concurrency C] \
         [--distinct D] [--out FILE] [--no-append] [--quiet]\n\
         \x20      dice-serve-loadgen --url HOST:PORT --spec '<json>'\n\
         \x20      dice-serve-loadgen --direct '<json>'\n\
         \x20      dice-serve-loadgen --url HOST:PORT --check-metrics\n\
         \x20      dice-serve-loadgen --url HOST:PORT --check-trace\n\
         \x20      dice-serve-loadgen --fabric BIN [--fabric-workers 1,2,4] \
         [--requests N] [--concurrency C]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        url: None,
        requests: 40,
        concurrency: 4,
        distinct: 4,
        out: "BENCH_results.json".to_owned(),
        append: true,
        quiet: false,
        spec: None,
        direct: None,
        check_metrics: false,
        check_trace: false,
        fabric: None,
        fabric_workers: vec![1, 2, 4],
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("dice-serve-loadgen: {arg} needs {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--url" => parsed.url = Some(normalize_url(&value("a host:port"))),
            "--requests" => parsed.requests = value("a count").parse().unwrap_or_else(|_| usage()),
            "--concurrency" => {
                parsed.concurrency = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--distinct" => parsed.distinct = value("a count").parse().unwrap_or_else(|_| usage()),
            "--out" => parsed.out = value("a file"),
            "--no-append" => parsed.append = false,
            "--quiet" => parsed.quiet = true,
            "--spec" => parsed.spec = Some(value("a JSON spec")),
            "--direct" => parsed.direct = Some(value("a JSON spec")),
            "--check-metrics" => parsed.check_metrics = true,
            "--check-trace" => parsed.check_trace = true,
            "--fabric" => parsed.fabric = Some(value("a dice-fabric binary path")),
            "--fabric-workers" => {
                parsed.fabric_workers = value("a comma list of fleet sizes")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if parsed.fabric_workers.is_empty() {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    parsed
}

/// Accepts `http://host:port[/]` or bare `host:port`.
fn normalize_url(url: &str) -> String {
    url.trim_start_matches("http://")
        .trim_end_matches('/')
        .to_owned()
}

/// The tiny sweep used in load mode; the seed makes it cold or warm.
fn load_spec(seed: usize) -> String {
    format!(
        r#"{{"orgs":["base"],"workloads":["gcc"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
    )
}

/// Prints exactly `body` (no trailing newline) so shell `cmp` against
/// another emitter's output is meaningful.
fn emit_body(body: &str) {
    let mut out = std::io::stdout();
    out.write_all(body.as_bytes()).expect("write stdout");
    out.flush().expect("flush stdout");
}

/// `--direct`: run the spec through the runner in-process and print the
/// canonical document.
fn run_direct(spec_text: &str) -> i32 {
    let spec = match SweepSpec::parse(spec_text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("dice-serve-loadgen: {e}");
            return 2;
        }
    };
    let runner = Runner::new(RunnerConfig::default()).expect("no cache dir, cannot fail");
    let result = runner.run(spec.to_cells());
    emit_body(&render_runs(&result).render());
    0
}

/// Submits one spec and waits for the report body; returns
/// `(job id, body, coalesced)`. `Err` carries a human-readable failure.
fn submit_and_wait(addr: &str, spec_text: &str) -> Result<(String, String, bool), String> {
    let submitted = loop {
        let resp = http_post(addr, "/v1/sweeps", spec_text)
            .map_err(|e| format!("POST /v1/sweeps: {e}"))?;
        match resp.status {
            202 => break resp,
            429 => std::thread::sleep(Duration::from_millis(100)),
            s => return Err(format!("POST /v1/sweeps: HTTP {s}: {}", resp.text())),
        }
    };
    let body = Json::parse(&submitted.text()).map_err(|e| format!("submit response: {e}"))?;
    let id = body
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit response missing id")?
        .to_owned();
    let coalesced = body.get("coalesced") == Some(&Json::Bool(true));

    let end = match wait_sweep_end(addr, &id, Duration::from_secs(120)) {
        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => return Err("sweep timed out".into()),
        end => end.map_err(|e| format!("GET events: {e}"))?,
    };
    match end.as_deref() {
        Some("done") => {}
        Some("failed") => {
            let status = http_get(addr, &format!("/v1/sweeps/{id}"))
                .map_err(|e| format!("GET status: {e}"))?;
            return Err(format!("sweep failed: {}", status.text()));
        }
        Some("cancelled") => return Err("sweep cancelled".to_owned()),
        _ => return Err("event stream ended without an end record".to_owned()),
    }
    let report = http_get(addr, &format!("/v1/sweeps/{id}/report"))
        .map_err(|e| format!("GET report: {e}"))?;
    if report.status != 200 {
        return Err(format!("GET report: HTTP {}", report.status));
    }
    Ok((id, report.text(), coalesced))
}

/// `--check-trace`: run a tiny sweep, then validate the trace endpoint.
/// The probe is version-gated: a server built from this crate version
/// must serve a valid Chrome trace, while an older server that predates
/// the endpoint may legitimately answer 404.
fn run_check_trace(addr: &str) -> i32 {
    let server_version = match http_get(addr, "/version") {
        Ok(resp) if resp.status == 200 => Json::parse(&resp.text())
            .ok()
            .and_then(|doc| doc.get("version").and_then(Json::as_str).map(str::to_owned)),
        _ => None,
    };
    let id = match submit_and_wait(addr, &load_spec(0)) {
        Ok((id, _body, _)) => id,
        Err(e) => {
            eprintln!("dice-serve-loadgen: {e}");
            return 1;
        }
    };
    let resp = match http_get(addr, &format!("/v1/sweeps/{id}/trace")) {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("dice-serve-loadgen: GET trace: {e}");
            return 1;
        }
    };
    match resp.status {
        200 => {
            let doc = match Json::parse(&resp.text()) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("dice-serve-loadgen: trace is not JSON: {e}");
                    return 1;
                }
            };
            if let Err(e) = validate_chrome_trace(&doc) {
                eprintln!("dice-serve-loadgen: trace invalid: {e}");
                return 1;
            }
            println!(
                "/v1/sweeps/:id/trace is a valid Chrome trace ({} events)",
                doc.as_arr().map_or(0, |events| events.len())
            );
            0
        }
        404 if server_version.as_deref() != Some(env!("CARGO_PKG_VERSION")) => {
            println!(
                "server version {} predates the trace endpoint; 404 tolerated",
                server_version.as_deref().unwrap_or("unknown")
            );
            0
        }
        s => {
            eprintln!(
                "dice-serve-loadgen: GET trace: HTTP {s} from server version {}",
                server_version.as_deref().unwrap_or("unknown")
            );
            1
        }
    }
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Load mode: closed-loop clients over a mixed cold/warm spec set.
fn run_load(args: &Args, addr: &str) -> i32 {
    let say = |msg: &str| {
        if !args.quiet {
            println!("{msg}");
        }
    };
    let next = AtomicUsize::new(0);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(args.requests));
    let coalesced = AtomicUsize::new(0);
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..args.concurrency.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= args.requests {
                    return;
                }
                let spec = load_spec(i % args.distinct.max(1));
                let t0 = Instant::now();
                match submit_and_wait(addr, &spec) {
                    Ok((_id, _body, was_coalesced)) => {
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        latencies.lock().expect("latencies").push(ms);
                        if was_coalesced {
                            coalesced.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) => failures.lock().expect("failures").push(e),
                }
            });
        }
    });

    let wall = started.elapsed().as_secs_f64();
    let failures = failures.into_inner().expect("failures");
    let mut latencies = latencies.into_inner().expect("latencies");
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    if !failures.is_empty() {
        eprintln!(
            "dice-serve-loadgen: {} of {} requests failed; first: {}",
            failures.len(),
            args.requests,
            failures[0]
        );
        return 1;
    }

    let completed = latencies.len();
    let req_per_s = completed as f64 / wall.max(1e-9);
    let p50 = percentile(&latencies, 50.0);
    let p90 = percentile(&latencies, 90.0);
    let p99 = percentile(&latencies, 99.0);
    let coalesced = coalesced.load(Ordering::Relaxed);
    say(&format!(
        "{completed} requests ({} distinct sweeps, {coalesced} coalesced) on {} clients in {wall:.2}s",
        args.distinct, args.concurrency
    ));
    say(&format!(
        "throughput {req_per_s:>8.1} req/s   latency p50 {p50:.1} ms, p90 {p90:.1} ms, p99 {p99:.1} ms"
    ));

    if args.append {
        let unix_time = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let entry = Json::Obj(vec![
            ("git_rev".into(), Json::str(git_rev())),
            ("unix_time".into(), Json::u64(unix_time)),
            (
                "serve".into(),
                Json::Obj(vec![
                    ("requests".into(), Json::u64(completed as u64)),
                    ("concurrency".into(), Json::u64(args.concurrency as u64)),
                    ("distinct".into(), Json::u64(args.distinct as u64)),
                    ("coalesced".into(), Json::u64(coalesced as u64)),
                    ("req_per_s".into(), Json::num(req_per_s)),
                    ("p50_ms".into(), Json::num(p50)),
                    ("p90_ms".into(), Json::num(p90)),
                    ("p99_ms".into(), Json::num(p99)),
                ]),
            ),
        ]);
        let mut entries = match std::fs::read_to_string(&args.out) {
            Ok(text) => match Json::parse(&text) {
                Ok(Json::Arr(entries)) => entries,
                _ => Vec::new(),
            },
            Err(_) => Vec::new(),
        };
        entries.push(entry);
        if let Err(e) = std::fs::write(&args.out, Json::Arr(entries).render()) {
            eprintln!("dice-serve-loadgen: writing {}: {e}", args.out);
            return 1;
        }
        say(&format!("appended serving entry to {}", args.out));
    }
    0
}

/// A spawned fabric node process, killed (and reaped) on drop so a
/// failed stage never leaks workers.
struct FabricNode {
    child: std::process::Child,
}

impl Drop for FabricNode {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a `dice-fabric` role and scrapes the announced address from
/// its `… listening on 127.0.0.1:PORT` stdout line.
fn spawn_fabric_node(bin: &str, node_args: &[String]) -> Result<(FabricNode, String), String> {
    use std::io::BufRead;
    let mut child = Command::new(bin)
        .args(node_args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {bin}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout piped");
    let node = FabricNode { child };
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading {bin} stdout: {e}"))?;
        if n == 0 {
            return Err(format!("{bin} exited before announcing its address"));
        }
        if let Some(at) = line.find("listening on ") {
            let addr = line[at + "listening on ".len()..].trim().to_owned();
            return Ok((node, addr));
        }
    }
}

/// The sweep driven per fabric request: one cell heavy enough
/// (~200 ms) that simulation time, not HTTP overhead, dominates — the
/// regime where worker count should show in throughput.
fn fabric_spec(seed: usize) -> String {
    format!(
        r#"{{"orgs":["base"],"workloads":["gcc"],"scale":64,"warmup":2000,"measure":20000,"seed":{seed}}}"#
    )
}

/// `--fabric`: per fleet size, boot that many workers plus a
/// coordinator, drive a cold closed-loop sweep load through the fabric,
/// and record throughput. Every request is a distinct single-cell spec
/// against a fresh per-stage cache, so each stage measures pure
/// simulation throughput — the quantity that should scale with workers.
/// Closed-loop clients scale with the fleet (4 per worker, the workers'
/// cell parallelism) so offered load never caps the larger stages.
///
/// Workers are processes on the local host, so speedup is bounded by
/// host parallelism: with `host_cpus` cores, stages beyond that size
/// measure coordination overhead at constant aggregate simulation
/// throughput rather than scaling. The entry records `host_cpus` and
/// flags each oversubscribed stage (and the run) `cpu_bound: true`, with
/// a stderr warning as the stage starts, so the numbers stay
/// interpretable.
fn run_fabric(args: &Args, bin: &str) -> i32 {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let say = |msg: &str| {
        if !args.quiet {
            println!("{msg}");
        }
    };
    let mut stages: Vec<(usize, usize, f64, bool)> = Vec::new();
    for (stage, &fleet) in args.fabric_workers.iter().enumerate() {
        let fleet = fleet.max(1);
        let cpu_bound = host_cpus < fleet;
        if cpu_bound {
            eprintln!(
                "dice-serve-loadgen: warning: {fleet} workers on {host_cpus} host cpu{}: \
                 this stage is CPU-bound and measures coordination overhead, not scaling",
                if host_cpus == 1 { "" } else { "s" }
            );
        }
        let concurrency = args.concurrency.max(4 * fleet);
        let mut nodes: Vec<FabricNode> = Vec::new();
        let mut worker_flags: Vec<String> = Vec::new();
        for i in 0..fleet {
            let cache = std::env::temp_dir().join(format!(
                "dice-fabric-loadgen-{}-{stage}-{i}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&cache);
            let spawned = spawn_fabric_node(
                bin,
                &[
                    "worker".to_owned(),
                    "--port".to_owned(),
                    "0".to_owned(),
                    "--conn-workers".to_owned(),
                    "4".to_owned(),
                    "--cache".to_owned(),
                    cache.display().to_string(),
                ],
            );
            match spawned {
                Ok((node, addr)) => {
                    nodes.push(node);
                    worker_flags.push("--worker".to_owned());
                    worker_flags.push(addr);
                }
                Err(e) => {
                    eprintln!("dice-serve-loadgen: {e}");
                    return 1;
                }
            }
        }
        let mut coord_args = vec![
            "coordinator".to_owned(),
            "--port".to_owned(),
            "0".to_owned(),
            "--conn-workers".to_owned(),
            concurrency.max(4).to_string(),
            "--capacity".to_owned(),
            (2 * concurrency).to_string(),
            "--scatter-width".to_owned(),
            "8".to_owned(),
        ];
        coord_args.extend(worker_flags);
        let (coordinator, addr) = match spawn_fabric_node(bin, &coord_args) {
            Ok(spawned) => spawned,
            Err(e) => {
                eprintln!("dice-serve-loadgen: {e}");
                return 1;
            }
        };

        let next = AtomicUsize::new(0);
        let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..concurrency {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= args.requests {
                        return;
                    }
                    // Unique seeds: every request is a cold, distinct
                    // cell, spread over the ring by its key.
                    if let Err(e) = submit_and_wait(&addr, &fabric_spec(i)) {
                        failures.lock().expect("failures").push(e);
                    }
                });
            }
        });
        let wall = started.elapsed().as_secs_f64();
        drop(coordinator);
        drop(nodes);

        let failures = failures.into_inner().expect("failures");
        if !failures.is_empty() {
            eprintln!(
                "dice-serve-loadgen: fabric stage with {fleet} workers: {} of {} requests \
                 failed; first: {}",
                failures.len(),
                args.requests,
                failures[0]
            );
            return 1;
        }
        let req_per_s = args.requests as f64 / wall.max(1e-9);
        say(&format!(
            "fabric {fleet} worker{}: {} requests on {concurrency} clients in {wall:.2}s \
             ({req_per_s:.1} req/s, {host_cpus} host cpu{})",
            if fleet == 1 { "" } else { "s" },
            args.requests,
            if host_cpus == 1 { "" } else { "s" },
        ));
        stages.push((fleet, concurrency, req_per_s, cpu_bound));
    }

    if args.append {
        let unix_time = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let stage_docs = stages
            .iter()
            .map(|&(fleet, concurrency, req_per_s, cpu_bound)| {
                Json::Obj(vec![
                    ("workers".into(), Json::u64(fleet as u64)),
                    ("concurrency".into(), Json::u64(concurrency as u64)),
                    ("req_per_s".into(), Json::num(req_per_s)),
                    ("cpu_bound".into(), Json::Bool(cpu_bound)),
                ])
            })
            .collect();
        let any_cpu_bound = stages.iter().any(|&(.., cpu_bound)| cpu_bound);
        let entry = Json::Obj(vec![
            ("git_rev".into(), Json::str(git_rev())),
            ("unix_time".into(), Json::u64(unix_time)),
            (
                "fabric_scaling".into(),
                Json::Obj(vec![
                    ("requests".into(), Json::u64(args.requests as u64)),
                    ("host_cpus".into(), Json::u64(host_cpus as u64)),
                    ("cpu_bound".into(), Json::Bool(any_cpu_bound)),
                    ("stages".into(), Json::Arr(stage_docs)),
                ]),
            ),
        ]);
        let mut entries = match std::fs::read_to_string(&args.out) {
            Ok(text) => match Json::parse(&text) {
                Ok(Json::Arr(entries)) => entries,
                _ => Vec::new(),
            },
            Err(_) => Vec::new(),
        };
        entries.push(entry);
        if let Err(e) = std::fs::write(&args.out, Json::Arr(entries).render()) {
            eprintln!("dice-serve-loadgen: writing {}: {e}", args.out);
            return 1;
        }
        say(&format!("appended fabric_scaling entry to {}", args.out));
    }
    0
}

fn main() {
    let args = parse_args();

    if let Some(spec) = &args.direct {
        std::process::exit(run_direct(spec));
    }

    if let Some(bin) = args.fabric.clone() {
        std::process::exit(run_fabric(&args, &bin));
    }

    let Some(addr) = args.url.as_deref() else {
        usage();
    };

    if args.check_metrics {
        let resp = match http_get(addr, "/metrics") {
            Ok(resp) if resp.status == 200 => resp,
            Ok(resp) => {
                eprintln!("dice-serve-loadgen: GET /metrics: HTTP {}", resp.status);
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("dice-serve-loadgen: GET /metrics: {e}");
                std::process::exit(1);
            }
        };
        match validate_prometheus(&resp.text()) {
            Ok(()) => {
                println!("/metrics is valid Prometheus exposition");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("dice-serve-loadgen: /metrics invalid: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.check_trace {
        std::process::exit(run_check_trace(addr));
    }

    if let Some(spec) = &args.spec {
        match submit_and_wait(addr, spec) {
            Ok((_id, body, _)) => {
                emit_body(&body);
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("dice-serve-loadgen: {e}");
                std::process::exit(1);
            }
        }
    }

    std::process::exit(run_load(&args, addr));
}
