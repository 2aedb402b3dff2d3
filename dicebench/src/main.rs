//! The DICE reproduction's benchmark: one command, four workloads, every
//! end-to-end metric by name and unit, and a traced run for the per-layer
//! metrics. Everything is timed from outside the program, through each
//! crate's public functions and the services' HTTP endpoints.
//!
//! ```text
//! dicebench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR
//! ```
//!
//! `--bin-dir` holds the `dice-serve` and `dice-fabric` binaries (the
//! `run.py` wrapper builds them and passes it). The last line of stdout is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. A
//! human-readable table, the notes and any gate failures go to stderr. The
//! exit code is 0 only when every correctness gate passed.

mod calib;
mod layers;
mod service;
mod stats;
mod sweep;
mod tracer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dice_obs::Json;

use crate::layers::TimerCost;
use crate::tracer::{Counters, Tracer};

/// The latency limit behind `goodput_rps`: a request (or, in a sweep, a
/// cell) that takes longer, fails or is refused does not count.
pub const LATENCY_LIMIT_MS: f64 = 500.0;

/// End-to-end metrics: name, unit. `BENCHMARK.json` lists the same.
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "records/s"),
    ("dice_speedup", "ratio"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("success_rate", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit. A layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.tracegen_ns", "ns/record"),
    ("workloads.tracegen_share", "fraction"),
    ("ingest.decode_ns", "ns/record"),
    ("workloads.size_oracle_ns", "ns/call"),
    ("workloads.size_calls_per_record", "calls/record"),
    ("workloads.cold_pages", "pages"),
    ("compress.size_ns_per_line", "ns/line"),
    ("compress.pair_ns_per_pair", "ns/pair"),
    ("cache.l3_ns", "ns/access"),
    ("cache.l3_hit_rate", "fraction"),
    ("core.l4_read_ns", "ns/call"),
    ("core.l4_fill_ns", "ns/call"),
    ("core.l4_writeback_ns", "ns/call"),
    ("core.l4_share", "fraction"),
    ("core.l4_hit_rate", "fraction"),
    ("core.second_probe_rate", "fraction"),
    ("core.cip_accuracy", "fraction"),
    ("dram.access_ns", "ns/call"),
    ("dram.share", "fraction"),
    ("dram.l4_bytes_per_record", "bytes/record"),
    ("dram.mem_bytes_per_record", "bytes/record"),
    ("dram.queue_stalls_per_record", "stalls/record"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.events_per_record", "events/record"),
    ("sim.chain_ratio", "fraction"),
    ("sim.cascades_per_event", "fraction"),
    ("sim.engine_share", "fraction"),
    ("runner.busy_share", "fraction"),
    ("runner.steals", "count"),
    ("runner.tail_idle_ms", "ms"),
    ("runner.cell_p50_ms", "ms"),
    ("runner.cell_p90_ms", "ms"),
    ("serve.healthz_ms", "ms"),
    ("serve.post_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.overlap_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.coalesced_share", "fraction"),
    ("obs.metrics_ms", "ms"),
    ("obs.metrics_bytes", "bytes"),
    ("fabric.cell_ms", "ms"),
    ("fabric.hop_overhead_ms", "ms"),
    ("fabric.journal_bytes_per_req", "bytes/request"),
    ("fabric.retries", "count"),
    ("fabric.hedges", "count"),
    ("fabric.breaker_opened", "count"),
    ("loadgen.lag_p95_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// The benchmark's workloads.
pub const WORKLOADS: &[&str] = &[
    "sweep_membound",
    "sweep_nonmem",
    "serve_mixed",
    "fabric_mixed",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells for sweeps, requests for services.
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong output.
    pub failed: u64,
    /// Gate and self-check failures; any entry makes the run incorrect.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub notes: Vec<String>,
    /// Call-boundary tallies of the layer replay (traced runs).
    pub counters: Counters,
    pub timer: Option<TimerCost>,
    /// The traced run's spans.
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

/// Peak resident set (VmHWM) of `/proc/<pid>`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = match args.workload.as_str() {
        "sweep_membound" => sweep::run(sweep::Kind::MemBound, args, work),
        "sweep_nonmem" => sweep::run(sweep::Kind::NonMem, args, work),
        "serve_mixed" => service::run(service::Kind::Serve, args, work),
        "fabric_mixed" => service::run(service::Kind::Fabric, args, work),
        other => unreachable!("workload {other} was validated"),
    };
    if let Err(e) = stats::self_test() {
        out.fail(e);
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dicebench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let root = PathBuf::from(".dicebench-work");
    let work = WorkDir(root.join(format!(
        "{}-s{}-t{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("dicebench: creating {}: {e}", work.0.display());
        std::process::exit(2);
    }
    let out = run(&args, &work.0);

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // A layer the workload does not run reads 0; an end-to-end
            // metric must always be measured.
            _ if args.trace => 0.0,
            _ => {
                missing.push(name);
                0.0
            }
        };
        metrics.push((name, unit, value));
    }
    let mut failures = out.failures.clone();
    if !missing.is_empty() && out.failures.is_empty() {
        failures.push(format!("end-to-end metrics not measured: {missing:?}"));
    }
    let correct = failures.is_empty() && out.failed == 0;

    eprintln!(
        "dicebench {} seed {} ({} s, trace {}) finished in {:.1} s",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for n in &out.notes {
        eprintln!("  {n}");
    }
    if let Some(t) = out.timer {
        eprintln!(
            "  timer bias {:.1} ns per timed call, {:.1} ns per clock pair",
            t.bias_ns, t.pair_ns
        );
    }
    for &(name, unit, value) in &metrics {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    eprintln!(
        "  attempted {} failed {} latency samples {} -> {}",
        out.attempted,
        out.failed,
        out.samples,
        if correct { "correct" } else { "INCORRECT" }
    );
    for f in &failures {
        eprintln!("  gate failed: {f}");
    }
    if let Some(tracer) = &out.trace {
        // Traces outlive the scratch directory.
        let dir = root.join("traces");
        let path = dir.join(format!("{}-s{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&out.counters).render()));
        match written {
            Ok(()) => eprintln!("  trace written to {}", path.display()),
            Err(e) => eprintln!("  trace not written: {e}"),
        }
    }

    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(out.attempted.max(1))),
        ("failed".into(), Json::u64(out.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        (
                            name.to_owned(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(value)),
                                ("unit".into(), Json::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    drop(work);
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_owned(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_owned(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| (*w).to_owned())
                .collect::<Vec<_>>()
        );
    }
}
