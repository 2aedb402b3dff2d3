//! `bench` — the pinned-seed perf-regression micro-suite.
//!
//! Runs a fixed set of hot-path benchmarks (compression size kernels, the
//! page-batched size oracle, the L4 access loop, the DRAM device model, one
//! end-to-end simulation cell, and streamed `.dtf` trace ingestion), then
//! appends one entry per run to a results file (`BENCH_results.json` by
//! default) recording ops/sec per hot path plus the git revision.
//!
//! Regression tracking: `--against <file>` compares this run to the last
//! committed entry, normalizing by each machine's `calibration_ops`
//! (a fixed pure-ALU loop measured at the same time), and exits non-zero
//! when any hot path is slower by more than `--tolerance` (default 20%).
//! `--baseline-rev REV` pins the comparison to the newest entry recorded
//! at that git revision instead of the newest overall — CI uses this so
//! appending fresh (faster) entries never weakens a gate. `--require
//! NAME:RATIO` (repeatable) demands a calibration-rescaled speedup:
//! the named bench must reach at least RATIO x the baseline or the run
//! fails. `--gate` additionally enforces the size-kernel contract: sizing
//! a line must be at least 2x faster than materializing its compressed
//! payload.
//!
//! Everything is seeded with `0xd1ce`; the workload inputs are identical
//! on every machine and every run.

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant, SystemTime};

use dice_compress::{compress, compress_pair, compressed_size, pair_compressed_size, LineData};
use dice_core::{DramCacheConfig, DramCacheController, Organization, SizeInfo};
use dice_dram::{AccessKind, DramConfig, DramDevice, Location};
use dice_obs::Json;
use dice_sim::{SimConfig, System, WorkloadSet};
use dice_workloads::{line_data, spec_table, DataModel, PageClass, SplitMix64, TraceGen};

const SEED: u64 = 0xd1ce;
/// Minimum measurement window per micro-benchmark.
const WINDOW: Duration = Duration::from_millis(200);

struct Args {
    out: String,
    against: Option<String>,
    baseline_rev: Option<String>,
    tolerance: f64,
    require: Vec<(String, f64)>,
    gate: bool,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_results.json".to_owned(),
        against: None,
        baseline_rev: None,
        tolerance: 0.20,
        require: Vec::new(),
        gate: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--against" => args.against = Some(it.next().expect("--against needs a path")),
            "--baseline-rev" => {
                args.baseline_rev = Some(it.next().expect("--baseline-rev needs a revision"))
            }
            "--tolerance" => {
                args.tolerance = it
                    .next()
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("tolerance must be a number")
            }
            "--require" => {
                let spec = it.next().expect("--require needs NAME:RATIO");
                let (name, ratio) = spec
                    .split_once(':')
                    .expect("--require format is NAME:RATIO");
                args.require.push((
                    name.to_owned(),
                    ratio.parse().expect("ratio must be a number"),
                ));
            }
            "--gate" => args.gate = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench [--out FILE] [--against FILE] [--baseline-rev REV] \
                     [--tolerance F] [--require NAME:RATIO]... [--gate] [--quiet]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Runs `f` (which reports how many operations it performed) repeatedly for
/// at least [`WINDOW`] and returns operations per second.
fn measure<F: FnMut() -> u64>(mut f: F) -> f64 {
    black_box(f()); // warmup: page in code and data
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < WINDOW {
        ops += black_box(f());
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Fixed pure-ALU throughput probe: a SplitMix64 scramble loop whose speed
/// tracks the host's single-core integer performance. Baseline entries
/// recorded on a different machine are rescaled by the ratio of
/// calibrations before regression comparison.
fn calibration() -> f64 {
    measure(|| {
        let mut x = SEED;
        let mut acc = 0u64;
        for _ in 0..100_000u64 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            acc = acc.wrapping_add(z ^ (z >> 31));
        }
        black_box(acc);
        100_000
    })
}

/// A deterministic pool of lines spanning every value class the workload
/// generators synthesize — the same byte patterns the simulator sizes up.
fn line_pool() -> Vec<LineData> {
    let mut pool = Vec::new();
    for class in PageClass::ALL {
        for i in 0..64u64 {
            pool.push(line_data(SEED, class, i));
        }
    }
    pool
}

fn bench_compress_size(pool: &[LineData]) -> f64 {
    measure(|| {
        let mut total = 0usize;
        for line in pool {
            total += compressed_size(line);
        }
        black_box(total);
        pool.len() as u64
    })
}

fn bench_compress_materialize(pool: &[LineData]) -> f64 {
    measure(|| {
        let mut total = 0usize;
        for line in pool {
            total += compress(line).size();
        }
        black_box(total);
        pool.len() as u64
    })
}

fn bench_pair_size(pool: &[LineData]) -> f64 {
    measure(|| {
        let mut total = 0usize;
        for pair in pool.chunks_exact(2) {
            total += pair_compressed_size(&pair[0], &pair[1]);
        }
        black_box(total);
        (pool.len() / 2) as u64
    })
}

fn bench_pair_materialize(pool: &[LineData]) -> f64 {
    measure(|| {
        let mut total = 0usize;
        for pair in pool.chunks_exact(2) {
            total += compress_pair(&pair[0], &pair[1]).total_size();
        }
        black_box(total);
        (pool.len() / 2) as u64
    })
}

/// The page-batched size oracle on a realistic address stream: mostly
/// memo hits (one page-map probe + array index), occasional cold pages.
fn bench_size_oracle() -> f64 {
    let spec = spec_table()
        .into_iter()
        .find(|w| w.name == "mcf")
        .expect("mcf in spec table");
    let mut gen = TraceGen::with_scale(&spec, 0, SEED, 256);
    let addrs: Vec<u64> = (0..50_000).map(|_| gen.next_record().line).collect();
    let mut model = DataModel::new(&spec, SEED);
    measure(|| {
        let mut total = 0u32;
        for &a in &addrs {
            total = total.wrapping_add(model.single_size(a));
            total = total.wrapping_add(model.pair_size(a));
        }
        black_box(total);
        addrs.len() as u64
    })
}

/// Address-derived sizes with zero memo state, isolating controller cost.
struct HashSizes;

impl SizeInfo for HashSizes {
    fn single_size(&mut self, line: u64) -> u32 {
        let h = line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        1 + (h % 64) as u32
    }
    fn pair_size(&mut self, even: u64) -> u32 {
        (self.single_size(even & !1) + self.single_size(even | 1)).saturating_sub(4)
    }
}

/// The L4 controller's steady-state access loop: demand reads, fills on
/// miss, periodic dirty writebacks, continuous evictions.
fn bench_l4_access() -> f64 {
    let cfg = DramCacheConfig::with_capacity(Organization::Dice { threshold: 36 }, 1 << 20);
    let mut l4 = DramCacheController::new(cfg);
    let mut sizes = HashSizes;
    let lines = 4 * l4.num_sets();
    // Warm to steady state before measuring.
    for i in 0..lines {
        let line = (i * 7) % lines;
        let r = l4.read(line);
        if !r.hit {
            l4.fill(line, false, r.probes.last().map(|p| p.set), &mut sizes);
        }
    }
    let mut i = 0u64;
    measure(|| {
        const OPS: u64 = 20_000;
        for _ in 0..OPS {
            let line = (i * 7) % lines;
            let r = l4.read(line);
            if !r.hit {
                l4.fill(line, false, r.probes.last().map(|p| p.set), &mut sizes);
            }
            if i.is_multiple_of(5) {
                l4.writeback(line ^ 1, &mut sizes);
            }
            i += 1;
        }
        OPS
    })
}

/// Per mille of stacked-L4 accesses submitted `[2^k, 2^(k+1))` cycles
/// behind the newest submission on their channel, for k = 0..=11. Counted
/// on `sweep_membound` seed 1 (61 M L4 accesses); 41.5 % arrive in order
/// and 0.24 % reach further back than 4095 cycles (not reproduced here).
const DRAM_BACK_PER_MILLE: [u64; 12] = [5, 10, 17, 28, 48, 83, 125, 100, 69, 54, 34, 12];

/// The DRAM device model (queue, banks, bus placement) on a seeded
/// stacked-L4 stream shaped after counts taken on `sweep_membound` seed 1:
/// one access per channel every ~22 cycles, 39 % writes, 80/64 B transfers
/// in a 4:1 mix, reach-back depths from [`DRAM_BACK_PER_MILLE`], and 83 %
/// of rows from a hot set, giving the sweep's 0.69 row-hit rate. Its bus
/// placement then sees ~400 live intervals and ~2.5 ending after
/// `earliest` per call (the sweep: 339 and 2.9). Each pass replays the
/// stream shifted past the previous one, so the device stays in steady
/// state.
fn bench_dram_access() -> f64 {
    let cfg = DramConfig::stacked_l4();
    let mut rng = SplitMix64::new(SEED);
    let mut clock = 0u64;
    let stream: Vec<(u64, AccessKind, Location, u32)> = (0..50_000)
        .map(|_| {
            clock += rng.below(12);
            let mut draw = rng.below(1000);
            let mut back = 0;
            for (k, &w) in DRAM_BACK_PER_MILLE.iter().enumerate() {
                if draw < w {
                    back = (1 << k) + rng.below(1 << k);
                    break;
                }
                draw -= w;
            }
            let row = if rng.below(100) < 83 {
                rng.below(64)
            } else {
                rng.below(1 << 20)
            };
            let kind = if rng.below(100) < 39 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let bytes = if rng.below(5) == 0 { 64 } else { 80 };
            let at = clock.saturating_sub(back);
            (at, kind, Location::interleave(&cfg, row), bytes)
        })
        .collect();
    let span = clock + (1 << 16);
    let mut dev = DramDevice::new(cfg);
    let mut base = 0;
    measure(|| {
        for &(at, kind, loc, bytes) in &stream {
            black_box(dev.access(base + at, kind, loc, bytes));
        }
        base += span;
        stream.len() as u64
    })
}

/// One scaled-down end-to-end simulation cell (cores + L3 + L4 + DRAM
/// timing + synthesized values), reported as trace records per second.
fn bench_end2end_cell() -> f64 {
    let spec = spec_table()
        .into_iter()
        .find(|w| w.name == "mcf")
        .expect("mcf in spec table");
    let warmup = 2_000u64;
    let measure_records = 6_000u64;
    let records = 8 * (warmup + measure_records);
    let run_once = || {
        let cfg = SimConfig::scaled(Organization::Dice { threshold: 36 }, 1024)
            .with_records(warmup, measure_records);
        // The --gate comparison against the committed baseline doubles as
        // the trace-off performance guard, so it must measure trace-off.
        assert_eq!(cfg.obs.trace_level, dice_obs::TraceLevel::Off);
        let report = System::new(cfg, &WorkloadSet::rate(spec.clone(), SEED)).run();
        black_box(report.cycles);
    };
    run_once(); // warmup
    let mut best = f64::MIN;
    for _ in 0..3 {
        let start = Instant::now();
        run_once();
        best = best.max(records as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Streamed `.dtf` ingestion: records per second decoded off disk through
/// the bounded-memory reader (frame parse + checksum + LZ decompress +
/// delta decode), measured on a freshly packed generator trace.
fn bench_trace_ingest() -> f64 {
    use dice_ingest::{DtfTraceSource, DtfWriter};
    use dice_workloads::TraceSource;
    let path = std::env::temp_dir().join(format!("dice-bench-ingest-{}.dtf", std::process::id()));
    let spec = spec_table()
        .into_iter()
        .find(|w| w.name == "mcf")
        .expect("mcf in spec table");
    let per_core = 60_000u64;
    let mut w = DtfWriter::create(&path, 2, true).expect("creating bench trace");
    for core in 0..2u32 {
        let mut gen = TraceGen::with_scale(&spec, core, SEED, 256);
        for _ in 0..per_core {
            w.push_record(core, gen.next_record())
                .expect("encoding bench trace");
        }
    }
    w.finish().expect("writing bench trace");
    let src = DtfTraceSource::open(&path).expect("opening bench trace");
    let ops = measure(|| {
        let mut stream = src.open_core(0).expect("opening bench stream");
        let mut acc = 0u64;
        for _ in 0..per_core {
            acc = acc.wrapping_add(stream.next_record().line);
        }
        black_box(acc);
        per_core
    });
    let _ = std::fs::remove_file(&path);
    ops
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

fn load_entries(path: &str) -> Vec<Json> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    match Json::parse(&text) {
        Ok(Json::Arr(entries)) => entries,
        _ => Vec::new(),
    }
}

fn bench_value(entry: &Json, name: &str) -> Option<f64> {
    entry.get("benches")?.get(name)?.as_f64()
}

fn main() {
    let args = parse_args();

    let say = |msg: &str| {
        if !args.quiet {
            println!("{msg}");
        }
    };

    let cal = calibration();
    say(&format!("calibration        {cal:>14.0} ops/s"));

    let pool = line_pool();
    let mut benches: Vec<(&str, f64)> = Vec::new();
    let compress_size = bench_compress_size(&pool);
    let compress_mat = bench_compress_materialize(&pool);
    benches.push(("compress_size", compress_size));
    benches.push(("compress_materialize", compress_mat));
    benches.push(("pair_size", bench_pair_size(&pool)));
    benches.push(("pair_materialize", bench_pair_materialize(&pool)));
    benches.push(("size_oracle", bench_size_oracle()));
    benches.push(("l4_access", bench_l4_access()));
    benches.push(("dram_access", bench_dram_access()));
    benches.push(("end2end_cell", bench_end2end_cell()));
    benches.push(("trace_ingest", bench_trace_ingest()));

    let speedup = compress_size / compress_mat;
    for (name, ops) in &benches {
        say(&format!("{name:<18} {ops:>14.0} ops/s"));
    }
    say(&format!(
        "size-kernel speedup vs materializing: {speedup:.2}x"
    ));

    let unix_time = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = Json::Obj(vec![
        ("git_rev".into(), Json::str(git_rev())),
        ("unix_time".into(), Json::u64(unix_time)),
        ("calibration_ops".into(), Json::num(cal)),
        (
            "benches".into(),
            Json::Obj(
                benches
                    .iter()
                    .map(|&(name, ops)| (name.to_owned(), Json::num(ops)))
                    .collect(),
            ),
        ),
        ("compress_size_speedup".into(), Json::num(speedup)),
    ]);

    let mut failures = Vec::new();

    if let Some(against) = &args.against {
        let baseline = load_entries(against);
        // The results file is shared with dice-serve-loadgen, whose
        // serving-throughput entries carry no "benches" section; compare
        // against the newest entry that actually has micro-bench numbers
        // (of the pinned revision, when --baseline-rev asks for one).
        let found = baseline.iter().rev().find(|e| {
            e.get("benches").is_some()
                && args
                    .baseline_rev
                    .as_deref()
                    .is_none_or(|rev| e.get("git_rev").and_then(Json::as_str) == Some(rev))
        });
        match found {
            None => {
                if args.baseline_rev.is_some() || !args.require.is_empty() {
                    // A pinned or required comparison that cannot run is a
                    // failure — CI must not pass because the baseline is
                    // missing.
                    eprintln!(
                        "error: no baseline entry in {against}{}",
                        args.baseline_rev
                            .as_deref()
                            .map(|r| format!(" for rev {r}"))
                            .unwrap_or_default()
                    );
                    std::process::exit(1);
                }
                eprintln!("warning: no baseline entry in {against}; skipping comparison");
            }
            Some(base) => {
                let base_cal = base
                    .get("calibration_ops")
                    .and_then(Json::as_f64)
                    .unwrap_or(cal);
                // Rescale the baseline to this machine's speed.
                let scale = cal / base_cal;
                say(&format!(
                    "comparing against {} (rev {}, machine scale {scale:.2}x)",
                    against,
                    base.get("git_rev").and_then(Json::as_str).unwrap_or("?"),
                ));
                for (name, now) in &benches {
                    let Some(was) = bench_value(base, name) else {
                        continue;
                    };
                    let expected = was * scale;
                    let ratio = now / expected;
                    say(&format!("  {name:<18} {:.2}x of baseline", ratio));
                    if ratio < 1.0 - args.tolerance {
                        failures.push(format!(
                            "{name}: {now:.0} ops/s vs expected {expected:.0} \
                             ({:.0}% of baseline, tolerance {:.0}%)",
                            ratio * 100.0,
                            (1.0 - args.tolerance) * 100.0
                        ));
                    }
                }
                for (name, min_ratio) in &args.require {
                    let now = benches.iter().find(|(n, _)| n == name).map(|&(_, ops)| ops);
                    let was = bench_value(base, name);
                    match (now, was) {
                        (Some(now), Some(was)) => {
                            let ratio = now / (was * scale);
                            if ratio < *min_ratio {
                                failures.push(format!(
                                    "required speedup not met: {name} is {ratio:.2}x \
                                     the baseline (need >= {min_ratio:.2}x)"
                                ));
                            } else {
                                say(&format!(
                                    "  required {name} >= {min_ratio:.2}x: met ({ratio:.2}x)"
                                ));
                            }
                        }
                        _ => failures.push(format!(
                            "required bench {name} missing from this run or the baseline"
                        )),
                    }
                }
            }
        }
    }

    if args.gate && speedup < 2.0 {
        failures.push(format!(
            "size-kernel gate: compress_size is only {speedup:.2}x \
             the materializing path (need >= 2x)"
        ));
    }

    let mut entries = load_entries(&args.out);
    entries.push(entry);
    let rendered = Json::Arr(entries).render();
    if let Err(e) = std::fs::write(&args.out, rendered + "\n") {
        eprintln!("error: cannot write {}: {e}", args.out);
        std::process::exit(2);
    }
    say(&format!("appended entry to {}", args.out));

    if !failures.is_empty() {
        eprintln!("PERF REGRESSION:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
