//! The two sweep workloads: cold `Runner` sweeps timed from outside.
//!
//! * `sweep_membound`: {base, tsi, bai, dice36} x the 26 memory-intensive
//!   workloads (Fig. 10).
//! * `sweep_nonmem`: {base, dice36} x the 13 non-memory-intensive
//!   workloads (Fig. 13), each twice: synthesized by `TraceGen`, and
//!   streamed from a `.dtf` file of the same records packed during set-up.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dice_core::Organization;
use dice_ingest::{pack_sources, TraceBinding};
use dice_runner::{Cell, CellOutcome, ProgressSink, Runner, RunnerConfig, SweepResult};
use dice_serve::render_runs;
use dice_sim::{geomean, RunReport, SimConfig, System, WorkloadSet};
use dice_workloads::{RecordSource, SplitMix64, TraceGen};

use crate::calib::Calibrator;
use crate::layers::{attribute, compress_kernels, CellAttribution, TimerCost};
use crate::stats::{median, percentile};
use crate::tracer::{Counters, Tracer};
use crate::{Args, Outcome, LATENCY_LIMIT_MS};

/// Footprint and cache scale of both sweeps.
pub const SCALE: u64 = 1024;
/// Warm-up records per core before the measured window.
pub const WARMUP: u64 = 2_000;
/// Measured records per core.
pub const MEASURE: u64 = 4_000;
/// Runner worker threads.
const JOBS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Cells re-run on the reference (heap) engine per run.
const REFERENCE_CELLS: usize = 2;
/// Workloads whose cells the traced run attributes layer by layer.
const ATTRIBUTED_WORKLOADS: usize = 2;

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MemBound,
    NonMem,
}

/// Suffix naming a `.dtf`-streamed twin of a synthesized workload.
const DTF_SUFFIX: &str = "@dtf";

fn orgs(kind: Kind) -> Vec<(&'static str, Organization)> {
    let base = ("base", Organization::UncompressedAlloy);
    let dice = ("dice36", Organization::Dice { threshold: 36 });
    match kind {
        Kind::MemBound => vec![
            base,
            ("tsi", Organization::CompressedTsi),
            ("bai", Organization::CompressedBai),
            dice,
        ],
        Kind::NonMem => vec![base, dice],
    }
}

fn config(org: Organization) -> SimConfig {
    SimConfig::scaled(org, SCALE).with_records(WARMUP, MEASURE)
}

/// Cells of one sweep plus what the gates need to know about them.
struct Plan {
    cells: Vec<Cell>,
    /// Synthesized workload sets, in presentation order.
    workloads: Vec<WorkloadSet>,
    /// `.dtf` twins (nonmem only), parallel to `workloads`.
    twins: Vec<WorkloadSet>,
}

/// Builds the sweep's cells, packing the `.dtf` twins into `dir`.
fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<Plan, String> {
    let workloads: Vec<WorkloadSet> = match kind {
        Kind::MemBound => dice_bench::workloads::all26(seed)
            .into_iter()
            .map(|(_, w)| w)
            .collect(),
        Kind::NonMem => dice_bench::workloads::nonmem(seed),
    };
    let mut twins = Vec::new();
    if kind == Kind::NonMem {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        for wl in &workloads {
            let spec = wl.specs[0].clone();
            let path = dir.join(format!("{}.dtf", wl.name));
            let mut sources: Vec<Box<dyn RecordSource>> = (0..8u32)
                .map(|core| {
                    Box::new(TraceGen::with_scale(&spec, core, wl.seed, SCALE))
                        as Box<dyn RecordSource>
                })
                .collect();
            pack_sources(&path, &mut sources, WARMUP + MEASURE, false)
                .map_err(|e| format!("packing {}: {e}", path.display()))?;
            let binding = TraceBinding::open(&path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            twins.push(WorkloadSet::traced(
                &format!("{}{DTF_SUFFIX}", wl.name),
                spec,
                wl.seed,
                binding,
            ));
        }
    }
    let mut cells = Vec::new();
    for (tag, org) in orgs(kind) {
        for wl in workloads.iter().chain(&twins) {
            cells.push(Cell::new(tag, config(org), wl.clone()));
        }
    }
    Ok(Plan {
        cells,
        workloads,
        twins,
    })
}

fn runner(progress: Option<ProgressSink>) -> Runner {
    Runner::new(RunnerConfig {
        jobs: JOBS,
        progress,
        ..RunnerConfig::default()
    })
    .expect("a runner without a cache directory cannot fail to open")
}

/// What the runner reported about one sweep, kept after its reports are
/// dropped.
pub struct SweepStats {
    pub jobs: usize,
    pub wall_s: f64,
    /// Exact wall time of every completed cell, ms.
    pub cell_walls_ms: Vec<f64>,
    pub steals: u64,
    pub tail_idle_ms: u64,
}

impl SweepStats {
    pub fn of(result: &SweepResult) -> Self {
        Self {
            jobs: result.jobs,
            wall_s: result.wall.as_secs_f64(),
            cell_walls_ms: result
                .outcomes
                .values()
                .filter_map(|o| match o {
                    CellOutcome::Completed { wall, .. } => Some(wall.as_secs_f64() * 1e3),
                    _ => None,
                })
                .collect(),
            steals: result.steals,
            tail_idle_ms: result.tail_idle_ms,
        }
    }
}

/// One timed sweep repetition. Only the first repetition's reports are
/// kept (in `Measured::first`); later ones are compared and dropped, so
/// the process's memory does not grow with the number of repetitions.
struct Rep {
    wall: Duration,
    /// Host-speed factor of the repetition's period (see `calib`).
    speed: f64,
    stats: SweepStats,
}

impl Rep {
    /// The repetition's wall time in reference seconds.
    fn ref_s(&self) -> f64 {
        self.wall.as_secs_f64() * self.speed
    }
}

/// Repetitions of one sweep and their gate results.
struct Measured {
    /// The first repetition's result and rendered document.
    first: Option<(SweepResult, String)>,
    /// Repetitions checked so far.
    reps: usize,
    failures: Failures,
}

impl Measured {
    fn new() -> Self {
        Self {
            first: None,
            reps: 0,
            failures: Failures::default(),
        }
    }

    fn first(&self) -> &SweepResult {
        &self.first.as_ref().expect("at least one repetition").0
    }

    /// Gates one repetition: every cell completed, and the rendered
    /// document equals the first repetition's byte for byte.
    fn check(&mut self, plan: &Plan, result: SweepResult) -> SweepStats {
        let rep = self.reps;
        self.reps += 1;
        for cell in &plan.cells {
            let (tag, wl) = (&cell.tag, &cell.workload.name);
            match result.outcomes.get(&(tag.clone(), wl.clone())) {
                Some(CellOutcome::Completed { .. }) => {}
                Some(CellOutcome::Failed { error }) => {
                    self.failures.fail(rep, tag, wl, format!("failed: {error}"))
                }
                Some(CellOutcome::TimedOut { .. }) => {
                    self.failures.fail(rep, tag, wl, "timed out".into())
                }
                None => self.failures.fail(rep, tag, wl, "not reported".into()),
            }
        }
        let stats = SweepStats::of(&result);
        let rendered = render_runs(&result).render();
        match &self.first {
            None => self.first = Some((result, rendered)),
            Some((first, first_rendered)) if *first_rendered != rendered => {
                for (tag, wl) in result.outcomes.keys() {
                    let a = completed(&result, tag, wl).map(|r| r.to_json().render());
                    let b = completed(first, tag, wl).map(|r| r.to_json().render());
                    if a != b {
                        self.failures
                            .fail(rep, tag, wl, "report differs between repetitions".into());
                    }
                }
            }
            Some(_) => {}
        }
        stats
    }
}

fn records_per_sweep(plan: &Plan) -> u64 {
    plan.cells.len() as u64 * 8 * (WARMUP + MEASURE)
}

fn completed(result: &SweepResult, tag: &str, workload: &str) -> Option<Arc<RunReport>> {
    match result.outcomes.get(&(tag.to_owned(), workload.to_owned())) {
        Some(CellOutcome::Completed { report, .. }) => Some(Arc::clone(report)),
        _ => None,
    }
}

/// Failed operations, one per (repetition, tag, workload), and the first
/// reason given for each cell.
#[derive(Default)]
struct Failures {
    ops: BTreeSet<(usize, String, String)>,
    cells: BTreeMap<(String, String), String>,
}

impl Failures {
    fn fail(&mut self, rep: usize, tag: &str, wl: &str, why: String) {
        self.ops.insert((rep, tag.to_owned(), wl.to_owned()));
        self.cells
            .entry((tag.to_owned(), wl.to_owned()))
            .or_insert(why);
    }
}

/// The gates on the first repetition (counted against its cells): sampled
/// cells match the reference engine, and each `.dtf` twin matches its
/// synthesized twin apart from the name.
fn gate_first(kind: Kind, plan: &Plan, first: &SweepResult, seed: u64, failures: &mut Failures) {
    let mut rng = SplitMix64::new(seed ^ 0x7ef0_e7ce);
    for _ in 0..REFERENCE_CELLS {
        let cell = &plan.cells[rng.below(plan.cells.len() as u64) as usize];
        let mut sys = System::new(cell.cfg.clone(), &cell.workload);
        sys.use_reference_engine();
        let reference = sys.run().to_json().render();
        let swept = completed(first, &cell.tag, &cell.workload.name).map(|r| r.to_json().render());
        if swept.as_deref() != Some(reference.as_str()) {
            failures.fail(
                0,
                &cell.tag,
                &cell.workload.name,
                "differs from the reference engine".into(),
            );
        }
    }

    if kind == Kind::NonMem {
        for (wl, twin) in plan.workloads.iter().zip(&plan.twins) {
            for (tag, _) in orgs(kind) {
                let same = match (
                    completed(first, tag, &wl.name),
                    completed(first, tag, &twin.name),
                ) {
                    (Some(s), Some(d)) => {
                        let mut renamed = (*d).clone();
                        renamed.workload.clone_from(&s.workload);
                        renamed.to_json().render() == s.to_json().render()
                    }
                    _ => false,
                };
                if !same {
                    failures.fail(0, tag, &twin.name, "differs from its synthesized twin".into());
                }
            }
        }
    }
}

/// Geomean weighted speedup of dice36 over base across the synthesized
/// workloads of one repetition.
fn dice_speedup(plan: &Plan, result: &SweepResult) -> f64 {
    let speedups: Vec<f64> = plan
        .workloads
        .iter()
        .filter_map(|wl| {
            let base = completed(result, "base", &wl.name)?;
            let dice = completed(result, "dice36", &wl.name)?;
            Some(dice.weighted_speedup(&base))
        })
        .collect();
    geomean(&speedups)
}

/// Repeats the sweep until `budget` has passed (at least twice), gating
/// each repetition as it finishes.
fn measure(
    cal: &Calibrator,
    plan: &Plan,
    budget: Duration,
    tracer: Option<&Tracer>,
    into: &mut Measured,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || start.elapsed() < budget {
        let sweep_id = reps.len() as u64 + 1;
        let ends: Arc<Mutex<Vec<(String, String, u64)>>> = Arc::default();
        let progress = tracer.map(|tracer| {
            let ends = Arc::clone(&ends);
            let origin = Instant::now();
            let base = tracer.at(origin);
            ProgressSink::new(move |p| {
                let at = base + origin.elapsed().as_nanos() as u64;
                ends.lock()
                    .expect("progress lock poisoned")
                    .push((p.tag, p.workload, at));
            })
        });
        let r = runner(progress);
        let (result, wall, speed) = cal.calibrated(|| r.run(plan.cells.clone()));
        if let Some(tracer) = tracer {
            trace_sweep(
                tracer,
                sweep_id,
                &result,
                wall,
                &ends.lock().expect("progress lock poisoned"),
            );
        }
        let stats = into.check(plan, result);
        reps.push(Rep { wall, speed, stats });
    }
    reps
}

/// A sweep span and one span per cell. Cell spans end when the runner
/// reports the cell and last its exact wall time; the sweep span ends
/// with the last report and lasts the sweep's wall time.
fn trace_sweep(
    tracer: &Tracer,
    sweep_id: u64,
    result: &SweepResult,
    wall: Duration,
    ends: &[(String, String, u64)],
) {
    let span = tracer.reserve();
    let end = ends
        .iter()
        .map(|e| e.2)
        .max()
        .unwrap_or_else(|| tracer.now_ns());
    tracer.close(
        span,
        0,
        sweep_id,
        "sweep",
        end.saturating_sub(wall.as_nanos() as u64),
        end,
    );
    for (tag, wl, at) in ends {
        if let Some(CellOutcome::Completed { wall, .. }) =
            result.outcomes.get(&(tag.clone(), wl.clone()))
        {
            tracer.record(
                span,
                sweep_id,
                "cell",
                at.saturating_sub(wall.as_nanos() as u64),
                *at,
            );
        }
    }
}

fn rss_self_mb() -> f64 {
    crate::peak_rss_mb("self").unwrap_or(0.0)
}

/// Runs one sweep workload. Untraced runs report the end-to-end metrics;
/// traced runs the per-layer ones.
pub fn run(kind: Kind, args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;

    let cal = Calibrator::new();
    // Set-up: build cells, pack the .dtf twins, warm up on one workload
    // per organization. Repeated; the last plan is the one measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_host_s = Vec::with_capacity(SETUPS);
    let mut plan = None;
    for i in 0..SETUPS {
        let (p, wall, speed) = cal.calibrated(|| {
            let p = setup(kind, seed, &work.join(format!("setup{i}")))?;
            let warm: Vec<Cell> = p
                .cells
                .iter()
                .filter(|c| c.workload.name == p.workloads[0].name)
                .cloned()
                .collect();
            let _ = runner(None).run(warm);
            Ok::<Plan, String>(p)
        });
        match p {
            Ok(p) => plan = Some(p),
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
        setup_s.push(wall.as_secs_f64() * speed);
        setup_host_s.push(wall.as_secs_f64());
    }
    let plan = plan.expect("at least one set-up");
    let records = records_per_sweep(&plan);

    let budget = Duration::from_secs_f64(args.seconds);
    let tracer = Tracer::new();
    let mut measured = Measured::new();
    let reps = measure(
        &cal,
        &plan,
        budget,
        args.trace.then_some(&tracer),
        &mut measured,
    );

    let Measured {
        first, failures, ..
    } = &mut measured;
    let first = &first.as_ref().expect("at least one repetition").0;
    gate_first(kind, &plan, first, seed, failures);
    out.attempted = (plan.cells.len() * reps.len()) as u64;
    out.failed = measured.failures.ops.len() as u64;
    for ((tag, wl), why) in &measured.failures.cells {
        out.failures.push(format!("{tag}/{wl}: {why}"));
    }

    // Host times in reference seconds (see `calib`).
    let rates: Vec<f64> = reps.iter().map(|r| records as f64 / r.ref_s()).collect();
    let walls: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.stats.cell_walls_ms.iter().map(move |w| w * r.speed))
        .collect();
    let window_s: f64 = reps.iter().map(Rep::ref_s).sum();
    let lat: Vec<Option<f64>> = walls.iter().map(|&w| Some(w)).collect();
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    let speedup = dice_speedup(&plan, measured.first());
    let m = &mut out.metrics;
    m.insert("records_per_s", median(&rates));
    m.insert("dice_speedup", speedup);
    m.insert("req_p50_ms", median(&walls));
    m.insert("req_p95_ms", percentile(&walls, 95.0).unwrap_or(0.0));
    m.insert(
        "goodput_rps",
        crate::stats::goodput(&lat, LATENCY_LIMIT_MS, window_s) * (1.0 - failed_share),
    );
    m.insert("success_rate", 1.0 - failed_share);
    m.insert("setup_s", median(&setup_s));
    out.samples = walls.len();
    out.note(format!(
        "{} cells x {} reps, {} records per sweep ({} per core: {WARMUP} warm-up + {MEASURE} measured, scale 1/{SCALE}, jobs {JOBS})",
        plan.cells.len(),
        reps.len(),
        records,
        WARMUP + MEASURE
    ));
    let walls_s: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}/{:.3}", r.wall.as_secs_f64(), r.speed))
        .collect();
    out.note(format!(
        "repetition wall (s) / host-speed factor: {}; host times below are in reference seconds",
        walls_s.join(" ")
    ));
    let raw: Vec<f64> = reps
        .iter()
        .map(|r| records as f64 / r.wall.as_secs_f64())
        .collect();
    out.note(format!(
        "uncalibrated: {:.0} records per host second (median), set-up {:.4} host s (median)",
        median(&raw),
        median(&setup_host_s)
    ));
    let paper = match kind {
        Kind::MemBound => "1.190 (Fig. 10, full scale, all 26)",
        Kind::NonMem => "about 1.02 (Fig. 13, full scale)",
    };
    out.note(format!(
        "dice_speedup {speedup:.4} at 1/{SCALE} scale; paper reference {paper}: a reference, not a validated error"
    ));

    if args.trace {
        layer_metrics(kind, &plan, &measured, &reps, &tracer, seed, &mut out);
        out.trace = Some(tracer);
    }
    out.metrics.insert("peak_rss_mb", rss_self_mb());
    out
}

/// Attribution of sampled cells plus the per-layer figures read off the
/// sweep's reports and the runner.
fn layer_metrics(
    kind: Kind,
    plan: &Plan,
    measured: &Measured,
    reps: &[Rep],
    tracer: &Tracer,
    seed: u64,
    out: &mut Outcome,
) {
    let mut rng = SplitMix64::new(seed ^ 0xa771_b0fe);
    // Rate workloads only: the replay's size oracle models one profile.
    let rate: Vec<&WorkloadSet> = plan
        .workloads
        .iter()
        .filter(|w| w.specs.windows(2).all(|p| p[0].name == p[1].name))
        .collect();
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < ATTRIBUTED_WORKLOADS.min(rate.len()) {
        let i = rng.below(rate.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let mut cells: Vec<(String, SimConfig, WorkloadSet)> = Vec::new();
    for &i in &picked {
        for (tag, org) in [orgs(kind)[0], *orgs(kind).last().expect("orgs")] {
            cells.push((
                format!("{tag}/{}", rate[i].name),
                config(org),
                rate[i].clone(),
            ));
        }
        if kind == Kind::NonMem {
            let twin = plan
                .twins
                .iter()
                .find(|t| t.name == format!("{}{DTF_SUFFIX}", rate[i].name))
                .expect("every workload has a twin");
            let (tag, org) = *orgs(kind).last().expect("orgs");
            cells.push((format!("{tag}/{}", twin.name), config(org), twin.clone()));
        }
    }
    let profiles: Vec<_> = picked.iter().map(|&i| rate[i].specs[0].values).collect();
    let attributed = attribute_cells(&cells, tracer, out);
    sim_layer_metrics(&attributed, out);
    let (size_ns, pair_ns) = compress_kernels(&profiles, seed, Duration::from_millis(60));
    out.metrics.insert("compress.size_ns_per_line", size_ns);
    out.metrics.insert("compress.pair_ns_per_pair", pair_ns);

    let reports: Vec<Arc<RunReport>> = measured
        .first()
        .outcomes
        .values()
        .filter_map(|o| match o {
            CellOutcome::Completed { report, .. } => Some(Arc::clone(report)),
            _ => None,
        })
        .collect();
    report_metrics(&reports, 8 * MEASURE, out);
    let stats: Vec<&SweepStats> = reps.iter().map(|r| &r.stats).collect();
    runner_figures(&stats, out);
}

/// Attributes each sampled cell, recording a `System::run` span for it
/// and failing the run on a broken self-check.
pub fn attribute_cells(
    cells: &[(String, SimConfig, WorkloadSet)],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<CellAttribution> {
    let timer = TimerCost::calibrate();
    let mut counters = Counters::default();
    let mut done = Vec::new();
    let parent = tracer.record(0, 0, "attribution", 0, 0);
    for (label, cfg, wl) in cells {
        let start = tracer.now_ns();
        let a = attribute(cfg, wl, timer, &mut counters);
        let end = tracer.now_ns();
        let id = tracer.record(parent, 0, &format!("attribute {label}"), start, end);
        tracer.record(
            id,
            0,
            "System::run",
            end.saturating_sub(a.run_ns as u64),
            end,
        );
        if !a.wrapped_identical {
            out.fail(format!("{label}: wrapped run differs from System::new"));
        }
        let engine = a.engine_share();
        let checks: Vec<String> = a
            .checks
            .iter()
            .map(|c| format!("{} {}/{}", c.name, c.replay, c.report))
            .collect();
        out.note(format!(
            "attribution {label}: run {:.1} ms, wrapped {:.1} ms, engine share {:.3}; replay/report window counts: {}",
            a.run_ns / 1e6,
            a.wrapped_ns / 1e6,
            engine,
            checks.join(", ")
        ));
        done.push(a);
    }
    // The self-check runs on the aggregate: one cell's shares can be off
    // by a slow spell of the host between its passes.
    let total: f64 = done.iter().map(|a| a.run_ns).sum();
    let engine: f64 = done
        .iter()
        .map(|a| a.engine_share() * a.run_ns)
        .sum::<f64>()
        / total.max(1.0);
    if engine < 0.0 {
        out.fail(format!(
            "layer shares sum past 100% of the sampled runs (engine share {engine:.3})"
        ));
    }
    let timed: u64 = done.iter().map(|a| a.wrapped_calls).sum();
    out.note(format!(
        "trace overhead: {:.1} ms of wrapped runs against {:.1} ms of plain runs; {timed} timed records x {:.1} ns per clock pair would cost {:.1} %",
        done.iter().map(|a| a.wrapped_ns).sum::<f64>() / 1e6,
        total / 1e6,
        timer.pair_ns,
        timed as f64 * timer.pair_ns / total.max(1.0) * 100.0
    ));
    out.counters = counters;
    out.timer = Some(timer);
    done
}

/// Per-layer costs and shares aggregated over attributed cells.
pub fn sim_layer_metrics(cells: &[CellAttribution], out: &mut Outcome) {
    let m = &mut out.metrics;
    let total_run: f64 = cells.iter().map(|c| c.run_ns).sum();
    // A layer's aggregate share: its summed cost over the summed run time.
    let share = |layer: &str, which: &dyn Fn(&CellAttribution) -> bool| -> f64 {
        let picked: Vec<&CellAttribution> = cells.iter().filter(|c| which(c)).collect();
        let run: f64 = picked.iter().map(|c| c.run_ns).sum();
        if run == 0.0 {
            return 0.0;
        }
        picked
            .iter()
            .map(|c| c.share(layer) * c.run_ns)
            .sum::<f64>()
            / run
    };
    let mean =
        |f: &dyn Fn(&CellAttribution) -> f64, which: &dyn Fn(&CellAttribution) -> bool| -> f64 {
            let v: Vec<f64> = cells.iter().filter(|c| which(c)).map(f).collect();
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
    let all = |_: &CellAttribution| true;
    let synth = |c: &CellAttribution| !c.streams_dtf;
    let dtf = |c: &CellAttribution| c.streams_dtf;
    m.insert("workloads.tracegen_ns", mean(&|c| c.supply_ns, &synth));
    m.insert(
        "workloads.tracegen_share",
        share("workloads.tracegen", &synth),
    );
    m.insert("ingest.decode_ns", mean(&|c| c.supply_ns, &dtf));
    m.insert("workloads.size_oracle_ns", mean(&|c| c.size_ns, &all));
    m.insert(
        "workloads.size_calls_per_record",
        mean(&|c| c.size_calls_per_record, &all),
    );
    m.insert("workloads.cold_pages", mean(&|c| c.cold_pages as f64, &all));
    m.insert("cache.l3_ns", mean(&|c| c.l3_ns, &all));
    m.insert("core.l4_read_ns", mean(&|c| c.l4_read_ns, &all));
    m.insert("core.l4_fill_ns", mean(&|c| c.l4_fill_ns, &all));
    m.insert("core.l4_writeback_ns", mean(&|c| c.l4_wb_ns, &all));
    m.insert(
        "core.l4_share",
        share("core.l4_read", &all)
            + share("core.l4_fill", &all)
            + share("core.l4_writeback", &all),
    );
    m.insert("dram.access_ns", mean(&|c| c.dram_ns, &all));
    m.insert("dram.share", share("dram", &all));
    let total_wrapped: f64 = cells.iter().map(|c| c.wrapped_ns).sum();
    m.insert(
        "trace_overhead_pct",
        if total_run > 0.0 {
            (total_wrapped / total_run - 1.0) * 100.0
        } else {
            0.0
        },
    );
    let runs_ms: Vec<f64> = cells.iter().map(|c| c.run_ns / 1e6).collect();
    m.insert("sim.run_ms", median(&runs_ms));
    let scheduled: u64 = cells.iter().map(|c| c.engine.events_scheduled).sum();
    let chained: u64 = cells.iter().map(|c| c.engine.events_chained).sum();
    let cascades: u64 = cells.iter().map(|c| c.engine.wheel_cascades).sum();
    let records: u64 = cells.iter().map(|c| c.records).sum();
    let events = (scheduled + chained).max(1) as f64;
    m.insert("sim.ns_per_event", total_run / events);
    m.insert("sim.events_per_record", events / records.max(1) as f64);
    m.insert("sim.chain_ratio", chained as f64 / events);
    m.insert(
        "sim.cascades_per_event",
        cascades as f64 / scheduled.max(1) as f64,
    );
    let engine_weighted: f64 = cells.iter().map(|c| c.engine_share() * c.run_ns).sum();
    m.insert(
        "sim.engine_share",
        if total_run > 0.0 {
            engine_weighted / total_run
        } else {
            0.0
        },
    );
}

/// Simulated rates summed over every cell report.
/// `records_each` is the measured-window record count of every report.
pub fn report_metrics(reports: &[Arc<RunReport>], records_each: u64, out: &mut Outcome) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| -> f64 { reports.iter().map(|r| f(r) as f64).sum() };
    let records = (reports.len() as u64 * records_each) as f64;
    let l3_acc = sum(&|r| r.l3.hits + r.l3.misses);
    let reads = sum(&|r| r.l4.reads).max(1.0);
    let preds: f64 = sum(&|r| r.cip_predictions);
    let cip = if preds > 0.0 {
        reports
            .iter()
            .map(|r| r.cip_accuracy * r.cip_predictions as f64)
            .sum::<f64>()
            / preds
    } else {
        0.0
    };
    let m = &mut out.metrics;
    m.insert("cache.l3_hit_rate", sum(&|r| r.l3.hits) / l3_acc.max(1.0));
    m.insert("core.l4_hit_rate", sum(&|r| r.l4.read_hits) / reads);
    m.insert(
        "core.second_probe_rate",
        sum(&|r| r.l4.second_probes) / reads,
    );
    m.insert("core.cip_accuracy", cip);
    let records = records.max(1.0);
    m.insert(
        "dram.l4_bytes_per_record",
        sum(&|r| r.l4_dram.bytes) / records,
    );
    m.insert(
        "dram.mem_bytes_per_record",
        sum(&|r| r.mem_dram.bytes) / records,
    );
    m.insert(
        "dram.queue_stalls_per_record",
        sum(&|r| r.l4_dram.queue_stalls + r.mem_dram.queue_stalls) / records,
    );
}

/// Busy share, steals, tail idle and exact per-cell percentiles.
pub fn runner_figures(sweeps: &[&SweepStats], out: &mut Outcome) {
    let busy: Vec<f64> = sweeps
        .iter()
        .map(|r| r.cell_walls_ms.iter().sum::<f64>() / (r.jobs as f64 * r.wall_s * 1e3))
        .collect();
    let walls: Vec<f64> = sweeps
        .iter()
        .flat_map(|r| r.cell_walls_ms.iter().copied())
        .collect();
    let steals: Vec<f64> = sweeps.iter().map(|r| r.steals as f64).collect();
    let tail: Vec<f64> = sweeps.iter().map(|r| r.tail_idle_ms as f64).collect();
    let m = &mut out.metrics;
    m.insert("runner.busy_share", median(&busy));
    m.insert("runner.steals", median(&steals));
    m.insert("runner.tail_idle_ms", median(&tail));
    m.insert("runner.cell_p50_ms", median(&walls));
    m.insert(
        "runner.cell_p90_ms",
        percentile(&walls, 90.0).unwrap_or(0.0),
    );
}

#[cfg(test)]
mod tests {
    use super::Failures;

    /// A cell that fails in several repetitions is one failed operation
    /// per repetition, with its first reason kept for the message.
    #[test]
    fn failures_count_every_repetition() {
        let mut f = Failures::default();
        f.fail(0, "base", "gcc", "timed out".into());
        f.fail(0, "base", "gcc", "differs from the reference engine".into());
        f.fail(1, "base", "gcc", "report differs between repetitions".into());
        f.fail(2, "dice36", "mcf", "failed: boom".into());
        assert_eq!(f.ops.len(), 3);
        assert_eq!(f.cells.len(), 2);
        assert_eq!(f.cells[&("base".into(), "gcc".into())], "timed out");
    }
}
