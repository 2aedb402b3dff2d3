//! Outside-in host-time attribution of one simulation cell.
//!
//! Nothing inside the simulator is instrumented. Instead, for a sample of
//! cells:
//!
//! * the plain run (`System::new` + `run_with_engine_stats`) gives the
//!   run time and the engine counters;
//! * a wrapped run passes each core's record stream (a `TraceGen` or a
//!   `.dtf` stream) through a timing wrapper via `System::with_sources`,
//!   which must produce a byte-identical report, and yields the trace
//!   supply's cost per record;
//! * a layer replay drives the same records through the public layer APIs
//!   (`SramHierarchy`, `DramCacheController`, `DramDevice` and a timing
//!   `SizeInfo` around the data model) the way `System::handle_record`
//!   does, with fills and writebacks deferred to their due times, and
//!   yields each layer's cost per call.
//!
//! Each layer's share of the plain run is its per-call cost times the
//! real run's call count from its `RunReport`; the remainder is the
//! engine's share (event wheel, core model, bookkeeping). The wrapped
//! run's time against the plain run's is what the timing wrappers cost:
//! the tracing overhead.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dice_cache::{HierarchyConfig, SramHierarchy};
use dice_compress::{compressed_size, pair_compressed_size, LineData};
use dice_core::{DramCacheController, SetIndex, SizeInfo};
use dice_dram::{AccessKind, DramDevice, Location};
use dice_sim::{CoreModel, Cycle, EngineCounters, SimConfig, System, WorkloadSet};
use dice_workloads::{
    line_data, DataModel, MixDataModel, RecordSource, TraceGen, TraceRecord, TraceSource,
    ValueProfile,
};

use crate::stats::{engine_share, median, LayerCost};
use crate::tracer::Counters;

/// `System::new`'s seed convention for the data model of a workload.
const DATA_SEED_XOR: u64 = 0xda7a;
/// Main-memory lines per DRAM row (the simulator's row mapping).
const MEM_LINES_PER_ROW: u64 = 32;

/// The cost of one `Instant::now()` + `elapsed()` pair, measured on this
/// host: the bias every timed call carries.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// What an empty timed region reads, in ns.
    pub bias_ns: f64,
    /// Wall cost of timing one call (both clock reads), in ns.
    pub pair_ns: f64,
}

impl TimerCost {
    pub fn calibrate() -> Self {
        const N: u32 = 200_000;
        let mut reads = Vec::with_capacity(5);
        let mut pairs = Vec::with_capacity(5);
        for _ in 0..5 {
            let mut sum = Duration::ZERO;
            let outer = Instant::now();
            for _ in 0..N {
                let t = Instant::now();
                sum += black_box(t).elapsed();
            }
            pairs.push(outer.elapsed().as_nanos() as f64 / f64::from(N));
            reads.push(sum.as_nanos() as f64 / f64::from(N));
        }
        Self {
            bias_ns: median(&reads),
            pair_ns: median(&pairs),
        }
    }
}

/// A call tally: calls counted (in total and in the measured window),
/// timed regions, and their summed ns. A layer may time work that is not
/// one of its counted calls (the L3's fills and drains, per access).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    window_calls: u64,
    timed: u64,
    ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64, in_window: bool) {
        self.calls += 1;
        if in_window {
            self.window_calls += 1;
        }
        self.add_time(ns);
    }

    fn add_time(&mut self, ns: u64) {
        self.timed += 1;
        self.ns += ns;
    }

    /// Nanoseconds per counted call, less the timer bias of every timed
    /// region.
    fn per_call(&self, timer: TimerCost) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        ((self.ns as f64 - self.timed as f64 * timer.bias_ns) / self.calls as f64).max(0.0)
    }
}

/// Times every record a wrapped stream produces.
struct TimedSource {
    inner: Box<dyn RecordSource>,
    tally: Rc<RefCell<Tally>>,
}

impl RecordSource for TimedSource {
    fn next_record(&mut self) -> TraceRecord {
        let t = Instant::now();
        let rec = self.inner.next_record();
        let ns = t.elapsed().as_nanos() as u64;
        self.tally.borrow_mut().add(ns, false);
        rec
    }

    fn footprint_lines(&self) -> u64 {
        self.inner.footprint_lines()
    }
}

/// Times every size-oracle call.
struct TimedSizes {
    inner: DataModel,
    tally: Tally,
    in_window: bool,
}

impl SizeInfo for TimedSizes {
    fn single_size(&mut self, line: u64) -> u32 {
        let t = Instant::now();
        let s = self.inner.single_size(line);
        self.tally
            .add(t.elapsed().as_nanos() as u64, self.in_window);
        s
    }

    fn pair_size(&mut self, even_line: u64) -> u32 {
        let t = Instant::now();
        let s = self.inner.pair_size(even_line);
        self.tally
            .add(t.elapsed().as_nanos() as u64, self.in_window);
        s
    }
}

/// Each core's record stream: the workload's `.dtf` file when one is
/// bound, else `TraceGen`, as `System::new` opens them.
fn open_streams(cfg: &SimConfig, wl: &WorkloadSet) -> Vec<Box<dyn RecordSource>> {
    match &wl.trace {
        Some(binding) => {
            let src = dice_ingest::DtfTraceSource::new(binding.clone());
            (0..cfg.cores as u32)
                .map(|i| {
                    TraceSource::open_core(&src, i).expect("dtf stream opens")
                        as Box<dyn RecordSource>
                })
                .collect()
        }
        None => (0..cfg.cores)
            .map(|i| {
                let spec = &wl.specs[i % wl.specs.len()];
                Box::new(TraceGen::with_scale(spec, i as u32, wl.seed, cfg.scale))
                    as Box<dyn RecordSource>
            })
            .collect(),
    }
}

/// One replayed call boundary's window count beside the real run's.
#[derive(Debug, Clone)]
pub struct CountCheck {
    pub name: &'static str,
    pub replay: u64,
    pub report: u64,
}

/// Everything measured on one sampled cell.
#[derive(Debug, Clone)]
pub struct CellAttribution {
    /// Plain-run wall time (median of three), ns.
    pub run_ns: f64,
    /// Wrapped-run wall time (median of three), ns.
    pub wrapped_ns: f64,
    /// Records the wrappers timed in one wrapped run.
    pub wrapped_calls: u64,
    pub engine: EngineCounters,
    /// Total records the run consumed (all cores, warm-up included).
    pub records: u64,
    /// The wrapped run's report rendered equal to the plain run's.
    pub wrapped_identical: bool,
    pub streams_dtf: bool,
    /// Per-layer replay costs, ns per call (bias-corrected).
    pub supply_ns: f64,
    pub size_ns: f64,
    pub l3_ns: f64,
    pub l4_read_ns: f64,
    pub l4_fill_ns: f64,
    pub l4_wb_ns: f64,
    pub dram_ns: f64,
    /// Size-oracle calls per replayed record.
    pub size_calls_per_record: f64,
    pub cold_pages: u64,
    /// Layer costs scaled by the real run's call counts.
    pub layers: Vec<(&'static str, LayerCost)>,
    pub checks: Vec<CountCheck>,
}

impl CellAttribution {
    pub fn share(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == layer)
            .map_or(0.0, |(_, c)| c.share_of(self.run_ns))
    }

    pub fn engine_share(&self) -> f64 {
        let costs: Vec<LayerCost> = self.layers.iter().map(|(_, c)| *c).collect();
        engine_share(&costs, self.run_ns)
    }
}

/// Rounds of (plain run, wrapped run, replay) per cell. Interleaving the
/// three and taking medians keeps a slow spell of the host from landing
/// on the denominator alone.
const ROUNDS: usize = 3;

/// The wrapped run: the cell's record streams behind a timing wrapper,
/// through `System::with_sources`. Returns whether its report renders
/// identical to `plain`, the supply tally, and the run's wall time in ns,
/// timed like the plain run's.
fn wrapped_pass(cfg: &SimConfig, wl: &WorkloadSet, plain: &str) -> (bool, Tally, f64) {
    let tally = Rc::new(RefCell::new(Tally::default()));
    let wrapped: Vec<Box<dyn RecordSource>> = open_streams(cfg, wl)
        .into_iter()
        .map(|inner| {
            Box::new(TimedSource {
                inner,
                tally: Rc::clone(&tally),
            }) as Box<dyn RecordSource>
        })
        .collect();
    let data = MixDataModel::new(
        wl.specs.iter().map(|s| s.values).collect(),
        wl.seed ^ DATA_SEED_XOR,
    );
    let sys = System::with_sources(cfg.clone(), &wl.name, wrapped, data);
    let t = Instant::now();
    let (report, _) = sys.run_with_engine_stats();
    let ns = t.elapsed().as_nanos() as f64;
    let identical = report.to_json().render() == plain;
    let supply = *tally.borrow();
    (identical, supply, ns)
}

/// One replay pass, warm-up then measured window.
fn replay_pass(cfg: &SimConfig, wl: &WorkloadSet) -> (Replay, WindowCounts) {
    let mut replay = Replay::new(cfg, wl, wl.specs[0].values);
    replay.run(cfg.warmup_records);
    replay.start_window();
    replay.run(cfg.measure_records);
    let window = replay.window_counts();
    (replay, window)
}

/// Per-call costs of one replay pass, ns (bias-corrected).
struct ReplayCosts {
    size: f64,
    l3: f64,
    l4_read: f64,
    l4_fill: f64,
    l4_wb: f64,
    dram: f64,
}

impl ReplayCosts {
    fn of(replay: &Replay, timer: TimerCost) -> Self {
        // L4 self time excludes the size-oracle calls made inside it and
        // the cost of timing them.
        let l4_self = |t: Tally, inner_calls: u64, inner_ns: u64| -> f64 {
            if t.calls == 0 {
                return 0.0;
            }
            let own = t.ns as f64
                - inner_ns as f64
                - inner_calls as f64 * (timer.pair_ns - timer.bias_ns)
                - t.timed as f64 * timer.bias_ns;
            (own / t.calls as f64).max(0.0)
        };
        Self {
            size: replay.sizes.tally.per_call(timer),
            l3: replay.l3.per_call(timer),
            l4_read: replay.l4_read.per_call(timer),
            l4_fill: l4_self(replay.l4_fill, replay.fill_size_calls, replay.fill_size_ns),
            l4_wb: l4_self(replay.l4_wb, replay.wb_size_calls, replay.wb_size_ns),
            dram: replay.dram.per_call(timer),
        }
    }
}

/// Attributes one cell: `ROUNDS` rounds of the three passes, medians of
/// each cost, and the replay's call tallies folded into `counters`.
pub fn attribute(
    cfg: &SimConfig,
    wl: &WorkloadSet,
    timer: TimerCost,
    counters: &mut Counters,
) -> CellAttribution {
    let mut times = Vec::with_capacity(ROUNDS);
    let mut wrapped_times = Vec::with_capacity(ROUNDS);
    let mut wrapped_calls = 0;
    let mut supplies = Vec::with_capacity(ROUNDS);
    let mut costs = Vec::with_capacity(ROUNDS);
    let mut plain = None;
    let mut wrapped_identical = true;
    let streams_dtf = wl.trace.is_some();
    let mut last = None;
    for _ in 0..ROUNDS {
        let sys = System::new(cfg.clone(), wl);
        let t = Instant::now();
        let (report, engine) = sys.run_with_engine_stats();
        times.push(t.elapsed().as_nanos() as f64);
        let rendered = report.to_json().render();
        let plain = plain.get_or_insert((report, engine, rendered));

        let (identical, supply, ns) = wrapped_pass(cfg, wl, &plain.2);
        wrapped_identical &= identical;
        wrapped_times.push(ns);
        wrapped_calls = supply.calls;
        supplies.push(supply.per_call(timer));
        counters.add(
            if streams_dtf {
                "ingest.decode"
            } else {
                "workloads.tracegen"
            },
            supply.calls,
            supply.ns,
        );

        let (replay, window) = replay_pass(cfg, wl);
        costs.push(ReplayCosts::of(&replay, timer));
        for (name, t) in [
            ("cache.l3", replay.l3),
            ("core.l4_read", replay.l4_read),
            ("core.l4_fill", replay.l4_fill),
            ("core.l4_writeback", replay.l4_wb),
            ("dram.access", replay.dram),
            ("workloads.size_oracle", replay.sizes.tally),
        ] {
            counters.add(name, t.calls, t.ns);
        }
        last = Some((replay, window));
    }
    let (report, engine, _) = plain.expect("at least one round");
    let (replay, window) = last.expect("at least one round");
    let run_ns = median(&times);
    let records = cfg.cores as u64 * (cfg.warmup_records + cfg.measure_records);
    let med = |f: &dyn Fn(&ReplayCosts) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    let supply_ns = median(&supplies);
    let size_ns = med(&|c| c.size);
    let l3_ns = med(&|c| c.l3);
    let l4_read_ns = med(&|c| c.l4_read);
    let l4_fill_ns = med(&|c| c.l4_fill);
    let l4_wb_ns = med(&|c| c.l4_wb);
    let dram_ns = med(&|c| c.dram);
    let size_calls_per_record = replay.sizes.tally.calls as f64 / replay.records.max(1) as f64;

    // The real run's call counts: the report covers the measured window;
    // the replay's total/window ratio extends each to the warm-up.
    let r = &report;
    let report_l3 = r.l3.hits + r.l3.misses;
    let report_dram = r.l4_dram.reads + r.l4_dram.writes + r.mem_dram.reads + r.mem_dram.writes;
    let extend = |report_count: u64, t: Tally| -> f64 {
        if t.window_calls == 0 {
            report_count as f64
        } else {
            report_count as f64 * t.calls as f64 / t.window_calls as f64
        }
    };
    let fills_wbs = r.l4.fills + r.l4.writebacks;
    let l4_ops_window = replay.l4_fill.window_calls + replay.l4_wb.window_calls;
    let size_calls_real = if l4_ops_window == 0 {
        0.0
    } else {
        // The report has no size-oracle count: scale the replay's size
        // calls per L4 install by the report's installs.
        fills_wbs as f64 * replay.sizes.tally.window_calls as f64 / l4_ops_window as f64
            * replay.sizes.tally.calls as f64
            / replay.sizes.tally.window_calls.max(1) as f64
    };
    let layers = vec![
        (
            if streams_dtf {
                "ingest"
            } else {
                "workloads.tracegen"
            },
            LayerCost {
                ns_per_call: supply_ns,
                calls: records as f64,
            },
        ),
        (
            "workloads.size_oracle",
            LayerCost {
                ns_per_call: size_ns,
                calls: size_calls_real,
            },
        ),
        (
            "cache.l3",
            LayerCost {
                ns_per_call: l3_ns,
                calls: extend(report_l3, replay.l3),
            },
        ),
        (
            "core.l4_read",
            LayerCost {
                ns_per_call: l4_read_ns,
                calls: extend(r.l4.reads, replay.l4_read),
            },
        ),
        (
            "core.l4_fill",
            LayerCost {
                ns_per_call: l4_fill_ns,
                calls: extend(r.l4.fills, replay.l4_fill),
            },
        ),
        (
            "core.l4_writeback",
            LayerCost {
                ns_per_call: l4_wb_ns,
                calls: extend(r.l4.writebacks, replay.l4_wb),
            },
        ),
        (
            "dram",
            LayerCost {
                ns_per_call: dram_ns,
                calls: extend(report_dram, replay.dram),
            },
        ),
    ];
    let checks = vec![
        CountCheck {
            name: "l3 accesses",
            replay: window.l3,
            report: report_l3,
        },
        CountCheck {
            name: "l4 reads",
            replay: window.l4_reads,
            report: r.l4.reads,
        },
        CountCheck {
            name: "l4 fills",
            replay: window.l4_fills,
            report: r.l4.fills,
        },
        CountCheck {
            name: "l4 writebacks",
            replay: window.l4_wbs,
            report: r.l4.writebacks,
        },
        CountCheck {
            name: "dram accesses",
            replay: window.dram,
            report: report_dram,
        },
    ];
    CellAttribution {
        run_ns,
        wrapped_ns: median(&wrapped_times),
        wrapped_calls,
        engine,
        records,
        wrapped_identical,
        streams_dtf,
        supply_ns,
        size_ns,
        l3_ns,
        l4_read_ns,
        l4_fill_ns,
        l4_wb_ns,
        dram_ns,
        size_calls_per_record,
        cold_pages: replay.sizes.inner.cached_pages() as u64,
        layers,
        checks,
    }
}

/// A deferred controller operation, due at `time`.
#[derive(Debug, Clone, Copy)]
struct Deferred {
    time: Cycle,
    seq: u64,
    op: Op,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Fill { line: u64, probed: Option<SetIndex> },
    Writeback { line: u64 },
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Deferred {}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct Core {
    src: Box<dyn RecordSource>,
    model: CoreModel,
    left: u64,
}

#[derive(Debug, Default)]
struct WindowCounts {
    l3: u64,
    l4_reads: u64,
    l4_fills: u64,
    l4_wbs: u64,
    dram: u64,
}

/// The layer replay: `System::handle_record` and its deferred fill and
/// writeback events, through the public layer APIs with a timer on each.
struct Replay {
    hierarchy: SramHierarchy,
    l4: DramCacheController,
    l4dram: DramDevice,
    mem: DramDevice,
    sizes: TimedSizes,
    cores: Vec<Core>,
    pending: BinaryHeap<Reverse<Deferred>>,
    seq: u64,
    l3_hit_latency: Cycle,
    install_pair_in_l3: bool,
    in_window: bool,
    records: u64,
    scratch: Vec<u64>,
    l3: Tally,
    l4_read: Tally,
    l4_fill: Tally,
    l4_wb: Tally,
    dram: Tally,
    fill_size_calls: u64,
    fill_size_ns: u64,
    wb_size_calls: u64,
    wb_size_ns: u64,
    window_dram_base: u64,
    window_l4_base: (u64, u64, u64),
}

impl Replay {
    fn new(cfg: &SimConfig, wl: &WorkloadSet, profile: ValueProfile) -> Self {
        let hcfg = HierarchyConfig {
            cores: cfg.cores,
            l3_bytes: cfg.l3_bytes,
            l3_ways: cfg.l3_ways,
            ..HierarchyConfig::paper_8core()
        };
        let streams = open_streams(cfg, wl);
        Self {
            hierarchy: SramHierarchy::new(&hcfg),
            l4: DramCacheController::new(cfg.l4),
            l4dram: DramDevice::new(cfg.l4_dram.clone()),
            mem: DramDevice::new(cfg.mem_dram.clone()),
            sizes: TimedSizes {
                inner: DataModel::from_profile(profile, wl.seed ^ DATA_SEED_XOR),
                tally: Tally::default(),
                in_window: false,
            },
            cores: streams
                .into_iter()
                .map(|src| Core {
                    src,
                    model: CoreModel::new(cfg.mlp, cfg.base_cpi),
                    left: 0,
                })
                .collect(),
            pending: BinaryHeap::new(),
            seq: 0,
            l3_hit_latency: cfg.l3_hit_latency,
            install_pair_in_l3: cfg.install_pair_in_l3,
            in_window: false,
            records: 0,
            scratch: Vec::new(),
            l3: Tally::default(),
            l4_read: Tally::default(),
            l4_fill: Tally::default(),
            l4_wb: Tally::default(),
            dram: Tally::default(),
            fill_size_calls: 0,
            fill_size_ns: 0,
            wb_size_calls: 0,
            wb_size_ns: 0,
            window_dram_base: 0,
            window_l4_base: (0, 0, 0),
        }
    }

    fn start_window(&mut self) {
        self.in_window = true;
        self.sizes.in_window = true;
        self.hierarchy.reset_stats();
        let s = self.l4.stats();
        self.window_l4_base = (s.reads, s.fills, s.writebacks);
        self.window_dram_base = self.dram.window_calls;
    }

    fn window_counts(&self) -> WindowCounts {
        let l3 = self.hierarchy.l3_stats();
        let s = self.l4.stats();
        WindowCounts {
            l3: l3.hits + l3.misses,
            l4_reads: s.reads - self.window_l4_base.0,
            l4_fills: s.fills - self.window_l4_base.1,
            l4_wbs: s.writebacks - self.window_l4_base.2,
            dram: self.dram.window_calls - self.window_dram_base,
        }
    }

    fn defer(&mut self, time: Cycle, op: Op) {
        self.seq += 1;
        self.pending.push(Reverse(Deferred {
            time,
            seq: self.seq,
            op,
        }));
    }

    /// Runs `records_per_core` more records per core, in due-time order
    /// with the deferred operations, until everything has drained.
    fn run(&mut self, records_per_core: u64) {
        for c in &mut self.cores {
            c.left += records_per_core;
        }
        loop {
            let next_core = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.left > 0)
                .min_by_key(|(_, c)| c.model.next_dispatch())
                .map(|(i, c)| (i, c.model.next_dispatch()));
            let next_op = self.pending.peek().map(|Reverse(d)| d.time);
            match (next_core, next_op) {
                (None, None) => break,
                (Some((_, tc)), Some(to)) if to <= tc => self.run_deferred(),
                (None, Some(_)) => self.run_deferred(),
                (Some((core, _)), _) => self.dispatch(core),
            }
        }
    }

    fn dispatch(&mut self, core: usize) {
        let rec = self.cores[core].src.next_record();
        let t = self.cores[core].model.advance(rec.gap);
        let done = self.handle_record(rec, t);
        let c = &mut self.cores[core];
        c.model.complete(done);
        c.left -= 1;
        self.records += 1;
    }

    fn run_deferred(&mut self) {
        let Some(Reverse(d)) = self.pending.pop() else {
            return;
        };
        let (before_calls, before_ns) = (self.sizes.tally.calls, self.sizes.tally.ns);
        let t = Instant::now();
        let out = match d.op {
            Op::Fill { line, probed } => self.l4.fill(line, false, probed, &mut self.sizes),
            Op::Writeback { line } => self.l4.writeback(line, &mut self.sizes),
        };
        let ns = t.elapsed().as_nanos() as u64;
        let inner_calls = self.sizes.tally.calls - before_calls;
        let inner_ns = self.sizes.tally.ns - before_ns;
        match d.op {
            Op::Fill { .. } => {
                self.l4_fill.add(ns, self.in_window);
                self.fill_size_calls += inner_calls;
                self.fill_size_ns += inner_ns;
            }
            Op::Writeback { .. } => {
                self.l4_wb.add(ns, self.in_window);
                self.wb_size_calls += inner_calls;
                self.wb_size_ns += inner_ns;
            }
        }
        let end = self.run_probes(d.time, &out.probes);
        for &line in out.memory_writebacks.iter() {
            self.mem_access(end, AccessKind::Write, line);
        }
    }

    /// Times an L3 operation. Only probes count as L3 accesses (the
    /// report's `l3` hits + misses); fills and drains add time only.
    fn l3_timed<R>(&mut self, access: bool, f: impl FnOnce(&mut SramHierarchy) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.hierarchy);
        let ns = t.elapsed().as_nanos() as u64;
        if access {
            self.l3.add(ns, self.in_window);
        } else {
            self.l3.add_time(ns);
        }
        r
    }

    fn drain_writebacks(&mut self, at: Cycle) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.l3_timed(false, |h| h.drain_writebacks_into(&mut scratch));
        for &line in &scratch {
            self.defer(at, Op::Writeback { line });
        }
        scratch.clear();
        self.scratch = scratch;
    }

    fn run_probes(&mut self, start: Cycle, probes: &[dice_core::Probe]) -> Cycle {
        let mut t = start;
        for p in probes {
            let kind = if p.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let loc = Location::interleave(self.l4dram.config(), self.l4.row_of(p.set));
            let t0 = Instant::now();
            t = self.l4dram.access(t, kind, loc, p.bytes).done;
            self.dram
                .add(t0.elapsed().as_nanos() as u64, self.in_window);
        }
        t
    }

    fn mem_access(&mut self, at: Cycle, kind: AccessKind, line: u64) -> Cycle {
        let loc = Location::interleave(self.mem.config(), line / MEM_LINES_PER_ROW);
        let t0 = Instant::now();
        let done = self.mem.access(at, kind, loc, 64).done;
        self.dram
            .add(t0.elapsed().as_nanos() as u64, self.in_window);
        done
    }

    fn handle_record(&mut self, rec: TraceRecord, t: Cycle) -> Cycle {
        if self.l3_timed(true, |h| h.l3_access(rec.line, rec.write)) {
            return t + self.l3_hit_latency;
        }
        let completion = self.l4_demand(t, rec.line);
        self.l3_timed(false, |h| h.l3_fill(rec.line, rec.write));
        self.drain_writebacks(completion);
        completion + self.l3_hit_latency
    }

    fn l4_demand(&mut self, t: Cycle, line: u64) -> Cycle {
        let t0 = Instant::now();
        let out = self.l4.read(line);
        self.l4_read
            .add(t0.elapsed().as_nanos() as u64, self.in_window);
        let data_time = self.run_probes(t, &out.probes);
        if out.hit {
            if self.install_pair_in_l3 {
                for &f in out.free_lines.iter() {
                    self.l3_timed(false, |h| h.l3_fill(f, false));
                }
                self.drain_writebacks(data_time);
            }
            data_time
        } else {
            let probed = out.probes.last().map(|p| p.set);
            let mem_start = if out.predicted_hit { data_time } else { t };
            let done = self.mem_access(mem_start, AccessKind::Read, line);
            self.defer(done, Op::Fill { line, probed });
            done
        }
    }
}

/// Host cost of the compression size kernels over the lines a workload's
/// value profile produces: (ns per `compressed_size` line, ns per
/// `pair_compressed_size` pair).
pub fn compress_kernels(profiles: &[ValueProfile], seed: u64, min_time: Duration) -> (f64, f64) {
    let mut lines: Vec<LineData> = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        for page in 0..64u64 {
            let page = page + (i as u64) * 4096;
            let class = p.class_of(seed, page);
            for l in 0..64u64 {
                lines.push(line_data(seed, class, page * 64 + l));
            }
        }
    }
    let time_loop = |f: &dyn Fn() -> usize, per_pass: usize| -> f64 {
        let mut passes = 0u64;
        let t = Instant::now();
        while t.elapsed() < min_time || passes == 0 {
            black_box(f());
            passes += 1;
        }
        t.elapsed().as_nanos() as f64 / (passes as f64 * per_pass as f64)
    };
    let single = time_loop(
        &|| lines.iter().map(|l| compressed_size(black_box(l))).sum(),
        lines.len(),
    );
    let pair = time_loop(
        &|| {
            lines
                .chunks_exact(2)
                .map(|p| pair_compressed_size(black_box(&p[0]), black_box(&p[1])))
                .sum()
        },
        lines.len() / 2,
    );
    (single, pair)
}
