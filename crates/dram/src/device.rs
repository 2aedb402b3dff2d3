//! The DRAM device model: banks, row buffers, channel buses and queues.

use crate::config::DramConfig;
use crate::fifo::Fifo;
use crate::stats::DramStats;
use crate::Cycle;

/// Whether an access reads from or writes to the array.
///
/// Reads and writes have the same array timing in this model; they are
/// distinguished for statistics and energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data transfer from DRAM to the controller.
    Read,
    /// Data transfer from the controller to DRAM.
    Write,
}

/// Physical placement of an access: which channel, bank and row.
///
/// Callers (the DRAM-cache controller, the main-memory controller) own the
/// address-to-location mapping; [`Location::interleave`] provides the
/// standard row-interleaved mapping both use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index, `< config.channels`.
    pub channel: u32,
    /// Bank index within the channel, `< config.banks_per_channel`.
    pub bank: u32,
    /// Row index within the bank (arbitrary u64 namespace).
    pub row: u64,
}

impl Location {
    /// Maps a global row id onto (channel, bank, row) by interleaving
    /// consecutive rows across channels, then banks — spreading adjacent
    /// rows for maximum parallelism, as real controllers do.
    #[must_use]
    pub fn interleave(cfg: &DramConfig, global_row: u64) -> Self {
        let ch = (global_row % u64::from(cfg.channels)) as u32;
        let rest = global_row / u64::from(cfg.channels);
        let bank = (rest % u64::from(cfg.banks_per_channel)) as u32;
        let row = rest / u64::from(cfg.banks_per_channel);
        Self {
            channel: ch,
            bank,
            row,
        }
    }
}

/// Timing outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// When the device began servicing the request (after queue and bank
    /// availability).
    pub start: Cycle,
    /// When the full data transfer finished; for reads this is when the
    /// requester observes the data.
    pub done: Cycle,
    /// Whether the access hit the open row in its bank's row buffer.
    pub row_hit: bool,
}

impl AccessResult {
    /// Total request latency as seen from submission time.
    #[must_use]
    pub fn latency_from(&self, submitted: Cycle) -> Cycle {
        self.done.saturating_sub(submitted)
    }
}

#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the next column command may issue (successive CAS
    /// commands to an open row pipeline at burst granularity — tCCD — so
    /// row-hit streams run at bus rate, not CAS-latency rate).
    cas_ready: Cycle,
    /// Cycle of the last activate, for the tRAS constraint.
    last_activate: Cycle,
}

/// Data-bus schedule for one channel: sorted, disjoint busy intervals with
/// gap backfill.
///
/// The simulator computes some transfers ahead of global time (dependent
/// probe chains, memory round trips), so a scalar "bus free at" pointer
/// would let one future reservation block every earlier transfer —
/// artificial head-of-line blocking. Instead we keep the busy intervals and
/// place each burst in the earliest gap after its data-ready time, merging
/// adjacent intervals and pruning those older than a horizon no new request
/// can reach back past.
#[derive(Debug, Clone, Default)]
struct BusSchedule {
    busy: Fifo<(Cycle, Cycle)>,
    watermark: Cycle,
}

/// How far back a newly computed transfer may land relative to the newest
/// one (bounded by the longest probe/memory chain the simulator builds).
///
/// Precondition: no `earliest` lies more than `BUS_HORIZON` behind the
/// newest one, since older intervals are pruned. The simulator violates
/// it: in one membound sweep (seed 1, `all26` x base/tsi/bai/dice36 at
/// 1/1024) 1418 of 11.0 M reservations reach back further, and 622 of them
/// get a slot overlapping a pruned transfer, two bursts on one bus at once
/// (602 on the stacked-L4 channels, 20 on DDR). Fixing it moves simulated
/// results, so it waits on a results gate (ROADMAP).
const BUS_HORIZON: Cycle = 1 << 14;

impl BusSchedule {
    /// Reserves `dur` cycles starting no earlier than `earliest`; returns
    /// the transfer start time.
    fn reserve(&mut self, earliest: Cycle, dur: Cycle) -> Cycle {
        self.watermark = self.watermark.max(earliest.saturating_sub(BUS_HORIZON));
        while let Some(&(_, e)) = self.busy.first() {
            if e <= self.watermark {
                self.busy.pop_front();
            } else {
                break;
            }
        }

        // Intervals ending at or before `earliest` can neither host the
        // burst (their start is below `earliest`) nor delay it, so skip
        // straight past them. The busy list is sorted and disjoint and most
        // requests land near its tail, so counting back from the tail to
        // the first interval ending after `earliest` costs O(intervals past
        // it), not a search over the whole horizon.
        let mut t = earliest;
        let past = self.busy.iter().rev().take_while(|&&(_, e)| e > earliest);
        let first = self.busy.len() - past.count();
        let mut idx = self.busy.len();
        for (i, &(s, e)) in self.busy.iter().enumerate().skip(first) {
            if t + dur <= s {
                idx = i;
                break;
            }
            t = t.max(e);
        }
        // Merge with neighbors when the new interval touches them.
        let end = t + dur;
        let merge_prev = idx > 0 && self.busy[idx - 1].1 == t;
        let merge_next = idx < self.busy.len() && self.busy[idx].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
            }
            (true, false) => self.busy[idx - 1].1 = end,
            (false, true) => self.busy[idx].0 = t,
            (false, false) => {
                self.busy.insert(idx, (t, end));
            }
        }
        t
    }
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    /// Data-bus busy intervals.
    bus: BusSchedule,
    /// Completion times of in-flight requests (bounded queue model).
    inflight: Fifo<Cycle>,
}

/// A DRAM device: the timing state machine plus statistics.
///
/// Deterministic: identical access sequences produce identical timings.
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: DramStats,
}

impl DramDevice {
    /// Creates a device with all banks idle and rows closed.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); cfg.banks_per_channel as usize],
                bus: BusSchedule::default(),
                inflight: Fifo::default(),
            })
            .collect();
        Self {
            cfg,
            channels,
            stats: DramStats::default(),
        }
    }

    /// The device's configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Services one access of `bytes` at `loc`, submitted at cycle `now`.
    ///
    /// Returns when the access started and completed. The model:
    ///
    /// 1. back-pressure — if `queue_depth` requests are still in flight on
    ///    the channel, the request waits for the oldest to drain;
    /// 2. bank availability and the row-buffer state machine (open-page:
    ///    a row stays open until a different row in the same bank is used);
    /// 3. data-bus serialization — bursts on one channel never overlap.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range for the configuration.
    pub fn access(
        &mut self,
        now: Cycle,
        kind: AccessKind,
        loc: Location,
        bytes: u32,
    ) -> AccessResult {
        let burst = self.cfg.burst_cycles(bytes);
        let ch = &mut self.channels[loc.channel as usize];

        // Bounded queue: wait for a slot if the channel is saturated.
        while let Some(&front) = ch.inflight.first() {
            if front <= now {
                ch.inflight.pop_front();
            } else {
                break;
            }
        }
        let mut start = now;
        if ch.inflight.len() >= self.cfg.queue_depth {
            let drain = ch.inflight.pop_front().expect("queue nonempty");
            start = start.max(drain);
            self.stats.queue_stalls += 1;
        }

        let bank = &mut ch.banks[loc.bank as usize];
        let arrive = start;

        let row_hit = bank.open_row == Some(loc.row);
        let data_at = if row_hit {
            let cas_at = start.max(bank.cas_ready);
            bank.cas_ready = cas_at + burst;
            cas_at + self.cfg.t_cas
        } else {
            // A bank with an open row must precharge first; the precharge
            // waits for the last column command and respects tRAS from the
            // previous activate. An idle bank activates immediately.
            let act_at = if bank.open_row.is_some() {
                start
                    .max(bank.cas_ready)
                    .max(bank.last_activate + self.cfg.t_ras)
                    + self.cfg.t_rp
            } else {
                start.max(bank.cas_ready)
            };
            bank.last_activate = act_at;
            bank.open_row = Some(loc.row);
            self.stats.activates += 1;
            let cas_at = act_at + self.cfg.t_rcd;
            bank.cas_ready = cas_at + burst;
            cas_at + self.cfg.t_cas
        };

        self.stats.bank_wait_sum += data_at - arrive;

        // Serialize the data burst on the channel bus (earliest gap that
        // fits; see [`BusSchedule`]). The bank's command pipeline is gated
        // only by tCCD/row cycles; bus contention is modeled once, here.
        let xfer_start = ch.bus.reserve(data_at, burst);
        self.stats.bus_wait_sum += xfer_start - data_at;
        let done = xfer_start + burst;
        ch.inflight.push_back(done);

        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stats.bytes += u64::from(bytes);
        self.stats.busy_cycles += burst;
        if row_hit {
            self.stats.row_hits += 1;
        }
        self.stats.latency_sum += done - now;
        self.stats.last_done = self.stats.last_done.max(done);

        AccessResult {
            start,
            done,
            row_hit,
        }
    }
}

/// The `VecDeque` + `partition_point` device the contiguous fast path
/// replaced, kept verbatim as the reference the differential tests below
/// hold [`DramDevice`] and [`BusSchedule`] to.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::{AccessKind, AccessResult, Bank, Location, BUS_HORIZON};
    use crate::config::DramConfig;
    use crate::stats::DramStats;
    use crate::Cycle;

    #[derive(Debug, Clone, Default)]
    pub(super) struct BusSchedule {
        pub(super) busy: VecDeque<(Cycle, Cycle)>,
        watermark: Cycle,
    }

    impl BusSchedule {
        pub(super) fn reserve(&mut self, earliest: Cycle, dur: Cycle) -> Cycle {
            self.watermark = self.watermark.max(earliest.saturating_sub(BUS_HORIZON));
            while let Some(&(_, e)) = self.busy.front() {
                if e <= self.watermark {
                    self.busy.pop_front();
                } else {
                    break;
                }
            }

            let mut t = earliest;
            let first = self.busy.partition_point(|&(_, e)| e <= earliest);
            let mut idx = self.busy.len();
            for (i, &(s, e)) in self.busy.iter().enumerate().skip(first) {
                if t + dur <= s {
                    idx = i;
                    break;
                }
                t = t.max(e);
            }
            let end = t + dur;
            let merge_prev = idx > 0 && self.busy[idx - 1].1 == t;
            let merge_next = idx < self.busy.len() && self.busy[idx].0 == end;
            match (merge_prev, merge_next) {
                (true, true) => {
                    self.busy[idx - 1].1 = self.busy[idx].1;
                    self.busy.remove(idx);
                }
                (true, false) => self.busy[idx - 1].1 = end,
                (false, true) => self.busy[idx].0 = t,
                (false, false) => {
                    self.busy.insert(idx, (t, end));
                }
            }
            t
        }
    }

    #[derive(Debug, Clone)]
    pub(super) struct Channel {
        banks: Vec<Bank>,
        pub(super) bus: BusSchedule,
        pub(super) inflight: VecDeque<Cycle>,
    }

    #[derive(Debug, Clone)]
    pub(super) struct DramDevice {
        cfg: DramConfig,
        pub(super) channels: Vec<Channel>,
        pub(super) stats: DramStats,
    }

    impl DramDevice {
        pub(super) fn new(cfg: DramConfig) -> Self {
            let channels = (0..cfg.channels)
                .map(|_| Channel {
                    banks: vec![Bank::default(); cfg.banks_per_channel as usize],
                    bus: BusSchedule::default(),
                    inflight: VecDeque::new(),
                })
                .collect();
            Self {
                cfg,
                channels,
                stats: DramStats::default(),
            }
        }

        pub(super) fn access(
            &mut self,
            now: Cycle,
            kind: AccessKind,
            loc: Location,
            bytes: u32,
        ) -> AccessResult {
            let burst = self.cfg.burst_cycles(bytes);
            let ch = &mut self.channels[loc.channel as usize];

            while let Some(&front) = ch.inflight.front() {
                if front <= now {
                    ch.inflight.pop_front();
                } else {
                    break;
                }
            }
            let mut start = now;
            if ch.inflight.len() >= self.cfg.queue_depth {
                let drain = ch.inflight.pop_front().expect("queue nonempty");
                start = start.max(drain);
                self.stats.queue_stalls += 1;
            }

            let bank = &mut ch.banks[loc.bank as usize];
            let arrive = start;

            let row_hit = bank.open_row == Some(loc.row);
            let data_at = if row_hit {
                let cas_at = start.max(bank.cas_ready);
                bank.cas_ready = cas_at + burst;
                cas_at + self.cfg.t_cas
            } else {
                let act_at = if bank.open_row.is_some() {
                    start
                        .max(bank.cas_ready)
                        .max(bank.last_activate + self.cfg.t_ras)
                        + self.cfg.t_rp
                } else {
                    start.max(bank.cas_ready)
                };
                bank.last_activate = act_at;
                bank.open_row = Some(loc.row);
                self.stats.activates += 1;
                let cas_at = act_at + self.cfg.t_rcd;
                bank.cas_ready = cas_at + burst;
                cas_at + self.cfg.t_cas
            };

            self.stats.bank_wait_sum += data_at - arrive;

            let xfer_start = ch.bus.reserve(data_at, burst);
            self.stats.bus_wait_sum += xfer_start - data_at;
            let done = xfer_start + burst;
            ch.inflight.push_back(done);

            match kind {
                AccessKind::Read => self.stats.reads += 1,
                AccessKind::Write => self.stats.writes += 1,
            }
            self.stats.bytes += u64::from(bytes);
            self.stats.busy_cycles += burst;
            if row_hit {
                self.stats.row_hits += 1;
            }
            self.stats.latency_sum += done - now;
            self.stats.last_done = self.stats.last_done.max(done);

            AccessResult {
                start,
                done,
                row_hit,
            }
        }
    }
}

/// Differential tests: the fast path against [`reference`], driven by the
/// same seeded streams.
#[cfg(test)]
mod differential {
    use proptest::prelude::*;

    use super::{reference, AccessKind, BusSchedule, DramDevice, Location, BUS_HORIZON};
    use crate::config::DramConfig;
    use crate::Cycle;

    /// A seeded stream of request times in the shapes placement must
    /// handle: forward steps, out-of-order submissions within the horizon,
    /// jumps past the horizon, and reach-backs older than the watermark
    /// (more than `BUS_HORIZON` behind the newest request).
    struct Stream {
        state: u64,
        newest: Cycle,
    }

    impl Stream {
        fn new(seed: u64) -> Self {
            Self {
                state: seed,
                newest: 0,
            }
        }

        /// SplitMix64, reduced to `[0, bound)`.
        fn below(&mut self, bound: u64) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((u128::from(z ^ (z >> 31)) * u128::from(bound)) >> 64) as u64
        }

        fn time(&mut self) -> Cycle {
            let t = match self.below(100) {
                0..=59 => self.newest + self.below(24),
                60..=89 => self.newest.saturating_sub(self.below(BUS_HORIZON)),
                90..=94 => self.newest + BUS_HORIZON + self.below(4 * BUS_HORIZON),
                _ => self
                    .newest
                    .saturating_sub(BUS_HORIZON + 1 + self.below(BUS_HORIZON)),
            };
            self.newest = self.newest.max(t);
            t
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn bus_schedule_matches_reference(seed in any::<u64>(), n in 200usize..3000) {
            let mut fast = BusSchedule::default();
            let mut slow = reference::BusSchedule::default();
            let mut stream = Stream::new(seed);
            for _ in 0..n {
                let earliest = stream.time();
                let dur = [8, 10, 16][stream.below(3) as usize];
                prop_assert_eq!(fast.reserve(earliest, dur), slow.reserve(earliest, dur));
                prop_assert!(fast.busy.iter().eq(slow.busy.iter()));
            }
        }

        #[test]
        fn device_matches_reference(seed in any::<u64>(), n in 200usize..2000) {
            let mut shallow = DramConfig::stacked_l4();
            shallow.queue_depth = 4;
            for cfg in [DramConfig::stacked_l4(), DramConfig::ddr_main(), shallow] {
                let mut fast = DramDevice::new(cfg.clone());
                let mut slow = reference::DramDevice::new(cfg.clone());
                let mut stream = Stream::new(seed);
                for _ in 0..n {
                    let now = stream.time();
                    let loc = Location {
                        channel: stream.below(u64::from(cfg.channels)) as u32,
                        bank: stream.below(4) as u32,
                        row: stream.below(6),
                    };
                    let kind = if stream.below(4) == 0 { AccessKind::Write } else { AccessKind::Read };
                    let bytes = [64, 72, 80][stream.below(3) as usize];
                    prop_assert_eq!(
                        fast.access(now, kind, loc, bytes),
                        slow.access(now, kind, loc, bytes)
                    );
                    for (f, s) in fast.channels.iter().zip(&slow.channels) {
                        prop_assert!(f.bus.busy.iter().eq(s.bus.busy.iter()));
                        prop_assert!(f.inflight.iter().eq(s.inflight.iter()));
                    }
                    prop_assert_eq!(fast.stats(), &slow.stats);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l4() -> DramDevice {
        DramDevice::new(DramConfig::stacked_l4())
    }

    const LOC: Location = Location {
        channel: 0,
        bank: 0,
        row: 5,
    };

    #[test]
    fn cold_access_is_a_row_miss() {
        let mut d = l4();
        let r = d.access(0, AccessKind::Read, LOC, 80);
        assert!(!r.row_hit);
        // activate (44) + cas (44) + 5 bursts (10) = 98 from an idle bank
        // (no precharge needed when no row is open).
        assert_eq!(r.done, 98);
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut d = l4();
        let a = d.access(0, AccessKind::Read, LOC, 80);
        let b = d.access(a.done, AccessKind::Read, LOC, 80);
        assert!(b.row_hit);
        assert_eq!(b.done - b.start, 44 + 10);
    }

    #[test]
    fn row_conflict_pays_precharge_and_ras() {
        let mut d = l4();
        let a = d.access(0, AccessKind::Read, LOC, 80);
        let other = Location { row: 9, ..LOC };
        let b = d.access(a.done, AccessKind::Read, other, 80);
        assert!(!b.row_hit);
        // Activate was at cycle 0; precharge cannot start before
        // tRAS = 112. Then tRP + tRCD + tCAS + burst.
        assert_eq!(b.done, 112 + 44 + 44 + 44 + 10);
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        // 28 TADs live in one 2 KB row; reading them back to back must
        // pipeline CAS commands (tCCD) and stream at burst rate, not
        // serialize full CAS latencies.
        let mut d = l4();
        let first = d.access(0, AccessKind::Read, LOC, 80);
        let mut done = first.done;
        for _ in 0..27 {
            done = d.access(0, AccessKind::Read, LOC, 80).done;
        }
        // First access: activate+CAS+burst = 98; the rest stream at 10
        // cycles per 80 B burst.
        assert_eq!(done, 98 + 27 * 10);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = l4();
        let a = d.access(0, AccessKind::Read, LOC, 80);
        let b = d.access(0, AccessKind::Read, Location { bank: 1, ..LOC }, 80);
        // Both start immediately; bus serializes only the 10-cycle bursts.
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 0);
        assert_eq!(b.done, a.done + 10);
    }

    #[test]
    fn different_channels_are_independent() {
        let mut d = l4();
        let a = d.access(0, AccessKind::Read, LOC, 80);
        let b = d.access(0, AccessKind::Read, Location { channel: 1, ..LOC }, 80);
        assert_eq!(a.done, b.done);
    }

    #[test]
    fn bus_saturates_under_load() {
        let mut d = l4();
        // 32 back-to-back row hits on different banks of one channel: after
        // warmup the bus (10 cycles/burst) is the bottleneck.
        for bank in 0..16 {
            d.access(
                0,
                AccessKind::Read,
                Location {
                    channel: 0,
                    bank,
                    row: 1,
                },
                80,
            );
        }
        let before = d.stats().last_done;
        for bank in 0..16 {
            d.access(
                0,
                AccessKind::Read,
                Location {
                    channel: 0,
                    bank,
                    row: 1,
                },
                80,
            );
        }
        let after = d.stats().last_done;
        assert_eq!(after - before, 16 * 10);
    }

    #[test]
    fn queue_backpressure_stalls_start() {
        let mut cfg = DramConfig::stacked_l4();
        cfg.queue_depth = 2;
        let mut d = DramDevice::new(cfg);
        let r1 = d.access(0, AccessKind::Read, LOC, 80);
        let _r2 = d.access(0, AccessKind::Read, Location { bank: 1, ..LOC }, 80);
        let r3 = d.access(0, AccessKind::Read, Location { bank: 2, ..LOC }, 80);
        assert!(
            r3.start >= r1.done,
            "third request should wait for a queue slot"
        );
        assert_eq!(d.stats().queue_stalls, 1);
    }

    #[test]
    fn interleave_spreads_consecutive_rows() {
        let cfg = DramConfig::stacked_l4();
        let a = Location::interleave(&cfg, 0);
        let b = Location::interleave(&cfg, 1);
        let c = Location::interleave(&cfg, 4);
        assert_ne!(a.channel, b.channel);
        assert_eq!(a.channel, c.channel);
        assert_ne!(a.bank, c.bank);
    }

    #[test]
    fn interleave_is_injective_over_a_window() {
        let cfg = DramConfig::stacked_l4();
        let mut seen = std::collections::HashSet::new();
        for row in 0..4096u64 {
            assert!(
                seen.insert(Location::interleave(&cfg, row)),
                "collision at {row}"
            );
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut d = l4();
        d.access(0, AccessKind::Read, LOC, 80);
        d.access(200, AccessKind::Write, LOC, 80);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.activates, 1);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.bytes, 160);
    }

    #[test]
    fn writes_share_timing_with_reads() {
        let mut d1 = l4();
        let mut d2 = l4();
        let r = d1.access(0, AccessKind::Read, LOC, 80);
        let w = d2.access(0, AccessKind::Write, LOC, 80);
        assert_eq!(r.done, w.done);
    }
}
