//! DRAM timing and energy substrate for the DICE reproduction.
//!
//! The DICE paper evaluates on USIMM with a detailed memory-system model:
//! a stacked-DRAM (HBM-like) L4 cache — 4 channels × 128-bit bus — and a
//! DDR main memory — 1 channel × 64-bit bus — both at 800 MHz (DDR 1.6 GT/s)
//! with tCAS-tRCD-tRP-tRAS of 44-44-44-112 CPU cycles (Table 2). This crate
//! rebuilds that substrate as a deterministic queueing model:
//!
//! * per-bank row-buffer state (open-page policy) with activate/precharge
//!   timing and row-hit fast paths,
//! * per-channel data-bus occupancy at burst granularity — the property
//!   DICE's bandwidth argument hinges on: every 72 B TAD access occupies the
//!   bus for 5 bursts whether it returns one useful line or two,
//! * bounded read/write queues (back-pressure),
//! * counters for activates/reads/writes/bytes feeding an energy model.
//!
//! The model is intentionally simpler than a cycle-accurate DRAM simulator
//! (no command-bus contention, no refresh) but preserves first-order latency
//! and bandwidth behaviour: row hits cost `tCAS`, row misses
//! `tRP+tRCD+tCAS`, and a channel's sustained throughput is capped by its
//! burst rate.
//!
//! # Example
//!
//! ```
//! use dice_dram::{AccessKind, DramConfig, DramDevice, Location};
//!
//! let mut hbm = DramDevice::new(DramConfig::stacked_l4());
//! let loc = Location { channel: 0, bank: 3, row: 17 };
//! let first = hbm.access(1000, AccessKind::Read, loc, 80);
//! let second = hbm.access(first.done, AccessKind::Read, loc, 80);
//! // Same row: the second access is a row-buffer hit and completes faster.
//! assert!(second.done - second.start < first.done - first.start);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod energy;
mod fifo;
mod stats;

pub use config::DramConfig;
pub use device::{AccessKind, AccessResult, DramDevice, Location};
pub use energy::{EnergyModel, Joules};
pub use stats::DramStats;

/// A point in simulated time, measured in CPU cycles (3.2 GHz in the
/// paper's configuration).
pub type Cycle = u64;
