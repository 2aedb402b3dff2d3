//! Host-speed calibration for the sweeps' host-time metrics.
//!
//! On a shared 2-CPU virtual machine the same sweep takes anywhere from
//! 1.5 s to 4 s as neighbouring tenants come and go, in periods of
//! seconds to minutes: longer than one run, so no median inside a run
//! removes it. Each sweep repetition is therefore bracketed by a fixed
//! kernel of host work that does not depend on the program under test,
//! run on both CPUs, and its time is scaled by `REFERENCE_S / kernel
//! time`: the time the repetition would have taken on a host where the
//! kernel takes `REFERENCE_S`. A change to the program moves the
//! repetition and not the kernel, so it still shows in full.

use std::collections::{BinaryHeap, HashMap};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's duration on a quiet host of this kind (2 vCPUs, Intel
/// Xeon); the constant only fixes the scale the sweep metrics read in.
pub const REFERENCE_S: f64 = 0.090;

const SETS: usize = 2048;
const WAYS: usize = 16;
const OPS: u64 = 1_500_000;

/// The kernel's working set, allocated once per calibration thread so
/// that calibrating allocates nothing and leaves the process's peak RSS
/// alone.
struct Scratch {
    tags: Vec<[u64; WAYS]>,
    memo: HashMap<u64, u32>,
    heap: BinaryHeap<std::cmp::Reverse<u64>>,
}

impl Scratch {
    fn new() -> Self {
        Self {
            tags: vec![[u64::MAX; WAYS]; SETS],
            memo: HashMap::with_capacity(4096),
            heap: BinaryHeap::with_capacity(1025),
        }
    }
}

/// A fixed amount of host work independent of the program under test,
/// with the simulator's mix of operations and, like a 1/1024-scale cell,
/// a working set that fits in the core's caches: a 16-way LRU tag array
/// of 2048 sets probed with skewed addresses, a 4096-entry hash-map memo,
/// and a binary heap of pending events. Returns the seconds it took.
fn kernel_s(s: &mut Scratch) -> f64 {
    let t = Instant::now();
    s.tags.fill([u64::MAX; WAYS]);
    s.memo.clear();
    s.heap.clear();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hits = 0u64;
    for op in 0..OPS {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Skewed line address: a hot region and a cold tail.
        let line = if z & 3 == 0 {
            (z >> 8) & 0xf_ffff
        } else {
            (z >> 8) & 0xffff
        };
        let set = &mut s.tags[(line as usize) % SETS];
        match set.iter().position(|&t| t == line) {
            Some(w) => {
                hits += 1;
                set[..=w].rotate_right(1);
            }
            None => {
                set.rotate_right(1);
                set[0] = line;
            }
        }
        let page = (line >> 6) & 0xfff;
        *s.memo.entry(page).or_insert((z & 63) as u32) += 1;
        s.heap.push(std::cmp::Reverse(op + (z & 255)));
        if s.heap.len() > 1024 {
            s.heap.pop();
        }
    }
    std::hint::black_box((hits, s.memo.len(), s.heap.len()));
    t.elapsed().as_secs_f64()
}

/// Two long-lived threads that run the kernel on request, one per CPU
/// the sweeps use.
pub struct Calibrator {
    go: Vec<mpsc::Sender<()>>,
    done: mpsc::Receiver<f64>,
    threads: Vec<JoinHandle<()>>,
}

impl Calibrator {
    pub fn new() -> Self {
        let (done_tx, done) = mpsc::channel();
        let mut go = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..2 {
            let (tx, rx) = mpsc::channel::<()>();
            let done_tx = done_tx.clone();
            threads.push(std::thread::spawn(move || {
                let mut scratch = Scratch::new();
                while rx.recv().is_ok() {
                    if done_tx.send(kernel_s(&mut scratch)).is_err() {
                        break;
                    }
                }
            }));
            go.push(tx);
        }
        Self { go, done, threads }
    }

    /// The kernel on both threads at once: the mean of the two times.
    fn host_s(&self) -> f64 {
        for g in &self.go {
            g.send(()).expect("calibration thread alive");
        }
        let mut sum = 0.0;
        for _ in &self.go {
            sum += self.done.recv().expect("calibration thread alive");
        }
        sum / self.go.len() as f64
    }

    /// Runs `f` between two kernel measurements. Returns its result, its
    /// wall time, and the factor `REFERENCE_S / kernel time` that converts
    /// this period's host seconds to reference seconds.
    pub fn calibrated<R>(&self, f: impl FnOnce() -> R) -> (R, Duration, f64) {
        let before = self.host_s();
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed();
        let after = self.host_s();
        (r, wall, REFERENCE_S / ((before + after) / 2.0))
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // Closing the request channels ends the threads.
        self.go.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
